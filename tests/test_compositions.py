"""Unit tests for the composition and interval-statistic layer.

The brute-force oracles at the top restate each definition in the most
naive way possible; the library functions are checked against them
exhaustively on small n.  Frozen single values were computed by hand
before the library existed.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromsym
from chromsym.compositions import (
    SplitParams,
    chord_weight,
    composition_weight,
    compositions,
    dominance_leq,
    e2_sym,
    partition_of,
    partitions,
    segment_dissection,
    split_params,
    surplus,
    weight_flags,
)
from reference import (
    chord_weight_by_segments,
    composition_by_mask,
    compositions_by_mask,
    deficiency,
    reverse,
    reverse_tail,
    split_params_by_two_loops,
)


# ---------------------------------------------------------------- oracles

def brute_compositions(n):
    """All ways to cut (1,)*n into consecutive runs."""
    out = set()
    for cuts in itertools.product([0, 1], repeat=n - 1):
        parts = []
        run = 1
        for c in cuts:
            if c:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.add(tuple(parts))
    return out


def prefix_sums(comp):
    acc = 0
    out = [0]
    for p in comp:
        acc += p
        out.append(acc)
    return out


def surplus_oracle(comp, a):
    return min(s for s in prefix_sums(comp) if s >= a) - a


def deficiency_oracle(comp, a):
    return a - max(s for s in prefix_sums(comp) if s <= a)


def split_params_oracle(comp, b):
    """Solve the two defining equations by exhaustive search and check
    each has exactly one solution."""
    z = len(comp)
    ps = [
        (p, s)
        for p in range(1, z + 1)
        for s in range(1, comp[p - 1] + 1)
        if sum(comp[: p - 1]) + s == b
    ]
    qt = [
        (q, t)
        for q in range(1, z + 1)
        for t in range(1, comp[q % z] + 1)
        if sum(comp[1:q]) + t == b
    ]
    assert len(ps) == 1 and len(qt) == 1, (comp, b, ps, qt)
    return SplitParams(ps[0][0], ps[0][1], qt[0][0], qt[0][1])


def e2_oracle(xs):
    return sum(x * y for x, y in itertools.combinations(xs, 2))


# ----------------------------------------------------------- enumeration

def test_compositions_documented_order():
    assert list(compositions(1)) == [(1,)]
    assert list(compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    first_eight = list(itertools.islice(compositions(4), 8))
    assert first_eight == [
        (4,), (3, 1), (2, 2), (2, 1, 1),
        (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1),
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_compositions_complete_and_distinct(n):
    got = list(compositions(n))
    assert len(got) == 2 ** (n - 1)
    assert len(set(got)) == len(got)
    assert set(got) == brute_compositions(n)
    for comp in got:
        assert sum(comp) == n
        assert all(p >= 1 for p in comp)


@pytest.mark.parametrize("n", range(1, 17))
def test_compositions_match_the_mask_decoder(n):
    # past n = 11 a block's tail is itself split by its first part, and
    # by n = 16 that happens at several depths
    assert list(compositions(n)) == list(compositions_by_mask(n))


@st.composite
def composition_index(draw):
    n = draw(st.integers(1, 18))
    return n, draw(st.integers(0, (1 << (n - 1)) - 1))


@settings(max_examples=60, deadline=None)
@given(composition_index())
def test_kth_composition_is_the_mask_k_decode(nk):
    n, k = nk
    assert next(itertools.islice(compositions(n), k, None)) == composition_by_mask(n, k)


def test_compositions_are_lazy():
    # A rewrite that lists all 2**63 compositions of 64 before yielding
    # would fill memory, so the child runs under a 1 GiB address-space cap.
    code = (
        "import itertools, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from chromsym.compositions import compositions\n"
        "head = list(itertools.islice(compositions(64), 1000))\n"
        "print(len(head), head[:4])\n"
    )
    src = str(Path(chromsym.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1000 [(64,), (63, 1), (62, 2), (62, 1, 1)]\n"


def test_compositions_head_of_a_huge_n_comes_at_once():
    # Only the prefixes on the way to the first block are walked, so the
    # head of the stream of 3000 costs about as little as that of 3.
    code = (
        "import itertools, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from chromsym.compositions import compositions\n"
        "print(list(itertools.islice(compositions(3000), 3)))\n"
    )
    src = str(Path(chromsym.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[(3000,), (2999, 1), (2998, 2)]\n"


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("n", range(1, 17))
def test_weight_flags_mark_the_nonzero_weights_in_stream_order(n):
    flags = list(weight_flags(n))
    assert flags == [int(composition_weight(c) != 0) for c in compositions(n)]
    assert sum(flags) == _fibonacci(n)


def test_weight_flags_are_read_off_composition_weight(monkeypatch):
    # the flags state no zero rule of their own: under another product
    # over the parts, zero also when a later part is 2, they follow it.
    # The flag rows are built with the tails, so both start over.
    import chromsym.compositions as module

    def weight(comp):
        w = comp[0]
        for p in comp[1:]:
            w *= (p - 1) * (p - 2)
        return w

    monkeypatch.setattr(module, "composition_weight", weight)
    monkeypatch.setattr(module, "_TAILS", [()])
    monkeypatch.setattr(module, "_FLAGS", [(b"", b"")])
    for n in range(1, 15):
        flags = list(weight_flags(n))
        assert flags == [int(weight(c) != 0) for c in compositions(n)]
    assert sum(flags) < _fibonacci(14)


def test_weight_flags_head_of_a_huge_n_comes_at_once():
    # as for compositions(3000), only the blocks on the way to the first
    # one are walked; the runs of up to 2**2997 zeros behind them are
    # neither counted nor listed
    code = (
        "import itertools, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from chromsym.compositions import weight_flags\n"
        "print(list(itertools.islice(weight_flags(3000), 12)))\n"
    )
    src = str(Path(chromsym.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0]\n"


def test_compositions_module_is_not_shadowed_by_its_function():
    import chromsym.compositions as module

    assert hasattr(module, "_TAILS")
    assert module.compositions is compositions


def test_compositions_rejects_nonpositive():
    with pytest.raises(ValueError):
        list(compositions(0))
    with pytest.raises(ValueError):
        weight_flags(0)


def test_partitions_small():
    assert list(partitions(0)) == [()]
    assert list(partitions(1)) == [(1,)]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(list(partitions(6))) == 11
    assert len(list(partitions(10))) == 42


@pytest.mark.parametrize("n", range(0, 12))
def test_partitions_canonical_and_ordered(n):
    got = list(partitions(n))
    assert len(set(got)) == len(got)
    for lam in got:
        assert sum(lam) == n
        assert list(lam) == sorted(lam, reverse=True)
    assert got == sorted(got, reverse=True)
    # partitions are exactly the weakly decreasing compositions
    if n >= 1:
        assert set(got) == {c for c in compositions(n) if partition_of(c) == c}


# ------------------------------------------------------- rearrangements

def test_partition_of_examples():
    assert partition_of((2, 4)) == (4, 2)
    assert partition_of((1, 3, 2, 3)) == (3, 3, 2, 1)
    assert partition_of(()) == ()


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_of_invariant_under_symmetries(n):
    for comp in compositions(n):
        lam = partition_of(comp)
        assert partition_of(reverse(comp)) == lam
        for r in range(len(comp)):
            assert partition_of(comp[r:] + comp[:r]) == lam


def test_reverse_tail_examples():
    assert reverse_tail((1, 2, 3, 4)) == (1, 4, 3, 2)
    assert reverse_tail((4, 2)) == (4, 2)
    assert reverse_tail((5,)) == (5,)


@pytest.mark.parametrize("n", range(1, 11))
def test_reverse_tail_is_weight_preserving_involution(n):
    for comp in compositions(n):
        img = reverse_tail(comp)
        assert reverse_tail(img) == comp
        assert img[0] == comp[0]
        assert partition_of(img) == partition_of(comp)
        assert composition_weight(img) == composition_weight(comp)


def test_composition_weight_values():
    assert composition_weight((2, 4)) == 6
    assert composition_weight((4, 2)) == 4
    assert composition_weight((6,)) == 6
    assert composition_weight((3, 1, 2)) == 0
    assert composition_weight((1, 2, 2)) == 1
    # weighted pair from the known degree-6 chord expansion
    assert composition_weight((2, 4)) + 5 * composition_weight((4, 2)) == 26


@pytest.mark.parametrize("n", range(1, 11))
def test_composition_weight_zero_iff_tail_one(n):
    for comp in compositions(n):
        expect = comp[0]
        for p in comp[1:]:
            expect *= p - 1
        assert composition_weight(comp) == expect
        assert (composition_weight(comp) == 0) == (1 in comp[1:])


# ---------------------------------------------------- surplus, deficiency

def test_surplus_examples():
    assert surplus((2, 4), 3) == 3
    assert surplus((4, 2), 3) == 1
    assert surplus((2, 4), 2) == 0
    assert surplus((2, 4), 0) == 0
    assert surplus((6,), 5) == 1


def test_deficiency_examples():
    assert deficiency((2, 4), 3) == 1
    assert deficiency((4, 2), 3) == 3
    assert deficiency((2, 4), 6) == 0


@pytest.mark.parametrize("n", range(1, 10))
def test_surplus_deficiency_against_oracle(n):
    for comp in compositions(n):
        ps = set(prefix_sums(comp))
        for a in range(n + 1):
            up = surplus(comp, a)
            down = deficiency(comp, a)
            assert up == surplus_oracle(comp, a)
            assert down == deficiency_oracle(comp, a)
            assert (up == 0) == (a in ps)
            assert (down == 0) == (a in ps)
            # mirror duality
            assert down == surplus(reverse(comp), n - a)


def test_point_domain_errors():
    with pytest.raises(ValueError):
        surplus((2, 4), 7)
    with pytest.raises(ValueError):
        surplus((2, 4), -1)
    with pytest.raises(ValueError):
        deficiency((2, 4), 7)
    with pytest.raises(TypeError):
        surplus((2, 4), 2.5)


# ------------------------------------------------------------- splitting

def test_split_params_frozen_examples():
    assert split_params((2, 4), 3) == SplitParams(p=2, s=1, q=1, t=3)
    assert split_params((4, 2), 3) == SplitParams(p=1, s=3, q=2, t=1)
    assert split_params((6,), 3) == SplitParams(p=1, s=3, q=1, t=3)


@pytest.mark.parametrize("n", range(2, 10))
def test_split_params_against_oracle(n):
    for comp in compositions(n):
        for b in range(1, n):
            assert split_params(comp, b) == split_params_oracle(comp, b)


@pytest.mark.parametrize("n", range(2, 13))
def test_split_params_matches_the_two_loop_walk(n):
    # the one locate, rotated by adding i_1, against the cyclic walk
    for comp in compositions(n):
        for b in range(1, n):
            assert split_params(comp, b) == split_params_by_two_loops(comp, b)


@pytest.mark.parametrize("n", range(2, 10))
def test_split_params_coupling_invariants(n):
    """The two readings of the same cut point are rigidly coupled."""
    for comp in compositions(n):
        z = len(comp)
        i1 = comp[0]
        for b in range(1, n):
            p, s, q, t = split_params(comp, b)
            a = n - b
            assert q >= p - 1
            assert sum(comp[p - 1:q]) + t == i1 + s
            lag = q == p - 1
            assert lag == (t == i1 + s)
            assert lag == (comp[q % z] - t == comp[p - 1] - s - i1)
            assert lag == (i1 <= comp[p - 1] - s)
            assert comp[p - 1] - s == deficiency(reverse(comp), a)
            assert a - i1 == sum(comp[q:]) - t
            assert (q == z) == (t == i1 - a)
            assert (q == z) == (i1 > a)


def test_split_params_domain():
    with pytest.raises(ValueError):
        split_params((2, 4), 0)
    with pytest.raises(ValueError):
        split_params((2, 4), 6)


# ---------------------------------------------------------- chord weight

def test_e2_sym_values():
    assert e2_sym((1, 2, 1)) == 5
    assert e2_sym((3, 3)) == 9
    assert e2_sym((0, 5)) == 0
    assert e2_sym((2, 3, 4)) == 2 * 3 + 2 * 4 + 3 * 4


def test_e2_sym_needs_two_values():
    with pytest.raises(ValueError):
        e2_sym((4,))
    with pytest.raises(ValueError):
        e2_sym(())


def test_e2_sym_against_oracle():
    import random

    rng = random.Random(177)
    for _ in range(200):
        xs = tuple(rng.randrange(-6, 9) for _ in range(rng.randrange(2, 7)))
        assert e2_sym(xs) == e2_oracle(xs)


def test_chord_weight_frozen_examples():
    assert chord_weight((2, 4), 3) == 1
    assert chord_weight((4, 2), 3) == 5
    assert chord_weight((6,), 3) == 9
    assert chord_weight((3, 3), 3) == 0
    # single-composition cross-check: 9 * weight(6,) = 54, the known
    # leading coefficient of the degree-6 chord expansion
    assert chord_weight((6,), 3) * composition_weight((6,)) == 54


@pytest.mark.parametrize("n", range(4, 11))
def test_chord_weight_matches_segment_route(n):
    for comp in compositions(n):
        for b in range(2, n - 1):
            direct = chord_weight(comp, b)
            pictured = chord_weight_by_segments(comp, b)
            assert direct == pictured, (comp, b)
            assert direct >= 0


@pytest.mark.parametrize("n", range(4, 13))
def test_chord_weight_zero_iff_flush(n):
    """Weight vanishes exactly when the window fills out to a segment
    boundary on at least one side."""
    for comp in compositions(n):
        for b in range(2, n - 1):
            d = segment_dissection(comp, b)
            seg = d.window_inside()
            flush = seg is not None and (seg[0] == d.window[0] or seg[1] == d.window[1])
            assert (chord_weight(comp, b) == 0) == flush, (comp, b)


def test_chord_weight_domain():
    with pytest.raises(ValueError):
        chord_weight((2, 4), 1)
    with pytest.raises(ValueError):
        chord_weight((2, 4), 5)


def test_segment_dissection_shape():
    d = segment_dissection((4, 2), 3)
    assert d.segments == ((0, 4), (4, 6), (6, 10))
    assert d.window == (3, 7)
    assert d.window_inside() is None
    assert d.overlaps() == (1, 2, 1)

    d = segment_dissection((2, 4), 3)
    assert d.segments == ((0, 2), (2, 6), (6, 8))
    assert d.window == (3, 5)
    assert d.window_inside() == (2, 6)


@pytest.mark.parametrize("n", range(2, 10))
def test_segment_dissection_tiles_interval(n):
    for comp in compositions(n):
        i1 = comp[0]
        for b in range(1, n):
            d = segment_dissection(comp, b)
            assert d.segments[0] == (0, i1)
            assert d.segments[-1][1] == n + i1
            for (x0, y0), (x1, y1) in zip(d.segments, d.segments[1:]):
                assert y0 == x1
            lengths = tuple(y - x for x, y in d.segments)
            assert lengths == comp + (i1,)
            assert sum(d.overlaps()) == i1


# --------------------------------------------------------------- dominance

def test_dominance_examples():
    assert dominance_leq((2, 2, 1), (3, 1, 1))
    assert not dominance_leq((3, 1, 1), (2, 2, 1))
    assert dominance_leq((3, 3), (4, 2))
    assert not dominance_leq((4, 2), (3, 3))
    assert dominance_leq((2, 2), (2, 2))


def test_dominance_requires_equal_sum():
    with pytest.raises(ValueError):
        dominance_leq((2, 1), (2, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_dominance_is_partial_order(n):
    lams = list(partitions(n))
    for lam in lams:
        assert dominance_leq(lam, lam)
    for mu, lam in itertools.permutations(lams, 2):
        if dominance_leq(mu, lam) and dominance_leq(lam, mu):
            assert mu == lam
    for a, b, c in itertools.permutations(lams, 3):
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)
