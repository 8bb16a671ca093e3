"""Unit tests for the exact symmetric-function layer.

The conversion p_to_e is checked four independent ways: frozen small
images worked out by hand from the recurrence, numeric evaluation of
both sides as honest polynomials at random points, the principal
specialization identities e_m -> comb(k, m), p_m -> k, and products of
the images that Newton's recurrence gives for each part.
"""

import itertools
import json
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chromsym
import chromsym.symfunc as symfunc
from chromsym.cli import parse_graph_spec
from chromsym.compositions import partitions
from chromsym.engine import csf_oracle
from chromsym.graphs import build_graph, count_proper_colorings
from chromsym.symfunc import (
    _arrangement_table,
    _degree,
    _image_table,
    _multiply_into,
    _pack,
    _packed,
    _unpack,
    _unpacked,
    _width,
    Basis,
    EPositivityReport,
    SymFunc,
    is_e_positive,
    p_to_e,
    principal_specialization,
    render_latex,
    render_text,
    term_sort_key,
    to_json_dict,
)
from reference import (
    arrangement_table_by_first_part,
    from_json_dict,
    monomial,
    multiply_by_sorting,
    power_image_by_newton,
    principal_specialization_by_parts,
)

E = Basis.ELEMENTARY
P = Basis.POWERSUM


# ---------------------------------------------------------------- oracles

def eval_e(lam, xs):
    """e_lam evaluated at an explicit point, straight from the definition."""
    val = 1
    for m in lam:
        val *= sum(
            prod_of(c) for c in itertools.combinations(xs, m)
        )
    return val


def prod_of(c):
    out = 1
    for x in c:
        out *= x
    return out


def eval_p(lam, xs):
    val = 1
    for m in lam:
        val *= sum(x**m for x in xs)
    return val


def eval_symfunc(f, xs):
    ev = eval_e if f.basis is E else eval_p
    return sum(c * ev(lam, xs) for lam, c in f.terms.items())


def random_symfunc(rng, basis, max_degree=5, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        d = rng.randrange(1, max_degree + 1)
        lam = []
        while d:
            part = rng.randrange(1, d + 1)
            lam.append(part)
            d -= part
        terms[tuple(sorted(lam, reverse=True))] = rng.randrange(-9, 10) or 1
    return SymFunc(basis, terms)


# partitions with parts up to 5 and sparse integer combinations of
# them; all-ones shapes put the largest multiplicity a width allows
# for their degree in one digit
partition_keys = st.lists(st.integers(1, 5), max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)
term_dicts = st.dictionaries(partition_keys, st.integers(-20, 20), max_size=5)


# ------------------------------------------------------------ construction

def test_monomial_and_zero():
    f = monomial(E, (2, 1), 3)
    assert f.coefficient((2, 1)) == 3
    assert f.coefficient((3,)) == 0
    assert not f.is_zero()
    assert SymFunc.zero(E).is_zero()
    assert monomial(E, (2,), 0).is_zero()


def test_constant_term_key_is_empty_partition():
    one = monomial(E, (), 7)
    assert one.coefficient(()) == 7
    assert principal_specialization(one, 5) == 7


def test_rejects_noncanonical_keys():
    with pytest.raises(ValueError):
        SymFunc(E, {(1, 2): 1})
    with pytest.raises(ValueError):
        SymFunc(E, {(2, 0): 1})
    with pytest.raises(TypeError):
        SymFunc(E, {(2,): 1.5})
    with pytest.raises(TypeError):
        SymFunc("e", {(2,): 1})


@pytest.mark.parametrize("basis, lam", [(E, (2.0,)), (E, (True,)), (P, (2.0, 1)), (P, ("2",))])
def test_rejects_non_int_parts(basis, lam):
    with pytest.raises(TypeError, match="parts must be int"):
        SymFunc(basis, {lam: 1})


def test_equality_ignores_zero_coefficients():
    assert SymFunc(E, {(2,): 1, (1, 1): 0}) == monomial(E, (2,))
    assert SymFunc(E, {}) == SymFunc.zero(E)
    assert monomial(E, (2,)) != monomial(P, (2,))


# ------------------------------------------------------------- arithmetic

def test_add_sub_scale():
    f = monomial(E, (2,), 3) + monomial(E, (1, 1), -1)
    assert f.coefficient((2,)) == 3
    assert f.coefficient((1, 1)) == -1
    assert (f - f).is_zero()
    assert f.scale(2).coefficient((2,)) == 6
    assert (2 * f) == f.scale(2) == f * 2
    assert (-f).coefficient((1, 1)) == 1
    assert f.scale(0).is_zero()


def test_add_cancels_terms():
    f = monomial(E, (2, 1), 5) + monomial(E, (2, 1), -5)
    assert f.is_zero()
    assert (2, 1) not in f.terms


def test_basis_mismatch_raises():
    with pytest.raises(ValueError):
        monomial(E, (2,)) + monomial(P, (2,))
    with pytest.raises(ValueError):
        monomial(P, (2,)) * monomial(P, (1,))


def test_product_merges_partitions():
    e2 = monomial(E, (2,))
    e31 = monomial(E, (3, 1))
    assert e2 * e2 == monomial(E, (2, 2))
    assert e2 * e31 == monomial(E, (3, 2, 1))
    f = (monomial(E, (1,)) - monomial(E, (2,))) * monomial(E, (3,))
    assert f == monomial(E, (3, 1)) - monomial(E, (3, 2))
    assert (monomial(E, ()) * e31) == e31


@settings(max_examples=150, deadline=None)
@given(term_dicts, term_dicts, term_dicts)
def test_product_properties_random(f, g, h):
    f, g, h = SymFunc(E, f), SymFunc(E, g), SymFunc(E, h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * monomial(E, ()) == f


@pytest.mark.parametrize("n", range(23))
def test_pack_round_trips_every_partition(n):
    # across the digit width's step from 4 to 5 bits at n = 16
    w = _width(n)
    for lam in partitions(n):
        assert _unpack(_pack(lam, w), w) == lam


def test_pack_multiplicity_fills_its_digit():
    assert _width(15) == 4
    assert _pack((1,) * 15, 4) == 0b1111
    assert _unpack(0b1111, 4) == (1,) * 15


@pytest.mark.parametrize("lam, w", [((2,) * 15, 4), ((1,) * 31, 5)])
def test_unpack_reads_a_full_top_digit(lam, w):
    # the decode finds the top digit by the key's bit_length; a digit of
    # all ones must not be read as part of the digit above it
    assert _pack(lam, w) == ((1 << w) - 1) << (lam[0] - 1) * w
    assert _unpack(_pack(lam, w), w) == lam


# any int is a key at any width: each w-bit digit is a multiplicity
packed_calls = st.lists(
    st.tuples(st.integers(3, 7),
              st.dictionaries(st.integers(0, 1 << 21), st.integers(-2, 2), max_size=12)),
    min_size=1, max_size=5,
)


@settings(max_examples=150, deadline=None)
@example([(3, {9: 1, 0: 2}), (4, {9: 1, 0: 0}), (3, {9: -1})])
@given(packed_calls)
def test_unpacked_decodes_each_nonzero_key_as_unpack(calls):
    # one key read at two widths names two partitions
    for w, terms in calls:
        expected = [(_unpack(key, w), c) for key, c in terms.items() if c]
        assert list(_unpacked(terms, w).items()) == expected


def test_conversion_keeps_no_state_across_calls():
    def container_sizes():
        # nested containers count too, so a memo kept per width shows
        def size(value):
            if isinstance(value, dict):
                return len(value) + sum(map(size, value.values()))
            if isinstance(value, (list, set)):
                return len(value) + sum(map(size, value))
            return 0
        return {name: size(value) for name, value in vars(symfunc).items()
                if not name.startswith("__") and name != "_TABLES"
                and isinstance(value, (dict, list, set))}

    rng = random.Random(11)
    functions = {n: SymFunc(P, {lam: rng.randrange(-9, 10) or 1 for lam in partitions(n)})
                 for n in (7, 12)}
    for n in functions:
        _image_table(_width(n), n)
    before = container_sizes()
    # p_to_e at widths 3 and 4, then products decoded at widths 4 and 5
    images = {}
    for n, f in functions.items():
        images[n] = p_to_e(f)
        assert container_sizes() == before, n
    for n, e in images.items():
        e * e
        assert container_sizes() == before, 2 * n


@settings(max_examples=150, deadline=None)
@example({(1, 1): 1}, {(1, 1): 1}, 1)
@given(term_dicts, term_dicts, st.integers(-3, 3))
def test_packed_product_matches_sorting_joined_parts(f, g, scale):
    w = _width(_degree(f) + _degree(g))
    packed: dict[int, int] = {}
    scaled = {lam: scale * c for lam, c in f.items()}
    _multiply_into(packed, _packed(scaled, w), _packed(g, w))
    joined: dict[tuple[int, ...], int] = {}
    multiply_by_sorting(joined, f, g, scale)
    nonzero = {lam: c for lam, c in joined.items() if c}
    # cancelled keys stay in packed; the decode drops them
    assert _unpacked(packed, w) == nonzero


def test_multiply_into_is_the_same_either_way_round():
    # the smaller factor runs outside, whichever way round it is given,
    # and its zero coefficients are skipped: all zeros add no key
    w = _width(12)
    f = _packed({(3, 2): 2, (2, 1): -1, (1,): 5}, w)
    g = _packed({(4, 1, 1): 3, (2,): 0, (5, 1): -2, (1,): 1, (3,): 7}, w)
    one_way: dict[int, int] = {}
    other_way: dict[int, int] = {}
    _multiply_into(one_way, f, g)
    _multiply_into(other_way, g, f)
    assert _unpacked(one_way, w) == _unpacked(other_way, w) != {}
    zeros = dict.fromkeys(list(g)[:2], 0)
    for a, b in (f, zeros), (zeros, f):
        out: dict[int, int] = {}
        _multiply_into(out, a, b)
        assert out == {}


def test_product_agrees_with_evaluation():
    rng = random.Random(7)
    for _ in range(20):
        f = random_symfunc(rng, E, max_degree=4, n_terms=3)
        g = random_symfunc(rng, E, max_degree=4, n_terms=3)
        xs = [rng.randrange(-3, 4) for _ in range(4)]
        assert eval_symfunc(f * g, xs) == eval_symfunc(f, xs) * eval_symfunc(g, xs)


# ------------------------------------------------------- basis conversion

def test_p_to_e_frozen_small_images():
    p1 = monomial(P, (1,))
    p2 = monomial(P, (2,))
    p3 = monomial(P, (3,))
    assert p_to_e(p1) == monomial(E, (1,))
    assert p_to_e(p2) == monomial(E, (1, 1)) - 2 * monomial(E, (2,))
    assert p_to_e(p3) == (
        monomial(E, (1, 1, 1)) - 3 * monomial(E, (2, 1)) + 3 * monomial(E, (3,))
    )
    assert p_to_e(monomial(P, (), 4)) == monomial(E, (), 4)


@pytest.mark.parametrize("w", [4, 5, 6, 7])
def test_arrangement_table_matches_first_part_recurrence(w, monkeypatch):
    # each partition is made once, from its parent; rows up to the widest
    # the width holds (2**w - 1 at w = 4, where 1^15 fills its digit)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    top = min(2 ** w - 1, 32)
    table = _arrangement_table(w, top)
    expected = arrangement_table_by_first_part(w, top)
    for r in range(top + 1):
        assert table[r] == expected[r], (w, r)
        largest = [(key.bit_length() - 1) // w + 1 for key in table[r]]
        assert largest == sorted(largest), (w, r)
        assert len(table[r]) == sum(1 for _ in partitions(r)), (w, r)


def test_power_image_matches_newton_recurrence(monkeypatch):
    # fresh tables, built by the recurrence at the narrowest width that
    # holds 22 and at a wider one
    monkeypatch.setattr(symfunc, "_TABLES", {})
    for w in (5, 7):
        images = _image_table(w, 22)
        for m in range(1, 23):
            assert SymFunc(E, _unpacked(images[m], w)) == power_image_by_newton(m), (w, m)


def _newton_product(terms):
    expected = SymFunc.zero(E)
    for lam, c in terms.items():
        product = monomial(E, (), c)
        for part in lam:
            product = product * power_image_by_newton(part)
        expected = expected + product
    return expected


def _at_most_twelve(parts):
    kept = []
    for part in parts:
        if sum(kept) + part <= 12:
            kept.append(part)
    return tuple(sorted(kept, reverse=True))


@settings(max_examples=60, deadline=None)
@example({(): 3})
# runs of ones that end terms sharing the parts above 1; p_2 leaves
# e_1^2 at the key where p_1^2 then adds
@example({(3, 2): 1, (3, 1, 1): 1})
@example({(2, 1): 1, (1, 1, 1): 1})
@example({(2,): 1, (1, 1): 1})
@example({(3, 2, 1): 2, (3, 2): -1, (3, 1, 1, 1): 5, (3, 1, 1): 3, (3,): 1, (1,): -4})
@given(st.dictionaries(
    st.lists(st.integers(1, 12), max_size=12).map(_at_most_twelve),
    st.integers(-20, 20),
    max_size=8,
))
def test_p_to_e_is_the_product_of_newton_images(terms):
    assert p_to_e(SymFunc(P, terms)) == _newton_product(terms)


class _CappedTable(list):
    def append(self, item):
        if len(self) >= 3:
            raise AssertionError(f"table grown to size {len(self)}")
        super().append(item)


def test_p_to_e_grows_tables_only_to_the_largest_part(monkeypatch):
    # degree 1000 but largest part 2: the tables stop at p_2, where
    # partitions of the degree would never fit in memory
    w = _width(1000)
    monkeypatch.setattr(
        symfunc, "_TABLES", {w: (_CappedTable([{0: 1}]), _CappedTable([{0: 1}]))}
    )
    p_to_e(monomial(P, (2,) * 500))
    assert [len(table) for table in symfunc._TABLES[w]] == [3, 3]


def test_p_to_e_rejects_elementary_input():
    with pytest.raises(ValueError):
        p_to_e(monomial(E, (2,)))


def test_p_to_e_is_linear():
    rng = random.Random(99)
    for _ in range(15):
        f = random_symfunc(rng, P)
        g = random_symfunc(rng, P)
        assert p_to_e(f) + p_to_e(g) == p_to_e(f + g)
        assert p_to_e(f.scale(-3)) == p_to_e(f).scale(-3)


@pytest.mark.parametrize("m", range(1, 13))
def test_p_to_e_specialization_identity(m):
    """A single power sum with k of the variables equal to 1 is k."""
    image = p_to_e(monomial(P, (m,)))
    for k in range(0, m + 2):
        assert principal_specialization(image, k) == k


def test_p_to_e_agrees_with_evaluation():
    rng = random.Random(4242)
    for _ in range(30):
        f = random_symfunc(rng, P, max_degree=6, n_terms=3)
        xs = [rng.randrange(-3, 4) for _ in range(5)]
        assert eval_symfunc(f, xs) == eval_symfunc(p_to_e(f), xs)
    # one call over every partition of 12 and a constant: many tails share
    # each largest part, and tails come in every length; twelve variables
    # keep every e_lam of degree 12 visible
    terms = {lam: rng.randrange(-9, 10) or 1 for lam in partitions(12)}
    f = SymFunc(P, {**terms, (): 7})
    image = p_to_e(f)
    for _ in range(3):
        xs = [rng.randrange(-3, 4) for _ in range(12)]
        assert eval_symfunc(f, xs) == eval_symfunc(image, xs)


def test_p_to_e_multiplicative_on_parts():
    for lam in [(2, 1), (3, 2), (4, 2, 1), (5, 5)]:
        direct = p_to_e(monomial(P, lam))
        pieces = monomial(E, ())
        for part in lam:
            pieces = pieces * p_to_e(monomial(P, (part,)))
        assert direct == pieces


def test_p_to_e_of_a_term_with_hundreds_of_parts():
    # p_2 = e_1^2 - 2 e_2, so p_2^600 expands binomially; the conversion
    # removes one part per stack frame, 600 deep
    image = p_to_e(monomial(P, (2,) * 600))
    expected = {(2,) * j + (1,) * (1200 - 2 * j): comb(600, j) * (-2) ** j
                for j in range(601)}
    assert image == SymFunc(E, expected)


# few shapes of parts above 1, so terms share them and differ in their
# runs of ones
@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.tuples(st.lists(st.integers(2, 4), max_size=3), st.integers(0, 8)).map(
        lambda pair: tuple(sorted(pair[0], reverse=True)) + (1,) * pair[1]
    ),
    st.integers(-20, 20),
    max_size=10,
))
def test_p_to_e_with_many_parts_equal_to_one(terms):
    assert p_to_e(SymFunc(P, terms)) == _newton_product(terms)


def test_p_to_e_of_p1_power_is_e1_power():
    assert p_to_e(monomial(P, (1,) * 600, -3)) == monomial(E, (1,) * 600, -3)


def _peak_accumulator(monkeypatch):
    peak = [0]

    def multiply_into(out, f, g):
        _multiply_into(out, f, g)
        peak[0] = max(peak[0], len(out))

    monkeypatch.setattr(symfunc, "_multiply_into", multiply_into)
    return peak


def test_p_to_e_just_under_its_term_budget_converts(monkeypatch):
    # p_6^13: the root accumulator ends with 48 244 terms
    peak = _peak_accumulator(monkeypatch)
    image = p_to_e(monomial(P, (6,) * 13))
    assert 45_000 < peak[0] <= symfunc._P_TO_E_MAX_TERMS
    for k in range(4):
        assert principal_specialization(image, k) == k ** 13


def test_p_to_e_refuses_past_its_term_budget(monkeypatch):
    # p_6^14 would end with 66 844 terms; the last product is refused
    peak = _peak_accumulator(monkeypatch)
    with pytest.raises(chromsym.ResourceLimitError) as exc:
        p_to_e(monomial(P, (6,) * 14))
    assert str(exc.value) == (
        f"p_to_e capped at {symfunc._P_TO_E_MAX_TERMS} accumulator terms, "
        f"a product made {peak[0]}"
    )
    assert symfunc.ResourceLimitError is chromsym.ResourceLimitError


def test_p_to_e_refuses_the_first_image_past_its_budget(monkeypatch):
    # p(9) = 30 and p(10) = 42: under a budget of 30, p_9 converts, and
    # p_12 is refused at A_10, which is not kept, before its image or any
    # larger table
    monkeypatch.setattr(symfunc, "_P_TO_E_MAX_TERMS", 30)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    assert p_to_e(monomial(P, (9,))) == power_image_by_newton(9)
    with pytest.raises(chromsym.ResourceLimitError) as exc:
        p_to_e(monomial(P, (12,)))
    assert str(exc.value) == "p_to_e capped at 30 accumulator terms, the image of p_10 has 42"
    assert [len(table) for table in symfunc._TABLES[_width(12)]] == [10, 10]


# ------------------------------------------------------------ positivity

def test_is_e_positive_reports_witnesses():
    f = monomial(E, (2,)) - monomial(E, (1, 1))
    rep = is_e_positive(f)
    assert rep == EPositivityReport(positive=False, witnesses=(((1, 1), -1),))
    assert is_e_positive(SymFunc.zero(E)).positive
    assert is_e_positive(monomial(E, (3, 1), 5)).positive
    # a zero-coefficient term changes nothing
    padded = f + monomial(E, (4,), 0)
    assert is_e_positive(padded) == rep


def test_is_e_positive_witness_order():
    f = (
        monomial(E, (1, 1, 1), -2)
        + monomial(E, (3,), -1)
        + monomial(E, (2, 1), 4)
    )
    rep = is_e_positive(f)
    assert rep.witnesses == (((3,), -1), ((1, 1, 1), -2))


def test_is_e_positive_rejects_power_basis():
    with pytest.raises(ValueError):
        is_e_positive(monomial(P, (2,)))


# -------------------------------------------------------- specialization

def test_principal_specialization_values():
    assert principal_specialization(monomial(E, (3,)), 3) == 1
    assert principal_specialization(monomial(E, (3,)), 5) == 10
    assert principal_specialization(monomial(E, (2, 1), 3), 2) == 3 * 1 * 2
    assert principal_specialization(monomial(P, (4, 4)), 3) == 9
    assert principal_specialization(monomial(E, (5,)), 2) == 0


def test_principal_specialization_domain():
    with pytest.raises(ValueError):
        principal_specialization(monomial(E, (2,)), -1)
    with pytest.raises(TypeError):
        principal_specialization(monomial(E, (2,)), 2.0)


@st.composite
def long_run_functions(draw):
    """e-functions whose terms repeat a few parts many times, so most
    terms have long runs of equal parts."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        runs = draw(st.dictionaries(st.integers(1, 9), st.integers(1, 40), min_size=1, max_size=4))
        lam = tuple(sorted((m for m, r in runs.items() for _ in range(r)), reverse=True))
        terms[lam] = draw(st.integers(-10**6, 10**6).filter(bool))
    return SymFunc(E, terms)


@settings(max_examples=80, deadline=None)
@given(long_run_functions(), st.integers(0, 60))
def test_principal_specialization_equals_the_part_by_part_product(f, k):
    assert principal_specialization(f, k) == principal_specialization_by_parts(f, k)


def test_principal_specialization_of_a_wide_graph():
    graph = build_graph(parse_graph_spec("edges:300;"))
    f = csf_oracle(graph)
    assert f == monomial(E, (1,) * 300)
    for k in range(301):
        value = principal_specialization(f, k)
        assert value == principal_specialization_by_parts(f, k) == k ** 300, k
        assert value == count_proper_colorings(graph, k), k


# --------------------------------------------------------------- output

def test_term_order():
    lams = [(2, 2), (4,), (3, 1), (1, 1, 1), (3,), (2, 1, 1)]
    assert sorted(lams, key=term_sort_key) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (3,), (1, 1, 1),
    ]


def test_render_latex_shapes():
    f = (
        monomial(E, (6,), 54)
        + monomial(E, (5, 1), 16)
        + monomial(E, (4, 2), 26)
        + monomial(E, (2, 2, 2), 2)
    )
    assert render_latex(f) == "54e_6+16e_{51}+26e_{42}+2e_{222}"
    assert render_text(f) == "54e_6 + 16e_{51} + 26e_{42} + 2e_{222}"


def test_render_edge_cases():
    assert render_latex(SymFunc.zero(E)) == "0"
    assert render_latex(monomial(E, (2,))) == "e_2"
    assert render_latex(monomial(E, (2,), -1)) == "-e_2"
    assert render_latex(monomial(E, (2, 1), -3) + monomial(E, (3,))) == "e_3-3e_{21}"
    assert render_text(monomial(E, (2, 1), -3) + monomial(E, (3,))) == "e_3 - 3e_{21}"
    assert render_latex(monomial(P, (3, 1), 2)) == "2p_{31}"
    assert render_latex(monomial(E, (), 5) + monomial(E, (1,), -1)) == "-e_1+5"


def test_render_large_parts_use_commas():
    f = monomial(E, (10,)) + monomial(E, (11, 2), 3)
    assert render_latex(f) == "3e_{11,2}+e_{10}"


def test_json_round_trip_and_determinism():
    f = (
        monomial(E, (4, 2), 26)
        + monomial(E, (6,), 54)
        + monomial(E, (2, 2, 2), 2)
        + monomial(E, (5, 1), 16)
    )
    d = to_json_dict(f)
    assert d == {
        "basis": "e",
        "terms": [[[6], 54], [[5, 1], 16], [[4, 2], 26], [[2, 2, 2], 2]],
    }
    assert from_json_dict(d) == f
    assert json.dumps(to_json_dict(f)) == json.dumps(to_json_dict(f))
    # construction order must not leak into the serialized form
    g = (
        monomial(E, (2, 2, 2), 2)
        + monomial(E, (5, 1), 16)
        + monomial(E, (6,), 54)
        + monomial(E, (4, 2), 26)
    )
    assert json.dumps(to_json_dict(g)) == json.dumps(to_json_dict(f))
