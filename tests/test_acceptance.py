"""Acceptance suite: eleven independent criteria, one test each.

Every test prints one PASS line (visible under pytest -s; under plain
pytest -v the per-test PASSED/FAILED line carries the same verdict).
All comparisons are exact integer equality; the timed criteria assert
their runtime budget as part of the pass condition.
"""

import itertools
import random
import time

from chromsym.cli import main
from chromsym.compositions import (
    chord_weight,
    compositions,
    surplus,
    split_params,
)
from chromsym.engine import (
    csf_cycle,
    csf_cycle_chord,
    csf_oracle,
    csf_path,
    csf_tadpole,
    scan_theta,
)
from chromsym.graphs import (
    Graph,
    count_proper_colorings,
    cycle_chord_graph,
    cycle_graph,
    multipath_graph,
    path_graph,
    stable_partition_types,
    tadpole_graph,
    theta_graph,
    is_nice,
)
from chromsym.symfunc import is_e_positive, principal_specialization
from reference import (
    check_triple_deletion,
    chord_weight_by_segments,
    csf_cycle_chord_signed,
    deficiency,
    reverse,
    triple_split_graphs,
)


def _report(num: int, label: str, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} overran its {budget}s budget: {elapsed:.2f}s"
        )
        print(f"criterion {num:2d} PASS ({elapsed:.2f}s < {budget:g}s): {label}")
    else:
        print(f"criterion {num:2d} PASS ({elapsed:.2f}s): {label}")


def _family_sweep():
    """The graphs of criterion 2, with their closed-form functions."""
    for n in range(1, 15):
        yield path_graph(n), csf_path(n)
    for n in range(3, 15):
        yield cycle_graph(n), csf_cycle(n)
    for m in range(3, 15):
        for tail in range(0, 15 - m):
            yield tadpole_graph(m, tail), csf_tadpole(m, tail)
    for a in range(2, 13):
        for b in range(2, 15 - a):
            yield cycle_chord_graph(a, b), csf_cycle_chord(a, b)


def test_criterion_01_worked_example_exact(capsys):
    started = time.perf_counter()
    assert main(["csf", "cc:3,3", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert out == "54e_6+16e_{51}+26e_{42}+2e_{222}\n"
    with capsys.disabled():
        _report(1, "csf cc:3,3 prints the exact degree-6 expansion", started, 1.0)


def test_criterion_02_formulas_match_oracle():
    started = time.perf_counter()
    checked = 0
    for graph, formula in _family_sweep():
        assert formula == csf_oracle(graph), graph
        checked += 1
    assert checked == 14 + 12 + 78 + 66
    _report(2, f"{checked} family graphs agree with the edge-subset oracle", started, 30.0)


def test_criterion_03_chord_extreme_coefficients():
    started = time.perf_counter()
    for a in range(2, 9):
        for b in range(a, 9):
            n = a + b
            x = csf_cycle_chord(a, b)
            assert x.coefficient((n,)) == a * b * n, (a, b)
            assert x.coefficient((n - 1, 1)) == (a - 1) * (b - 1) * (n - 2), (a, b)
    _report(3, "leading coefficients follow the closed products for a <= b <= 8", started, 10.0)


def test_criterion_04_signed_route_equals_case_split():
    started = time.perf_counter()
    for a in range(2, 9):
        for b in range(2, 11 - a):
            assert csf_cycle_chord_signed(a, b) == csf_cycle_chord(a, b), (a, b)
    _report(4, "alternating-sum coefficients give the same expansions", started)


def test_criterion_05_chord_weight_two_interpretations():
    started = time.perf_counter()
    cases = 0
    for n in range(4, 13):
        for comp in compositions(n):
            for b in range(2, n - 1):
                value = chord_weight(comp, b)
                assert value == chord_weight_by_segments(comp, b), (comp, b)
                assert value >= 0
                cases += 1
    assert cases > 20000
    _report(5, f"case-split and segment routes agree on {cases} (I, b) pairs", started, 10.0)


def test_criterion_06_split_coupling_invariants():
    started = time.perf_counter()
    for n in range(4, 13):
        for comp in compositions(n):
            z = len(comp)
            i1 = comp[0]
            for b in range(2, n - 1):
                p, s, q, t = split_params(comp, b)
                a = n - b
                # clause 1: the rotated index lags by at most one part
                assert q >= p - 1
                assert sum(comp[p - 1:q]) + t == i1 + s
                # clause 2: four equivalent descriptions of the lag case
                lag = q == p - 1
                assert lag == (t == i1 + s)
                assert lag == (comp[q % z] - t == comp[p - 1] - s - i1)
                assert lag == (i1 <= comp[p - 1] - s)
                # clause 3: leftover inside part p is a reversed deficiency
                assert comp[p - 1] - s == deficiency(reverse(comp), a)
                # clause 4: tail identity and its endpoint characterization
                assert a - i1 == sum(comp[q:]) - t
                assert (q == z) == (t == i1 - a)
                assert (q == z) == (i1 > a)
    _report(6, "all four split-parameter clauses hold for n <= 12", started)


def test_criterion_07_surplus_deficiency_duality():
    started = time.perf_counter()
    for n in range(1, 13):
        for comp in compositions(n):
            rev = reverse(comp)
            for a in range(0, n + 1):
                assert deficiency(comp, a) == surplus(rev, n - a), (comp, a)
    _report(7, "deficiency mirrors surplus of the reversed composition", started)


def test_criterion_08_triple_deletion_identities():
    started = time.perf_counter()
    rng = random.Random(20250816)
    done = 0
    while done < 50:
        n = rng.randrange(4, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        graph = Graph(n, tuple(edges))
        trios = [
            trio
            for trio in itertools.combinations(range(n), 3)
            if not any(pair in graph.edges for pair in itertools.combinations(trio, 2))
        ]
        if not trios:
            continue
        assert check_triple_deletion(graph, *trios[rng.randrange(len(trios))])
        done += 1
    # the chord recurrence instance: adding edges to the 6-path base
    # realizes the degenerate tadpoles and both chorded cycles
    base = path_graph(6)
    assert check_triple_deletion(base, 0, 3, 5)
    split = triple_split_graphs(base, 0, 3, 5)
    assert csf_oracle(split[frozenset({1, 2})]) == csf_cycle_chord(3, 3)
    assert csf_cycle_chord(3, 3) == (
        csf_cycle_chord(4, 2) + csf_tadpole(4, 2) - csf_tadpole(3, 3)
    )
    _report(8, "both identities hold on 50 random instances and the (3,3) recurrence", started)


def test_criterion_09_specialization_counts_colorings():
    started = time.perf_counter()
    for graph, formula in _family_sweep():
        for k in range(0, graph.n + 1):
            assert principal_specialization(formula, k) == count_proper_colorings(graph, k), (graph, k)
    _report(9, "expansions specialize to proper-coloring counts for k = 0..n", started)


def test_criterion_10_stable_partition_niceness():
    started = time.perf_counter()
    small = stable_partition_types(multipath_graph((2, 2, 2, 1)))
    assert (3, 1, 1) in small
    assert (2, 2, 1) not in small
    big = stable_partition_types(multipath_graph((2, 2, 2, 2)))
    assert (4, 2) in big
    assert (3, 3) not in big
    ok, witness = is_nice(multipath_graph((2, 2, 2, 1)))
    assert not ok and witness == ((3, 1, 1), (2, 2, 1))
    ok, witness = is_nice(multipath_graph((2, 2, 2, 2)))
    assert not ok and witness == ((4, 2), (3, 3))
    _report(10, "niceness fails with the exact dominance witnesses", started, 5.0)


def test_criterion_11_e_positivity_regression():
    started = time.perf_counter()
    for a in range(2, 9):
        for b in range(a, 9):
            # covers every theta with one unit path in the same range
            report = is_e_positive(csf_cycle_chord(a, b))
            assert report.positive, (a, b, report.witnesses)
    for b in range(2, 6):
        for a in range(b, 11 - b):
            x = csf_oracle(theta_graph(a, b, 2))
            assert is_e_positive(x).positive, (a, b, 2)
    # exploratory only: wider paths have no proven verdict, so the scan
    # rows are recorded without assertions
    recorded = [row for row in scan_theta(11) if row.c >= 3]
    for row in recorded:
        print(
            f"recorded theta {row.a},{row.b},{row.c}: "
            f"e-positive {row.e_positive}, min coeff {row.min_coeff}"
        )
    assert len(recorded) > 0
    _report(11, "chorded cycles and two-unit thetas are e-positive in range", started, 120.0)
