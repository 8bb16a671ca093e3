"""Unit tests for the formula evaluators, the chain transfer behind the
oracle and the theta scan, and the verification plumbing.

The oracle and the closed formulas share no code, so their agreement
on whole families is the load-bearing check; the oracle itself is
anchored by the subset-by-subset sum and the edge-by-edge transfer in
reference.py, by algebraic invariants (disjoint unions multiply) and,
in test_acceptance, by the independent coloring counter.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromsym.engine as engine
import chromsym.symfunc as symfunc
from chromsym.compositions import chord_weight, surplus
from chromsym.engine import (
    ThetaScanRow,
    check_conversion_table,
    csf_cycle,
    csf_cycle_chord,
    csf_oracle,
    csf_path,
    csf_tadpole,
    scan_theta,
    theta_scan_cells,
    verify,
)
from chromsym.graphs import (
    Family,
    Graph,
    GraphSpec,
    ResourceLimitError,
    build_graph,
    cycle_chord_graph,
    cycle_graph,
    multipath_graph,
    path_graph,
    tadpole_graph,
    theta_graph,
)
from chromsym.symfunc import Basis, SymFunc, p_to_e, render_latex
import reference
from reference import (
    aggregate_every_composition,
    check_triple_deletion,
    csf_by_edge_subsets,
    csf_by_edge_transfer,
    csf_cycle_chord_signed,
    cut_terms_by_splits,
    monomial,
    signed_chord_weight,
    triple_split_graphs,
)

REFERENCE_ROWS = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "scan_rows.jsonl"


def random_graph(rng, n, p=0.35):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, tuple(edges))


# ------------------------------------------------------------- formulas

def test_frozen_small_expansions():
    assert csf_path(1) == monomial(Basis.ELEMENTARY, (1,))
    assert csf_path(2) == monomial(Basis.ELEMENTARY, (2,), 2)
    assert csf_path(3) == monomial(Basis.ELEMENTARY, (2, 1)) + monomial(
        Basis.ELEMENTARY, (3,), 3
    )
    assert csf_cycle(2) == monomial(Basis.ELEMENTARY, (2,), 2)
    assert csf_cycle(3) == monomial(Basis.ELEMENTARY, (3,), 6)


def test_frozen_chord_expansion_degree_six():
    x = csf_cycle_chord(3, 3)
    assert render_latex(x) == "54e_6+16e_{51}+26e_{42}+2e_{222}"
    assert x.coefficient((6,)) == 54
    assert x.coefficient((5, 1)) == 16
    assert x.coefficient((4, 2)) == 26
    assert x.coefficient((2, 2, 2)) == 2
    assert x.coefficient((3, 3)) == 0
    assert x.coefficient((4, 1, 1)) == 0
    assert len(x.terms) == 4


def test_formula_domain_errors():
    with pytest.raises(ValueError):
        csf_path(0)
    with pytest.raises(ValueError):
        csf_cycle(1)
    with pytest.raises(ValueError):
        csf_tadpole(1, 2)
    with pytest.raises(ValueError):
        csf_tadpole(3, -1)
    with pytest.raises(ValueError):
        csf_cycle_chord(1, 4)
    with pytest.raises(ValueError):
        csf_cycle_chord_signed(0, 4)
    with pytest.raises(ValueError):
        csf_cycle_chord_signed(1, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_path_formula_matches_oracle(n):
    assert csf_path(n) == csf_oracle(path_graph(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_formula_matches_oracle(n):
    assert csf_cycle(n) == csf_oracle(cycle_graph(n))


def test_tadpole_formula_matches_oracle():
    for m in range(3, 8):
        for tail in range(0, 8 - m + 1):
            assert csf_tadpole(m, tail) == csf_oracle(tadpole_graph(m, tail)), (m, tail)


def test_cycle_chord_formula_matches_oracle():
    for a in range(2, 7):
        for b in range(2, 9 - a + 1):
            assert csf_cycle_chord(a, b) == csf_oracle(cycle_chord_graph(a, b)), (a, b)


def test_degenerate_reductions():
    for m in range(3, 9):
        assert csf_tadpole(m, 0) == csf_cycle(m)
    for tail in range(0, 6):
        assert csf_tadpole(2, tail) == csf_path(tail + 2)
    for n in range(3, 9):
        assert csf_cycle_chord_signed(n - 1, 1) == csf_cycle(n)
        assert csf_cycle_chord_signed(1, n - 1) == csf_cycle(n)


def test_cycle_chord_symmetric_in_arcs():
    for a in range(2, 7):
        for b in range(a, 9 - a + 1):
            assert csf_cycle_chord(a, b) == csf_cycle_chord(b, a)


def test_signed_route_matches_case_split():
    for a in range(2, 7):
        for b in range(2, 10 - a + 1):
            assert csf_cycle_chord_signed(a, b) == csf_cycle_chord(a, b), (a, b)


@pytest.mark.parametrize("n", range(1, 15))
def test_screened_aggregate_equals_the_plain_sum(n):
    # _aggregate drops the zero-weight compositions before weighting
    # them; the reference weights every one.  Each family's coefficient,
    # and the signed chord coefficient, which can be negative, sees the
    # same sum either way.
    cases = [("path", csf_path(n), lambda comp: 1)]
    if n >= 2:
        cases.append(("cycle", csf_cycle(n), lambda comp: comp[0] - 1))
    for m in range(2, n + 1):
        cases.append((("tadpole", m), csf_tadpole(m, n - m),
                      lambda comp, a=n - m + 1: surplus(comp, a)))
    for b in range(2, n - 1):
        cases.append((("cc", b), csf_cycle_chord(n - b, b),
                      lambda comp, b=b: chord_weight(comp, b)))
    for b in range(1, n if n >= 3 else 1):
        cases.append((("signed", b), csf_cycle_chord_signed(n - b, b),
                      lambda comp, b=b: signed_chord_weight(comp, b)))
    for label, screened, coeff in cases:
        assert screened == aggregate_every_composition(n, coeff), label


def test_signed_chord_weight_telescopes():
    # single compositions where the telescoped coefficient differs from
    # the nonnegative one only in intermediate values, never in the sum
    # over a shape class
    assert signed_chord_weight((2, 4), 3) + signed_chord_weight((4, 2), 3) == 6
    with pytest.raises(ValueError):
        signed_chord_weight((2, 4), 0)
    with pytest.raises(ValueError):
        signed_chord_weight((2, 4), 6)


def test_leading_coefficients_closed_forms():
    for a in range(2, 7):
        for b in range(a, 7):
            n = a + b
            x = csf_cycle_chord(a, b)
            assert x.coefficient((n,)) == a * b * n, (a, b)
            assert x.coefficient((n - 1, 1)) == (a - 1) * (b - 1) * (n - 2), (a, b)


def test_theta_collapses_to_chorded_cycle():
    # one path of length 1 makes the theta graph a chorded cycle
    for a in range(2, 5):
        for b in range(2, 5):
            assert csf_oracle(theta_graph(a, b, 1)) == csf_cycle_chord(a, b)


# --------------------------------------------------------------- oracle

def test_oracle_tiny_graphs():
    E = Basis.ELEMENTARY
    assert csf_oracle(Graph(1, ())) == monomial(E, (1,))
    assert csf_oracle(Graph(2, ((0, 1),))) == monomial(E, (2,), 2)
    assert csf_oracle(Graph(3, ())) == monomial(E, (1, 1, 1))


def test_oracle_multiplies_over_disjoint_union():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(1, 5))
        h = random_graph(rng, rng.randrange(1, 5))
        merged = Graph(
            g.n + h.n,
            g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges),
        )
        assert csf_oracle(merged) == csf_oracle(g) * csf_oracle(h)


def test_oracle_respects_state_budget(monkeypatch):
    # the path on 7 vertices is one chain, which leaves the 15 partitions
    # of 7 as live terms
    g = path_graph(7)
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 14)
    with pytest.raises(ResourceLimitError, match="14 live states, chain 1 of 1 left 15"):
        csf_oracle(g)
    # and the budget is inclusive
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 15)
    assert csf_oracle(g) == csf_path(7)


def test_oracle_counts_terms_as_they_are_made(monkeypatch):
    # theta(5,5,4) peaks at 121 live terms, made by its second chain; a
    # budget of 60 stops that chain partway, not at the end of the step
    g = theta_graph(5, 5, 4)
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 60)
    with pytest.raises(ResourceLimitError) as exc:
        csf_oracle(g)
    assert str(exc.value) == "oracle transfer capped at 60 live states, chain 2 of 3 left 68"
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 121)
    assert csf_oracle(g) == csf_by_edge_transfer(g)


def test_oracle_counts_a_shared_target_once_and_keeps_its_order(monkeypatch):
    # in both graphs some chain has kept and cut terms with one target
    # labelling, so they land in one dict: the count reads it once, and
    # the kept term is written after the cut terms, an order the next
    # chain's refusal point depends on
    tadpole = tadpole_graph(7, 5)
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 76)
    with pytest.raises(ResourceLimitError) as exc:
        csf_oracle(tadpole)
    assert str(exc.value) == "oracle transfer capped at 76 live states, chain 2 of 2 left 77"
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 77)
    assert csf_oracle(tadpole) == csf_tadpole(7, 5)
    edges = ((0, 1), (0, 4), (0, 6), (2, 6), (3, 5), (3, 6), (4, 5))
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 5)
    with pytest.raises(ResourceLimitError) as exc:
        csf_oracle(Graph(7, edges))
    assert str(exc.value) == "oracle transfer capped at 5 live states, chain 3 of 4 left 12"


def _ladder(rungs: int) -> Graph:
    # the graph of an edges: spec, two rails of rungs vertices joined
    # rung by rung
    top = [(v, v + 1) for v in range(rungs - 1)]
    return Graph(2 * rungs, top + [(u + rungs, v + rungs) for u, v in top]
                 + [(v, v + rungs) for v in range(rungs)])


def test_kept_closing_cut_terms_change_no_result_and_no_refusal(monkeypatch):
    # every chain step's cut terms outlive the call that built them, keyed
    # by width, r, one block or two and the slots the end blocks move to,
    # but not by n: every graph agrees with the table-free reference
    # whichever graphs warmed the store, ascending by n and then
    # descending, across n and across the width's step from 4 to 5 bits
    # at n = 16; paths and cycles have one chain with fresh ends, a
    # tadpole's loop keeps its one block open for the tail, chorded cycles
    # and glambda graphs add chains between two hubs, the ladders'
    # frontiers reach slot 2, and the 7-vertex graph merges two open
    # blocks into either one's slot; the pinned refusals above still stop
    # at the same term on a warm store
    monkeypatch.setattr(engine, "_KEPT_CUTS", {})
    graphs = [theta_graph(*cell) for cell in theta_scan_cells(17)]
    graphs += [make(n) for n in range(3, 13) for make in (path_graph, cycle_graph)]
    graphs += [tadpole_graph(m, t) for m in (3, 5, 8) for t in (1, 4, 7)]
    graphs += [cycle_chord_graph(a, b) for a, b in [(2, 3), (4, 4), (6, 3), (9, 7)]]
    graphs += [multipath_graph(lengths) for lengths in [(2, 3, 4, 1), (3, 3, 5, 5), (6, 4, 3, 2)]]
    graphs += [_ladder(rungs) for rungs in (3, 5, 8)]
    graphs.append(Graph(7, ((0, 2), (0, 4), (0, 5), (1, 3), (1, 6), (2, 3), (2, 6),
                            (3, 4), (3, 5), (3, 6), (4, 5), (5, 6))))
    graphs.sort(key=lambda g: g.n)
    expected = {g: csf_by_edge_transfer(g) for g in graphs}
    place, slots = engine._place, set()

    def placed(size, slot, base, w):
        slots.add(slot)
        return place(size, slot, base, w)

    monkeypatch.setattr(engine, "_place", placed)
    for g in [*graphs, *reversed(graphs)]:
        assert csf_oracle(g) == expected[g], g
    assert {2, None} <= slots
    assert sorted(engine._KEPT_CUTS) == [2, 3, 4, 5]
    shapes = [shape for _, _, store in engine._KEPT_CUTS.values() for shape in store]
    assert any(nm is not None for *_, nm in shapes)
    for graph, budget, left in [
        (tadpole_graph(7, 5), 76, "chain 2 of 2 left 77"),
        (Graph(7, ((0, 1), (0, 4), (0, 6), (2, 6), (3, 5), (3, 6), (4, 5))), 5,
         "chain 3 of 4 left 12"),
    ]:
        monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", budget)
        with pytest.raises(ResourceLimitError) as exc:
            csf_oracle(graph)
        assert str(exc.value) == f"oracle transfer capped at {budget} live states, {left}"
    monkeypatch.setattr(engine, "_ORACLE_MAX_STATES", 77)
    assert csf_oracle(tadpole_graph(7, 5)) == csf_tadpole(7, 5)


def test_oracle_caps_the_free_middle_tables(monkeypatch):
    # a chain of r inner vertices reads A_0, ..., A_r, and the table
    # refuses the first A_r past p_to_e's budget before any chain step:
    # under a budget of p(9) = 30, the path on 11 vertices (9 inner)
    # reaches its chain steps, and the path on 12 (10 inner) is refused
    # at A_10, which has p(10) = 42 entries and is not kept
    class Stepped(Exception):
        pass

    def cut_terms(*args):
        raise Stepped

    monkeypatch.setattr(symfunc, "_P_TO_E_MAX_TERMS", 30)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    with monkeypatch.context() as steps:
        steps.setattr(engine, "_cut_terms", cut_terms)
        with pytest.raises(Stepped):
            csf_oracle(path_graph(11))
        with pytest.raises(ResourceLimitError) as exc:
            csf_oracle(path_graph(12))
    assert str(exc.value) == "p_to_e capped at 30 accumulator terms, the image of p_10 has 42"
    assert len(symfunc._TABLES[symfunc._width(12)][0]) == 10
    # the transfer takes the path on 11, and its conversion meets A_10
    assert csf_oracle(path_graph(9)) == csf_path(9)
    with pytest.raises(ResourceLimitError, match="the image of p_10 has 42$"):
        csf_oracle(path_graph(11))


@pytest.mark.parametrize("lengths", [(5, 3, 2), (2, 7, 3), (6, 3, 2, 1), (3, 3, 3, 3, 6)])
def test_spec_chain_check_gives_the_oracle_refusal(lengths, monkeypatch):
    # the spec check grows the table to A_n, as converting the built
    # graph's function does: a budget of p(n) passes both, and one short
    # of it refuses both with one message
    spec = GraphSpec(Family.MULTIPATH, lengths)
    n = build_graph(spec).n
    w = symfunc._width(n)
    size = len(symfunc._arrangement_table(w, n)[n])
    monkeypatch.setattr(symfunc, "_P_TO_E_MAX_TERMS", size)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    check_conversion_table(spec)
    assert csf_oracle(build_graph(spec)) == csf_by_edge_transfer(build_graph(spec))
    monkeypatch.setattr(symfunc, "_P_TO_E_MAX_TERMS", size - 1)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    with pytest.raises(ResourceLimitError) as early:
        check_conversion_table(spec)
    assert len(symfunc._TABLES[w][0]) == n
    monkeypatch.setattr(symfunc, "_TABLES", {})
    with pytest.raises(ResourceLimitError) as built:
        csf_oracle(build_graph(spec))
    assert str(early.value) == str(built.value) == (
        f"p_to_e capped at {size - 1} accumulator terms, the image of p_{n} has {size}"
    )


def test_oracle_crosses_block_boundary():
    # skipping all 14 edges leaves fifteen parts of size 1, which fill
    # the 4-bit digit of the packed multiset exactly; one bit fewer and
    # the count would carry into the digit for parts of size 2
    g = path_graph(15)
    assert csf_oracle(g) == csf_path(15)


@st.composite
def small_graphs(draw):
    """Simple graphs on at most 9 vertices with at most 14 edges;
    isolated vertices and several components are allowed."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, ())
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    return Graph(n, tuple(edges))


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_oracle_matches_edge_subset_sum(g):
    assert csf_oracle(g) == csf_by_edge_subsets(g)


@st.composite
def chained_graphs(draw):
    """Disjoint unions of up to four parts under a random vertex
    numbering, at most 16 vertices in all.  A part is an isolated
    vertex, a pure cycle, a path, or a random core on up to five
    vertices with pendant paths and loops (cycles through one core
    vertex) hung off it."""
    edges: set[tuple[int, int]] = set()
    n = 0

    def hang(anchor, count, loop):
        # count new vertices in a row from anchor, closed back to it for a loop
        nonlocal n
        prev = anchor
        for v in range(n, n + count):
            edges.add((prev, v))
            prev = v
        n += count
        if loop:
            edges.add((anchor, prev))

    for _ in range(draw(st.integers(1, 4))):
        room = 16 - n
        if room == 0:
            break
        kind = draw(st.sampled_from(["isolated", "cycle", "path", "core"]))
        n += 1
        if kind == "cycle" and room >= 3:
            hang(n - 1, draw(st.integers(2, min(room, 7) - 1)), loop=True)
        elif kind == "path" and room >= 2:
            hang(n - 1, draw(st.integers(1, min(room, 7) - 1)), loop=False)
        elif kind == "core":
            first = n - 1
            n += draw(st.integers(0, min(room, 5) - 1))
            pairs = [(u, v) for u in range(first, n) for v in range(u + 1, n)]
            if pairs:
                edges.update(draw(st.lists(st.sampled_from(pairs), max_size=6)))
            for _ in range(draw(st.integers(0, 2))):
                loop = draw(st.booleans())
                room = 16 - n
                if room < 1 + loop:
                    break
                anchor = draw(st.integers(first, n - 1))
                hang(anchor, draw(st.integers(1 + loop, min(room, 4))), loop)
    perm = draw(st.permutations(range(n)))
    return Graph(n, tuple((perm[u], perm[v]) for u, v in sorted(edges)))


@settings(max_examples=150, deadline=None)
@given(chained_graphs())
def test_oracle_matches_edge_by_edge_transfer(g):
    assert csf_oracle(g) == csf_by_edge_transfer(g)


@pytest.mark.parametrize("r", range(7))
@pytest.mark.parametrize("slots", [(0,), (None,), (0, 1), (None, None), (2, None), (None, 1)],
                         ids=["open", "closing", "both-open", "both-closing", "open-closing",
                              "closing-open"])
def test_cut_terms_match_placing_both_ends_per_split(r, slots):
    # each end's offsets placed once per call give the terms of placing
    # them anew for every split, once cancelled terms are dropped
    n = 16
    w = symfunc._width(n)
    free = symfunc._arrangement_table(w, r)
    for sizes in itertools.product(range(1, 4), repeat=len(slots)):
        args = (sizes, slots, r, free, n * w, w)
        fast, slow = engine._cut_terms(*args), cut_terms_by_splits(*args)
        assert {k: c for k, c in fast.items() if c} == {k: c for k, c in slow.items() if c}, sizes


def test_chains_of_a_graph():
    # a triangle with a pendant path of two edges, a 4-cycle, and an
    # isolated vertex: branch vertices 0 (degree 3), 4 (degree 1), the
    # cycle's least vertex 5, and 9 (degree 0)
    g = Graph(10, ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (5, 6), (6, 7), (7, 8), (5, 8)))
    assert engine._graph_chains(g) == [(0, 0, 2), (0, 4, 1), (5, 5, 3)]
    # a multipath graph's chains are its paths, shortest first
    g = multipath_graph((3, 1, 2))
    assert engine._graph_chains(g) == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]


# ---------------------------------------------------- multipath transfer

@st.composite
def multipath_lengths(draw):
    """One to five path lengths, at most 14 edges, at most one unit path."""
    unit = draw(st.booleans())
    count = draw(st.integers(0 if unit else 1, 5 - unit))
    budget = 14 - unit
    lengths = [1] if unit else []
    for left in range(count, 0, -1):
        length = draw(st.integers(2, budget - 2 * (left - 1)))
        lengths.append(length)
        budget -= length
    return draw(st.permutations(lengths))


@settings(max_examples=80, deadline=None)
@given(multipath_lengths())
def test_multipath_transfer_matches_oracle(lengths):
    g = multipath_graph(lengths)
    assert csf_oracle(g) == csf_by_edge_transfer(g)


@pytest.mark.parametrize("cell", [(9, 8, 8), (11, 10, 5), (10, 9, 8)])
def test_oracle_runs_past_the_old_edge_cap(cell):
    # 25 to 27 edges, past what a 2**m subset loop could take
    assert csf_oracle(theta_graph(*cell)) == csf_by_edge_transfer(theta_graph(*cell))


def test_multipath_transfer_covers_theta_cells():
    # every scan cell up to 16 vertices, across the change of the packed
    # keys' digit width from 4 to 5 bits at n = 16
    for a, b, c in theta_scan_cells(16):
        g = theta_graph(a, b, c)
        x = csf_oracle(g)
        assert x == csf_by_edge_transfer(g), (a, b, c)
        if c == 1:
            assert x == csf_cycle_chord(a, b), (a, b)


def test_free_path_power_sums_match_composition_formula():
    w = symfunc._width(12)
    table = symfunc._arrangement_table(w, 12)
    for r in range(1, 13):
        path = SymFunc(Basis.POWERSUM, symfunc._unpacked(table[r], w))
        assert p_to_e(path) == csf_path(r)


def test_transfer_and_conversion_share_one_arrangement_table(monkeypatch):
    # a wrong entry planted in the shared table reaches both users, so a
    # second copy of the table cannot come back unnoticed; the
    # edge-by-edge reference reads no table, so it keeps the honest sum
    for module in engine, reference:  # keep both routes' p-basis sums
        monkeypatch.setattr(module, "p_to_e", lambda f: f)
    g = multipath_graph((4, 2, 2))
    # one chain of 3 inner vertices whose ends both retire: its cut terms
    # are kept across calls, and must be dropped with the table they read
    path = path_graph(5)
    for graph in g, path:
        assert csf_oracle(graph) == csf_by_edge_transfer(graph)
    w = symfunc._width(g.n)
    assert symfunc._width(path.n) == w
    table = symfunc._arrangement_table(w, 3)
    honest_image = symfunc._image_table(w, 3)[3]
    three = symfunc._pack((3,), w)
    planted = [*table[:3], {**table[3], three: table[3][three] + 1}]
    monkeypatch.setattr(symfunc, "_TABLES", {w: (planted, [{0: 1}])})
    assert csf_oracle(g) != csf_by_edge_transfer(g)
    assert csf_oracle(path) != csf_by_edge_transfer(path)
    assert symfunc._image_table(w, 3)[3] != honest_image


def test_kept_closing_cut_terms_stay_within_the_conversion_budget(monkeypatch):
    # the kept cut terms share p_to_e's budget, one count per width: under
    # a budget of 40 the scan to 9 vertices clears the store on the way,
    # and its rows stay the reference rows; a tadpole's open loop step
    # then builds 45 terms, which are used but never kept
    monkeypatch.setattr(symfunc, "_P_TO_E_MAX_TERMS", 40)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    monkeypatch.setattr(engine, "_KEPT_CUTS", {})
    cut_terms, built = engine._cut_terms, []

    def held() -> dict[int, int]:
        now = {w: sum(len(offs) for builds in store.values() for _, offs, _ in builds.values())
               for w, (_, _, store) in engine._KEPT_CUTS.items()}
        assert now == {w: entry[1] for w, entry in engine._KEPT_CUTS.items()}
        assert all(terms <= 40 for terms in now.values())
        return now

    def counted(*args):
        held()  # between any two builds, not only between calls
        terms = cut_terms(*args)
        built.append(sum(1 for f in terms.values() if f))
        return terms

    monkeypatch.setattr(engine, "_cut_terms", counted)
    with open(REFERENCE_ROWS, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    seen: list[dict[int, int]] = []
    rows = []
    for row in scan_theta(9):
        rows.append(row.to_json())
        seen.append(held())
    assert rows == expected[:len(rows)]
    assert max(built) <= 40
    assert any(now.get(w, 0) < seen[i].get(w, 0) for i, now in enumerate(seen[1:]) for w in now)
    assert csf_oracle(tadpole_graph(8, 1)) == csf_tadpole(8, 1)
    assert max(built) == 45
    held()


def test_multipath_transfer_rejects_what_the_builder_rejects():
    for lengths in [(), (3, 0), (1, 1, 2)]:
        with pytest.raises(ValueError):
            multipath_graph(lengths)


# --------------------------------------------------------- verification

def test_verify_cycle_chord_spec():
    report = verify(GraphSpec(Family.CYCLE_CHORD, (3, 3)))
    assert report.passed
    assert report.equal is True
    assert report.colorings_match
    assert report.e_positivity.positive
    assert report.e_positivity_expected
    assert report.formula == report.oracle
    assert set(report.timings) == {"oracle", "formula", "colorings"}


def test_verify_degenerate_chord_uses_cycle_formula():
    report = verify(GraphSpec(Family.CYCLE_CHORD, (1, 4)))
    assert report.passed and report.equal is True
    assert report.formula == csf_cycle(5)


def test_verify_theta_specs():
    short = verify(GraphSpec(Family.THETA, (3, 2, 1)))
    assert short.passed and short.equal is True
    assert short.formula == csf_cycle_chord(3, 2)
    assert short.e_positivity_expected

    open_case = verify(GraphSpec(Family.THETA, (3, 3, 3)))
    assert open_case.formula is None and open_case.equal is None
    assert not open_case.e_positivity_expected
    assert open_case.colorings_match
    assert open_case.passed


def test_verify_multipath_reductions():
    single = verify(GraphSpec(Family.MULTIPATH, (4,)))
    assert single.equal is True and single.formula == csf_path(5)
    double = verify(GraphSpec(Family.MULTIPATH, (3, 2)))
    assert double.equal is True and double.formula == csf_cycle(5)
    quad = verify(GraphSpec(Family.MULTIPATH, (2, 2, 2, 2)))
    assert quad.formula is None
    assert not quad.e_positivity_expected
    assert quad.passed


def test_verify_explicit_edges():
    spec = GraphSpec(Family.EDGES, (4,), ((0, 1), (1, 2), (2, 3), (0, 3)))
    report = verify(spec)
    assert report.formula is None and report.equal is None
    assert report.oracle == csf_cycle(4)
    assert report.colorings_match
    assert report.passed


# ------------------------------------------------------- triple deletion

def test_triple_deletion_on_recurrence_instance():
    # base path 0-1-2-3-4-5 with linking vertices 0, 3, 5: adding the
    # first two edges builds the chorded cycle with arcs (3, 3)
    base = path_graph(6)
    assert check_triple_deletion(base, 0, 3, 5)
    split = triple_split_graphs(base, 0, 3, 5)
    assert csf_oracle(split[frozenset({1, 2})]) == csf_cycle_chord(3, 3)
    assert csf_oracle(split[frozenset({1})]) == csf_tadpole(4, 2)
    assert csf_oracle(split[frozenset({2, 3})]) == csf_cycle_chord(4, 2)
    assert csf_oracle(split[frozenset({3})]) == csf_tadpole(3, 3)


def test_chord_recurrence_on_formulas():
    for a in range(2, 6):
        for b in range(2, 6):
            lhs = csf_cycle_chord(a, b)
            rhs = (
                csf_cycle_chord(a + 1, b - 1)
                + csf_tadpole(a + 1, b - 1)
                - csf_tadpole(b, a)
                if b >= 3
                else None
            )
            if b >= 3:
                assert lhs == rhs, (a, b)


def test_triple_deletion_random_instances():
    rng = random.Random(88)
    found = 0
    while found < 12:
        g = random_graph(rng, rng.randrange(4, 8))
        trios = [
            (x, y, z)
            for x in range(g.n)
            for y in range(x + 1, g.n)
            for z in range(y + 1, g.n)
            if not {(x, y), (x, z), (y, z)} & set(g.edges)
        ]
        if not trios:
            continue
        trio = trios[rng.randrange(len(trios))]
        assert check_triple_deletion(g, *trio), (g, trio)
        found += 1


# ------------------------------------------------------------ theta scan

def test_theta_scan_cells_domain():
    cells = theta_scan_cells(7)
    assert cells[0] == (2, 2, 1)
    assert (2, 1, 1) not in cells
    assert all(a >= b >= c >= 1 for a, b, c in cells)
    assert all(not (b == 1 and c == 1) for a, b, c in cells)
    assert all(4 <= a + b + c - 1 <= 7 for a, b, c in cells)
    # ordered by vertex count, then lexicographic
    keys = [(a + b + c - 1, (a, b, c)) for a, b, c in cells]
    assert keys == sorted(keys)
    assert theta_scan_cells(3) == []


def test_scan_rows_first_values():
    rows = list(scan_theta(5))
    assert [r.cell() for r in rows] == [(2, 2, 1), (2, 2, 2), (3, 2, 1)]
    assert all(r.e_positive for r in rows)
    assert rows[0].n == 4 and rows[1].n == 5
    assert rows[1].min_coeff == 1 and rows[1].min_coeff_shape == (2, 2, 1)


def test_scan_row_json_round_trip():
    row = ThetaScanRow(4, 3, 2, 8, True, 7, (4, 3, 1))
    assert ThetaScanRow.from_json(row.to_json()) == row
    with pytest.raises(ValueError):
        ThetaScanRow.from_json('{"schema": 99}')


@pytest.mark.parametrize("field, value", [
    ("a", "4"),
    ("c", True),
    ("min_coeff", 7.0),
    ("min_coeff_shape", [4, 3, "1"]),
    ("min_coeff_shape", "431"),
    ("e_positive", "no"),
    ("e_positive", 1),
    ("n", 40),
    ("min_coeff_shape", [4, 3, 2]),
    ("e_positive", False),
    ("min_coeff", -7),
    ("min_coeff", 0),
    ("min_coeff_shape", [0, 8]),
    ("min_coeff_shape", [1, 7]),
    ("min_coeff_shape", [9, -1]),
    ("min_coeff_shape", [4, 0, 4]),
])
def test_scan_row_rejects_what_no_scan_writes(field, value):
    # wrong types, a vertex count or shape that does not fit the cell,
    # a shape that is not a partition, and a verdict that contradicts
    # the minimal coefficient
    data = json.loads(ThetaScanRow(4, 3, 2, 8, True, 7, (4, 3, 1)).to_json())
    with pytest.raises(ValueError):
        ThetaScanRow.from_json(json.dumps({**data, field: value}))


@pytest.mark.parametrize("cell", [(3, 4, 2), (4, 2, 3), (2, 3, 4), (7, 1, 1), (5, 4, 0)])
def test_scan_row_rejects_a_cell_no_scan_lists(cell):
    # each sums to 9, so n = 8 and the shape fit; only the cell is wrong
    row = ThetaScanRow(*cell, 8, True, 7, (4, 3, 1))
    with pytest.raises(ValueError, match="is not a scan cell"):
        ThetaScanRow.from_json(row.to_json())


def test_scan_checkpoint_resume(tmp_path):
    ck = tmp_path / "scan.jsonl"
    first = list(scan_theta(7, checkpoint=str(ck)))
    body = ck.read_text()
    assert len(body.splitlines()) == len(first)
    second = list(scan_theta(7, checkpoint=str(ck)))
    assert second == first
    # resumed run recomputes nothing, so the file is untouched
    assert ck.read_text() == body
    # a longer scan picks up where the file left off
    third = list(scan_theta(8, checkpoint=str(ck)))
    assert third[: len(first)] == first
    assert len(ck.read_text().splitlines()) == len(third)


def test_scan_partial_interrupt_resume(tmp_path):
    ck = tmp_path / "scan.jsonl"
    it = scan_theta(7, checkpoint=str(ck))
    kept = [next(it) for _ in range(4)]
    it.close()
    assert len(ck.read_text().splitlines()) == 4
    resumed = list(scan_theta(7, checkpoint=str(ck)))
    assert resumed[:4] == kept
    assert resumed == list(scan_theta(7))


def test_scan_records_every_cell(tmp_path):
    # every cell takes the chain transfer, so none is held back
    ck = tmp_path / "scan.jsonl"
    rows = list(scan_theta(9, checkpoint=str(ck)))
    assert [r.cell() for r in rows] == theta_scan_cells(9)
    recorded = [ThetaScanRow.from_json(line) for line in ck.read_text().splitlines()]
    assert recorded == rows


def test_scan_parallel_matches_serial():
    serial = list(scan_theta(8))
    parallel = list(scan_theta(8, jobs=2))
    assert parallel == serial


def test_closing_parallel_scan_cancels_pending_cells():
    # the whole n <= 19 scan keeps two workers busy for about 7 seconds;
    # closing after one row only waits for the cells already running
    it = scan_theta(19, jobs=2)
    next(it)
    start = time.perf_counter()
    it.close()
    assert time.perf_counter() - start < 2.0
