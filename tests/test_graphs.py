"""Unit tests for the graph layer.

count_proper_colorings is the cross-check anchor for the whole
package, so it gets its own independent oracle here: literal
enumeration of all color assignments on small graphs.
"""

import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromsym.graphs as graphs
from chromsym.compositions import partitions, segment_dissection
from chromsym.engine import ThetaScanRow, verify
from chromsym.graphs import (
    Family,
    Graph,
    GraphSpec,
    ResourceLimitError,
    build_graph,
    chromatic_polynomial,
    count_proper_colorings,
    cycle_chord_graph,
    cycle_graph,
    is_nice,
    multipath_graph,
    path_graph,
    render_graph_spec,
    stable_partition_types,
    tadpole_graph,
    theta_graph,
)
from reference import (
    chromatic_polynomial_by_deletion_contraction,
    component_partition,
    triple_split_graphs,
)


# ---------------------------------------------------------------- oracles

def brute_color_count(graph, k):
    total = 0
    for coloring in itertools.product(range(k), repeat=graph.n):
        if all(coloring[u] != coloring[v] for u, v in graph.edges):
            total += 1
    return total


def random_graph(rng, n, p=0.4):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, tuple(edges))


# ------------------------------------------------------------ graph model

def test_graph_normalizes_edges():
    g = Graph(4, ((3, 1), (0, 2), (1, 0)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.m == 3
    assert (1, 3) in g.edges and (2, 3) not in g.edges


def test_graph_equality_is_structural():
    assert Graph(3, ((1, 0), (2, 1))) == Graph(3, ((1, 2), (0, 1)))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(0, ())


def test_adjacency_masks():
    g = Graph(4, ((0, 1), (1, 2), (1, 3)))
    assert g.adjacency_masks() == [0b0010, 0b1101, 0b0010, 0b0010]


# ----------------------------------------------------------- constructors

def test_path_and_cycle_shapes():
    assert path_graph(1) == Graph(1, ())
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(3).edges == ((0, 1), (0, 2), (1, 2))
    assert cycle_graph(5).m == 5
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_tadpole_shape():
    g = tadpole_graph(4, 2)
    assert g.n == 6 and g.m == 6
    assert (0, 4) in g.edges and (4, 5) in g.edges
    assert tadpole_graph(3, 0) == cycle_graph(3)
    with pytest.raises(ValueError):
        tadpole_graph(2, 1)
    with pytest.raises(ValueError):
        tadpole_graph(3, -1)


def test_cycle_chord_shape():
    g = cycle_chord_graph(2, 2)
    # every pair except {1, 3}
    assert g == Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
    assert cycle_chord_graph(3, 3).m == 7
    assert cycle_chord_graph(3, 3).n == 6


def test_cycle_chord_degenerate_arcs_drop_chord():
    assert cycle_chord_graph(1, 4) == cycle_graph(5)
    assert cycle_chord_graph(4, 1) == cycle_graph(5)
    assert cycle_chord_graph(5, 1) == cycle_graph(6)
    with pytest.raises(ValueError):
        cycle_chord_graph(0, 4)
    with pytest.raises(ValueError):
        cycle_chord_graph(1, 1)


def test_multipath_shape():
    g = multipath_graph((2, 2, 2, 1))
    assert g.n == 5 and g.m == 7
    assert multipath_graph((2, 1)) == cycle_graph(3)
    # order of lengths must not matter
    assert multipath_graph((1, 2, 3)) == multipath_graph((3, 2, 1))
    with pytest.raises(ValueError):
        multipath_graph(())
    with pytest.raises(ValueError):
        multipath_graph((3, 0))
    with pytest.raises(ValueError):
        multipath_graph((2, 1, 1))


def test_theta_shape():
    g = theta_graph(3, 2, 2)
    assert g.n == 3 + 2 + 2 - 1 and g.m == 3 + 2 + 2
    # hub degrees 3, internal degrees 2
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    assert sorted(degree, reverse=True) == [3, 3, 2, 2, 2, 2]
    # one path of length 1 collapses to a chorded cycle
    a = theta_graph(2, 2, 1)
    b = cycle_chord_graph(2, 2)
    assert (a.n, a.m) == (b.n, b.m)
    assert chromatic_polynomial(a) == chromatic_polynomial(b)


# --------------------------------------------------------------- specs

def test_graph_spec_canonicalizes_theta_params():
    assert GraphSpec(Family.THETA, (1, 3, 2)) == GraphSpec(Family.THETA, (3, 2, 1))
    assert GraphSpec(Family.CYCLE_CHORD, (2, 3)) != GraphSpec(Family.CYCLE_CHORD, (3, 2))


def test_build_graph_dispatch():
    assert build_graph(GraphSpec(Family.PATH, (4,))) == path_graph(4)
    assert build_graph(GraphSpec(Family.CYCLE, (5,))) == cycle_graph(5)
    assert build_graph(GraphSpec(Family.TADPOLE, (4, 2))) == tadpole_graph(4, 2)
    assert build_graph(GraphSpec(Family.CYCLE_CHORD, (3, 2))) == cycle_chord_graph(3, 2)
    assert build_graph(GraphSpec(Family.THETA, (3, 2, 2))) == theta_graph(3, 2, 2)
    assert build_graph(GraphSpec(Family.MULTIPATH, (2, 2, 2))) == multipath_graph((2, 2, 2))
    spec = GraphSpec(Family.EDGES, (4,), ((0, 1), (2, 3)))
    assert build_graph(spec) == Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        build_graph(GraphSpec(Family.PATH, (4, 5)))


def test_render_graph_spec():
    assert render_graph_spec(GraphSpec(Family.CYCLE_CHORD, (3, 3))) == "cc:3,3"
    assert render_graph_spec(GraphSpec(Family.THETA, (1, 2, 3))) == "theta:3,2,1"
    spec = GraphSpec(Family.EDGES, (4,), ((2, 3), (1, 0)))
    assert render_graph_spec(spec) == "edges:4;0-1,2-3"


def test_value_types_are_immutable():
    spec = GraphSpec(Family.THETA, (2, 2, 2))
    report = verify(spec)
    values = [
        (build_graph(spec), "n"),
        (spec, "params"),
        (graphs.FAMILIES[Family.THETA], "arity"),
        (report, "formula"),
        (report.e_positivity, "positive"),
        (segment_dissection((2, 2), 1), "window"),
        (ThetaScanRow(4, 3, 2, 8, True, 7, (4, 3, 1)), "min_coeff"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1


@pytest.mark.parametrize("bypass, message", [
    (lambda: Graph(3, [(0, 1)])._replace(edges=((0, 0), (5, 1))), "loops are not allowed: vertex 0"),
    (lambda: Graph._make((2, ((0, 7),))), "edge (0, 7) out of range for n=2"),
    (lambda: GraphSpec(Family.PATH, (3,))._replace(params=(0,)),
     "path needs at least one vertex, got 0"),
    (lambda: GraphSpec._make((Family.THETA, (2, 1, 1))), "at most one path may have length 1"),
    (lambda: GraphSpec(Family.EDGES, (3,), ((0, 2),))._replace(params=(2,)),
     "edge (0, 2) out of range for n=2"),
], ids=["graph-replace", "graph-make", "spec-replace", "spec-make", "edges-spec-replace"])
def test_replace_and_make_check_like_the_constructor(bypass, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bypass()


def test_a_valid_replace_equals_a_fresh_construction():
    g = Graph(3, [(0, 1)])._replace(edges=((2, 1), (1, 0)))
    assert g == Graph(3, ((0, 1), (1, 2))) and g.edges == ((0, 1), (1, 2))
    spec = GraphSpec(Family.THETA, (3, 2, 2))._replace(params=(1, 2, 3))
    assert spec == GraphSpec(Family.THETA, (3, 2, 1)) and spec.params == (3, 2, 1)
    for value in g, spec:
        assert pickle.loads(pickle.dumps(value)) == value
    theta = graphs.FAMILIES[Family.THETA]
    assert theta == graphs.FAMILIES[Family.MULTIPATH]._replace(arity=3)
    assert theta.arity == 3 and theta.path_lengths


def test_graph_spec_rejects_stray_edges():
    with pytest.raises(ValueError):
        GraphSpec(Family.PATH, (4,), ((0, 1),))


@pytest.mark.parametrize("n, edges, message", [
    (3, ((1, 1),), "loops are not allowed: vertex 1"),
    (3, ((0, 5),), "edge (0, 5) out of range for n=3"),
    (3, ((0, 1), (1, 0)), "duplicate edge (0, 1)"),
    (0, (), "graph needs at least one vertex, got n=0"),
])
def test_edges_spec_is_checked_when_made(n, edges, message):
    with pytest.raises(ValueError) as made:
        GraphSpec(Family.EDGES, (n,), edges)
    with pytest.raises(ValueError) as built:
        Graph(n, edges)
    assert str(made.value) == str(built.value) == message


# ------------------------------------------------------------- colorings

def test_component_partition():
    g = cycle_graph(5)
    assert component_partition(g, ()) == (1, 1, 1, 1, 1)
    assert component_partition(g, ((0, 1), (1, 2))) == (3, 1, 1)
    assert component_partition(g, g.edges) == (5,)
    with pytest.raises(ValueError):
        component_partition(g, ((0, 2),))


def test_component_partition_one_part_iff_connected():
    rng = random.Random(64)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 8))
        parts = component_partition(g, g.edges)
        # connectivity by direct search
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u, w in g.edges:
                for nxt in ((w,) if u == v else (u,) if w == v else ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        assert (len(parts) == 1) == (len(seen) == g.n)


def test_count_proper_colorings_known_formulas():
    for n in range(1, 8):
        g = path_graph(n)
        for k in range(0, 6):
            assert count_proper_colorings(g, k) == (k * (k - 1) ** (n - 1) if k else 0)
    for n in range(3, 8):
        g = cycle_graph(n)
        for k in range(0, 6):
            assert count_proper_colorings(g, k) == (k - 1) ** n + (-1) ** n * (k - 1)
    # complete graph on 4 vertices: falling factorial
    k4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
    for k in range(0, 7):
        assert count_proper_colorings(k4, k) == k * (k - 1) * (k - 2) * (k - 3)


def test_count_proper_colorings_against_brute_force():
    rng = random.Random(516)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 7))
        for k in range(0, 5):
            assert count_proper_colorings(g, k) == brute_color_count(g, k), g


def test_count_proper_colorings_domain():
    with pytest.raises(ValueError):
        count_proper_colorings(path_graph(2), -1)
    with pytest.raises(TypeError):
        count_proper_colorings(path_graph(2), 2.0)


def test_chromatic_polynomial_shape():
    rng = random.Random(1812)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 8))
        poly = chromatic_polynomial(g)
        assert len(poly) == g.n + 1
        assert poly[g.n] == 1
        assert poly[0] == 0
        # signs alternate from the top
        for i, c in enumerate(poly):
            assert c * (-1) ** (g.n - i) >= 0
    assert chromatic_polynomial(Graph(3, ())) == (0, 0, 0, 1)


def test_interleaved_colorings_match_brute_force():
    # the last polynomial is kept, so alternating graphs rebuilds each
    # one, and asking the same graph twice reuses it
    rng = random.Random(4242)
    family = [random_graph(rng, 7, p=0.5) for _ in range(6)]
    for k in range(4):
        for g in family:
            for _ in range(2):
                assert count_proper_colorings(g, k) == brute_color_count(g, k), g


def _container_sizes():
    # every module-level container of graphs, by name
    return {name: len(value) for name, value in vars(graphs).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))}


def test_chromatic_polynomial_keeps_no_memo_across_calls():
    before = _container_sizes()
    rng = random.Random(99)
    for _ in range(10):
        chromatic_polynomial(random_graph(rng, 8, p=0.5))
        assert chromatic_polynomial.cache_info().currsize <= 1
    assert _container_sizes() == before


def test_chromatic_memo_budget_is_a_resource_bound(monkeypatch):
    # the minors of a path with 11 edges are paths of 11, 10, ..., 1
    # edges, 66 edges in all
    g = path_graph(12)
    chromatic_polynomial.cache_clear()
    monkeypatch.setattr(graphs, "_CHROM_MAX_MEMO", 65)
    with pytest.raises(ResourceLimitError, match="65 edges in its memo, this graph needs more$"):
        chromatic_polynomial(g)
    monkeypatch.setattr(graphs, "_CHROM_MAX_MEMO", 66)
    assert count_proper_colorings(g, 3) == 3 * 2 ** 11
    # a graph with more edges than the budget forms no minor at all
    chromatic_polynomial.cache_clear()
    monkeypatch.setattr(graphs, "_CHROM_MAX_MEMO", 10)
    monkeypatch.setattr(graphs, "_minors", None)
    with pytest.raises(ResourceLimitError, match="10 edges in its memo, graph has 11$"):
        chromatic_polynomial(g)


def test_long_path_runs_within_the_memo_budget():
    # 699 edges, and 244 650 held in the memo
    g = path_graph(700)
    assert count_proper_colorings(g, 2) == 2
    assert count_proper_colorings(g, 3) == 3 * 2 ** 699


def test_verify_builds_the_chromatic_polynomial_once(monkeypatch):
    calls = 0
    real = graphs._minors

    def counting(key):
        nonlocal calls
        calls += 1
        return real(key)

    monkeypatch.setattr(graphs, "_minors", counting)
    spec = GraphSpec(Family.THETA, (3, 3, 2))
    chromatic_polynomial.cache_clear()
    chromatic_polynomial(build_graph(spec))
    once, calls = calls, 0
    chromatic_polynomial.cache_clear()
    assert verify(spec).passed
    assert calls == once > 0


@st.composite
def graphs_for_every_rule(draw):
    """A random core on up to six vertices, grown to at most 9 by
    pendant vertices (degree 1) and by subdividing edges (degree 2,
    neighbours not adjacent); the core's triangles give degree-2
    vertices with adjacent neighbours, and its dense parts vertices of
    degree 3 or more."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    while n < 9 and draw(st.booleans()):
        if edges and draw(st.booleans()):
            u, v = edges.pop(draw(st.integers(0, len(edges) - 1)))
            edges += [(u, n), (n, v)]
        else:
            edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return Graph(n, tuple(edges))


@settings(max_examples=150, deadline=None)
@given(graphs_for_every_rule())
def test_vertex_rules_match_deletion_contraction(g):
    assert chromatic_polynomial(g) == chromatic_polynomial_by_deletion_contraction(g)
    for k in range(4):
        assert count_proper_colorings(g, k) == brute_color_count(g, k)


def test_count_is_monotone_polynomial_of_degree_n():
    rng = random.Random(2024)
    for _ in range(12):
        g = random_graph(rng, rng.randrange(1, 7))
        counts = [count_proper_colorings(g, k) for k in range(g.n + 3)]
        assert counts == sorted(counts)
        # finite differences of order n + 1 vanish for a degree-n polynomial
        diffs = counts
        for _ in range(g.n + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert all(d == 0 for d in diffs), g


# ------------------------------------------------------ stable partitions

def test_stable_partition_types_extremes():
    free = Graph(4, ())
    assert stable_partition_types(free) == set(partitions(4))
    k4 = Graph(4, tuple(itertools.combinations(range(4), 2)))
    assert stable_partition_types(k4) == {(1, 1, 1, 1)}
    assert stable_partition_types(path_graph(3)) == {(2, 1), (1, 1, 1)}
    assert stable_partition_types(cycle_graph(3)) == {(1, 1, 1)}


def test_stable_partition_types_multipath_examples():
    assert stable_partition_types(multipath_graph((2, 2, 2, 1))) == {
        (3, 1, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    }
    types = stable_partition_types(multipath_graph((2, 2, 2, 2)))
    assert (4, 2) in types
    assert (3, 3) not in types


def test_stable_partition_types_against_brute_force():
    rng = random.Random(2718)

    def brute_types(g):
        found = set()
        vertices = list(range(g.n))
        # all set partitions via restricted growth strings
        def grow(i, blocks):
            if i == g.n:
                found.add(tuple(sorted((len(b) for b in blocks), reverse=True)))
                return
            v = vertices[i]
            for b in blocks:
                # b holds earlier vertices, so each pair is (w, v) with w < v
                if all((w, v) not in g.edges for w in b):
                    b.append(v)
                    grow(i + 1, blocks)
                    b.pop()
            blocks.append([v])
            grow(i + 1, blocks)
            blocks.pop()

        grow(0, [])
        return found

    # every shape of a graph shares one search, so sparse and dense
    # graphs on up to 8 vertices (Bell(8) = 4140 set partitions) check
    # shapes that reach the same sub-searches
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 9), p=rng.random())
        assert stable_partition_types(g) == brute_types(g), g


def test_stable_partition_search_keeps_no_memo_across_calls():
    before = _container_sizes()
    rng = random.Random(100)
    for _ in range(10):
        g = random_graph(rng, 9, p=0.3)
        stable_partition_types(g)
        is_nice(g)
    assert _container_sizes() == before


def test_stable_partition_types_resource_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        stable_partition_types(path_graph(13))
    # a higher cap unlocks bigger graphs
    monkeypatch.setattr(graphs, "_STABLE_MAX_VERTICES", 13)
    assert (13,) not in stable_partition_types(path_graph(13))


def test_is_nice_witnesses():
    ok, witness = is_nice(multipath_graph((2, 2, 2, 1)))
    assert not ok and witness == ((3, 1, 1), (2, 2, 1))
    ok, witness = is_nice(multipath_graph((2, 2, 2, 2)))
    assert not ok and witness == ((4, 2), (3, 3))
    for g in (path_graph(3), path_graph(5), cycle_graph(5), cycle_chord_graph(2, 3)):
        ok, witness = is_nice(g)
        assert ok and witness is None


# --------------------------------------------------------- triple linking

def test_triple_split_graphs_shapes():
    g = path_graph(6)
    split = triple_split_graphs(g, 0, 3, 5)
    assert len(split) == 8
    assert split[frozenset()] == g
    for key, h in split.items():
        assert h.m == g.m + len(key)
    assert (0, 3) in split[frozenset({1})].edges
    assert (0, 5) in split[frozenset({2})].edges
    assert (3, 5) in split[frozenset({3})].edges
    both = split[frozenset({1, 2})]
    assert (0, 3) in both.edges and (0, 5) in both.edges


def test_triple_split_graphs_validation():
    g = path_graph(6)
    with pytest.raises(ValueError):
        triple_split_graphs(g, 0, 0, 5)
    with pytest.raises(ValueError):
        triple_split_graphs(g, 0, 1, 3)
