"""Property tests over the family table: a spec is made exactly when
its family's builder builds, every row's spec survives the text
grammar, its closed formula (when it names one) equals the edge-subset
oracle exactly, a family whose e-positivity is established yields
an e-positive oracle, and every family but edges hands p_to_e a p_n
term on its n vertices."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromsym.engine as engine
import chromsym.symfunc as symfunc
from chromsym.cli import parse_graph_spec
from chromsym.compositions import partitions
from chromsym.engine import check_conversion_table, closed_formula, csf_oracle
from chromsym.graphs import (
    FAMILIES,
    Family,
    Graph,
    GraphSpec,
    ResourceLimitError,
    build_graph,
    cycle_chord_graph,
    cycle_graph,
    multipath_graph,
    path_graph,
    render_graph_spec,
    tadpole_graph,
    theta_graph,
)
from chromsym.symfunc import is_e_positive, p_to_e
from reference import component_partition


def _path_lengths(count):
    # at most one length-1 path, or the hub edge would repeat
    return st.lists(st.integers(1, 4), min_size=count, max_size=count).filter(
        lambda lengths: lengths.count(1) <= 1 and sum(lengths) <= 14
    )


@st.composite
def _edges_spec(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    return GraphSpec(Family.EDGES, (n,), tuple(chosen))


def _params(family, params):
    return params.map(lambda p: GraphSpec(family, tuple(p)))


# small valid parameters per row, kept to at most 14 edges for the oracle
SPECS = {
    Family.PATH: _params(Family.PATH, st.tuples(st.integers(1, 10))),
    Family.CYCLE: _params(Family.CYCLE, st.tuples(st.integers(3, 10))),
    Family.TADPOLE: _params(Family.TADPOLE, st.tuples(st.integers(3, 7), st.integers(0, 4))),
    Family.CYCLE_CHORD: _params(
        Family.CYCLE_CHORD,
        st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda ab: sum(ab) >= 3),
    ),
    Family.THETA: _params(Family.THETA, _path_lengths(3)),
    Family.MULTIPATH: _params(Family.MULTIPATH, st.integers(1, 4).flatmap(_path_lengths)),
    Family.EDGES: _edges_spec(),
}

specs = st.sampled_from(list(SPECS)).flatmap(SPECS.__getitem__)


# the public builders, called with raw ints as a library caller would
BUILDERS = {
    Family.PATH: lambda params, edges: path_graph(*params),
    Family.CYCLE: lambda params, edges: cycle_graph(*params),
    Family.TADPOLE: lambda params, edges: tadpole_graph(*params),
    Family.CYCLE_CHORD: lambda params, edges: cycle_chord_graph(*params),
    Family.THETA: lambda params, edges: theta_graph(*params),
    Family.MULTIPATH: lambda params, edges: multipath_graph(params),
    Family.EDGES: lambda params, edges: Graph(*params, edges),
}


def test_every_row_has_a_strategy():
    assert set(SPECS) == set(FAMILIES) == set(Family) == set(BUILDERS)


@st.composite
def _raw_spec(draw):
    # params from 0..6 at the row's arity, so that invalid ones occur;
    # an edges spec gets loops, repeats and edges out of range too
    family = draw(st.sampled_from(list(Family)))
    arity = FAMILIES[family].arity
    params = draw(st.lists(st.integers(0, 6), min_size=arity or 0, max_size=arity or 5))
    edges = []
    if FAMILIES[family].explicit_edges:
        edges = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6))
    return family, tuple(params), tuple(edges)


@settings(max_examples=400, deadline=None)
@given(_raw_spec())
def test_a_spec_is_made_exactly_when_its_builder_builds(raw):
    family, params, edges = raw
    try:
        graph = BUILDERS[family](params, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as made:
            GraphSpec(family, params, edges)
        assert str(made.value) == str(exc)
    else:
        assert build_graph(GraphSpec(family, params, edges)) == graph


@settings(max_examples=200, deadline=None)
@given(specs)
def test_spec_round_trips_through_text(spec):
    assert parse_graph_spec(render_graph_spec(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(specs)
def test_size_counts_the_built_graph(spec):
    graph = build_graph(spec)
    largest = component_partition(graph, graph.edges)[0]
    assert FAMILIES[spec.family].size(spec) == (graph.n, graph.m, largest)


@settings(max_examples=150, deadline=None)
@given(specs)
def test_formula_matches_oracle_and_positivity_holds(spec):
    oracle = csf_oracle(build_graph(spec))
    formula = closed_formula(spec)
    if formula is not None:
        assert formula == oracle
    if FAMILIES[spec.family].e_positive(spec.params):
        assert is_e_positive(oracle).positive


def _specs_up_to(n_max):
    """Every spec of a family other than edges with at most n_max
    vertices: fixed-arity params from 0..n_max, and glambda's path
    lengths as the partitions of up to n_max - 2 inner vertices, each
    part plus one, with or without one path of length 1."""
    specs = set()
    for family, row in FAMILIES.items():
        if row.explicit_edges:
            continue
        if row.arity is None:
            candidates = (
                tuple(p + 1 for p in mu) + ones
                for inner in range(n_max - 1)
                for mu in partitions(inner)
                for ones in ((), (1,))
            )
        else:
            candidates = itertools.product(range(n_max + 1), repeat=row.arity)
        for params in candidates:
            try:
                spec = GraphSpec(family, params)
            except ValueError:
                continue
            if row.size(spec)[0] <= n_max:
                specs.add(spec)
    return sorted(specs, key=render_graph_spec)


def _labelled_specs(n_max):
    """Every path, cycle, tadpole, cc and theta spec, and every glambda
    spec of up to 4 paths, with at most n_max vertices, counted from the
    params alone."""
    def lengths(count):
        # weakly decreasing, with at most one path of length 1
        for lam in itertools.combinations_with_replacement(range(n_max, 0, -1), count):
            if lam.count(1) <= 1 and sum(lam) - count + 2 <= n_max:
                yield lam

    for n in range(1, n_max + 1):
        yield GraphSpec(Family.PATH, (n,))
    for n in range(3, n_max + 1):
        yield GraphSpec(Family.CYCLE, (n,))
    for m in range(3, n_max + 1):
        for tail in range(n_max - m + 1):
            yield GraphSpec(Family.TADPOLE, (m, tail))
    for a in range(1, n_max):
        for b in range(max(1, 3 - a), n_max - a + 1):
            yield GraphSpec(Family.CYCLE_CHORD, (a, b))
    for lam in lengths(3):
        yield GraphSpec(Family.THETA, lam)
    for count in range(1, 5):
        for lam in lengths(count):
            yield GraphSpec(Family.MULTIPATH, lam)


# SHA-256 of one "spec n edges" line per spec of _labelled_specs(14), in
# its order: it pins every vertex label of those 539 graphs
LABELS_SHA256 = "e6b2e29fb365c0d048d8da0dc8523b64f2678ccdbc30d3a13a847b9739bce1be"


def test_every_small_family_graph_keeps_its_labels():
    digest = hashlib.sha256()
    specs = list(_labelled_specs(14))
    for spec in specs:
        graph = build_graph(spec)
        digest.update(f"{render_graph_spec(spec)} {graph.n} {graph.edges}\n".encode())
        largest = component_partition(graph, graph.edges)[0]
        assert FAMILIES[spec.family].size(spec) == (graph.n, graph.m, largest), spec
    assert len(specs) == 539
    assert digest.hexdigest() == LABELS_SHA256


def _converted(monkeypatch):
    # the power-sum functions the oracle hands to p_to_e, in order
    seen = []

    def convert(f):
        seen.append(f)
        return p_to_e(f)

    monkeypatch.setattr(engine, "p_to_e", convert)
    return seen


def test_every_family_but_edges_converts_a_p_n_term(monkeypatch):
    # the premise of FamilyRow.size, which gives n as the largest
    # component of each of these specs to engine.check_conversion_table:
    # each builds a connected graph, whose expansion on n vertices has a p_n
    # term with coefficient (-1)**(n - 1) times its number of spanning
    # trees with no broken circuit, so p_to_e grows the table to A_n
    seen = _converted(monkeypatch)
    specs = _specs_up_to(14)
    assert {spec.family for spec in specs} == set(Family) - {Family.EDGES}
    for spec in specs:
        n = FAMILIES[spec.family].size(spec)[0]
        csf_oracle(build_graph(spec))
        assert (-1) ** (n - 1) * seen.pop().coefficient((n,)) > 0, spec


@pytest.mark.parametrize("seed", range(6))
def test_a_disconnected_graph_converts_up_to_its_largest_component(seed, monkeypatch):
    # an edges spec need not be connected: its largest part is its largest
    # component, and the spec check grows the table that far, as the
    # conversion does.  A budget of p(s) passes both tables (the same
    # budget bounds each product, which past one component may hold more
    # than p(s) terms), and one short of it refuses both with one message
    rng = random.Random(seed)
    n = 12
    graph = Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                      if rng.random() < 0.15])
    largest = component_partition(graph, graph.edges)[0]
    assert largest < n
    seen = _converted(monkeypatch)
    csf_oracle(graph)
    assert max(lam[0] for lam in seen.pop().terms) == largest
    spec = GraphSpec(Family.EDGES, (n,), graph.edges)
    w = symfunc._width(n)
    size = len(symfunc._arrangement_table(w, largest)[largest])
    monkeypatch.setattr(symfunc, "_P_TO_E_MAX_TERMS", size)
    monkeypatch.setattr(symfunc, "_TABLES", {})
    check_conversion_table(spec)
    assert len(symfunc._TABLES[w][0]) == largest + 1
    monkeypatch.setattr(symfunc, "_TABLES", {})
    try:
        csf_oracle(graph)
    except ResourceLimitError as exc:
        assert "a product made" in str(exc)
    assert len(symfunc._TABLES[w][0]) == largest + 1
    monkeypatch.setattr(symfunc, "_P_TO_E_MAX_TERMS", size - 1)
    refusals = []
    for run, arg in ((check_conversion_table, spec), (csf_oracle, graph)):
        monkeypatch.setattr(symfunc, "_TABLES", {})
        with pytest.raises(ResourceLimitError) as refused:
            run(arg)
        refusals.append(str(refused.value))
    assert refusals == [f"p_to_e capped at {size - 1} accumulator terms, "
                        f"the image of p_{largest} has {size}"] * 2
