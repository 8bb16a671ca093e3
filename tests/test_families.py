"""Property tests over the family table: a spec is made exactly when
its family's builder builds, every row's spec survives the text
grammar, its closed formula (when it names one) equals the edge-subset
oracle exactly, and a family whose e-positivity is established yields
an e-positive oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromsym.cli import parse_graph_spec
from chromsym.engine import closed_formula, csf_oracle
from chromsym.graphs import (
    FAMILIES,
    Family,
    Graph,
    GraphSpec,
    build_graph,
    cycle_chord_graph,
    cycle_graph,
    multipath_graph,
    path_graph,
    render_graph_spec,
    tadpole_graph,
    theta_graph,
)
from chromsym.symfunc import is_e_positive


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
    assert FAMILIES[spec.family].size(spec) == (graph.n, graph.m)


@settings(max_examples=150, deadline=None)
@given(specs)
def test_formula_matches_oracle_and_positivity_holds(spec):
    oracle = csf_oracle(build_graph(spec))
    formula = closed_formula(spec)
    if formula is not None:
        assert formula == oracle
    if FAMILIES[spec.family].e_positive(spec.params):
        assert is_e_positive(oracle).positive
