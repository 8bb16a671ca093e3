"""Property tests over the family table: every row's spec survives the
text grammar, its closed formula (when it names one) equals the
edge-subset oracle exactly, and a family whose e-positivity is
established yields an e-positive oracle."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from chromsym.cli import parse_graph_spec
from chromsym.engine import closed_formula, csf_oracle
from chromsym.graphs import (
    FAMILIES,
    Family,
    GraphSpec,
    build_graph,
    graph_size,
    render_graph_spec,
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


def test_every_row_has_a_strategy():
    assert set(SPECS) == set(FAMILIES) == set(Family)


@settings(max_examples=200, deadline=None)
@given(specs)
def test_spec_round_trips_through_text(spec):
    assert parse_graph_spec(render_graph_spec(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(specs)
def test_size_counts_the_built_graph(spec):
    graph = build_graph(spec)
    assert graph_size(spec) == (graph.n, graph.m)


@settings(max_examples=150, deadline=None)
@given(specs)
def test_formula_matches_oracle_and_positivity_holds(spec):
    oracle = csf_oracle(build_graph(spec))
    formula = closed_formula(spec)
    if formula is not None:
        assert formula == oracle
    if FAMILIES[spec.family].e_positive(spec.params):
        assert is_e_positive(oracle).positive
