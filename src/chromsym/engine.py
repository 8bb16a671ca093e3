"""Chromatic symmetric functions: closed-form evaluators for the
benchmark families, a power-sum transfer for multipath graphs, an
edge-subset oracle, cross-verification, and an e-positivity scanner for
theta graphs.

The path, cycle, tadpole and chorded-cycle formulas expand in the
elementary basis as weighted sums over compositions of the vertex
count, with composition_weight carrying the part-size factors and a
per-family coefficient on top.  csf_multipath builds a multipath
graph's power-sum expansion path by path and converts it once; the
theta scan runs every cell through it.  The oracle recomputes any
graph's function from scratch by inclusion-exclusion over edge subsets,
sharing no code path with the formulas; with the transfer it shares
p_to_e and the signed arrangement counts behind it, which the tests
check against Newton's recurrence.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .compositions import (
    Composition,
    Partition,
    chord_weight,
    composition_weight,
    compositions,
    partition_of,
    surplus,
)
from .graphs import (
    FAMILIES,
    Graph,
    GraphSpec,
    ResourceLimitError,
    _absorb,
    _multipath_lengths,
    _root_sizes,
    build_graph,
    count_proper_colorings,
    theta_graph,  # unused here; the benchmark's tracer wraps engine.theta_graph by name
    triple_split_graphs,
)
from .symfunc import (
    Basis,
    EPositivityReport,
    SymFunc,
    _multiply_into,
    _signed_arrangements,
    is_e_positive,
    p_to_e,
    principal_specialization,
)

DEFAULT_MAX_EDGES = 24

# Edge subsets are enumerated in blocks: the bits above this many are
# frozen per block and their union-find state is built once, then the
# low bits vary in plain binary order within the block.
_ORACLE_BLOCK_BITS = 12


# --------------------------------------------------------------- formulas

def _aggregate(n: int, coeff: Callable[[Composition], int]) -> SymFunc:
    """Sum coeff(comp) * composition_weight(comp) * e_shape over all
    compositions of n, collected by underlying partition."""
    acc: dict[Partition, int] = {}
    for comp in compositions(n):
        w = composition_weight(comp)
        if w == 0:
            continue
        c = coeff(comp)
        if c == 0:
            continue
        lam = partition_of(comp)
        acc[lam] = acc.get(lam, 0) + c * w
    return SymFunc(Basis.ELEMENTARY, acc)


def csf_path(n: int) -> SymFunc:
    """Chromatic symmetric function of the path on n vertices."""
    if n < 1:
        raise ValueError(f"path needs at least one vertex, got {n}")
    return _aggregate(n, lambda comp: 1)


def csf_cycle(n: int) -> SymFunc:
    """Chromatic symmetric function of the cycle on n vertices.

    The expansion is valid down to n = 2, where the multigraph cycle
    degenerates to a single edge and the value is 2 e_2.
    """
    if n < 2:
        raise ValueError(f"cycle formula needs n >= 2, got {n}")
    return _aggregate(n, lambda comp: comp[0] - 1)


def csf_tadpole(m: int, tail: int) -> SymFunc:
    """Chromatic symmetric function of the cycle on m vertices with a
    path of tail extra vertices attached.

    The coefficient of a composition is the surplus of its prefix sums
    over tail + 1.  tail = 0 recovers the cycle and m = 2 degenerates
    to the path on tail + 2 vertices.
    """
    if m < 2:
        raise ValueError(f"tadpole formula needs cycle length >= 2, got {m}")
    if tail < 0:
        raise ValueError(f"tail length must be nonnegative, got {tail}")
    n = m + tail
    return _aggregate(n, lambda comp: surplus(comp, tail + 1))


def csf_cycle_chord(a: int, b: int) -> SymFunc:
    """Chromatic symmetric function of the cycle on a + b vertices with
    a chord cutting it into arcs of a and b edges.

    Expands with the nonnegative chord_weight coefficients, so
    e-positivity is visible term by term.  Needs both arcs >= 2; a
    degenerate arc leaves the plain cycle, csf_cycle.
    """
    if a < 2 or b < 2:
        raise ValueError(f"both arcs need at least two edges, got ({a}, {b})")
    n = a + b
    return _aggregate(n, lambda comp: chord_weight(comp, b))


# --------------------------------------------------- multipath transfer

PowerSumTerms = dict[Partition, int]


def _accumulate(acc: PowerSumTerms, f: PowerSumTerms, scale: int = 1) -> None:
    for lam, c in f.items():
        acc[lam] = acc.get(lam, 0) + scale * c


def csf_multipath(lengths: Iterable[int]) -> SymFunc:
    """Chromatic symmetric function of two hubs joined by internally
    disjoint paths of the given edge lengths (theta graphs have three).

    Transfers Stanley's signed edge-subset expansion, sum over S of
    (-1)**|S| p_(component sizes), across the paths one at a time
    instead of enumerating the 2**m subsets.  A path of l edges is
    either fully kept, merging the hubs with sign (-1)**l, or it joins
    x inner vertices to hub 0 and y to hub 1 with sign (-1)**(x + y)
    and leaves a free middle path on r = l - 1 - x - y vertices, whose
    expansion is _signed_arrangements(r).  The state is (vertices on
    hub 0, vertices on hub 1, hubs merged); once merged only the total
    matters, and every (x, y) split of one r shares a single product
    with the middle's expansion.  The hub components close the sum:
    p_(2 + X + Y) merged, p_(1 + X) p_(1 + Y) apart.
    """
    lam = _multipath_lengths(lengths)
    free = [_signed_arrangements(r) for r in range(lam[0])]
    states: dict[tuple[int, int, bool], PowerSumTerms] = {(0, 0, False): {(): 1}}
    # shortest paths first, so fewer states meet the long paths' loops
    for length in reversed(lam):
        step: dict[tuple[int, int, bool], PowerSumTerms] = {}
        for (x0, y0, merged), poly in states.items():
            kept = (x0 + y0 + length - 1, 0, True)
            _accumulate(step.setdefault(kept, {}), poly, (-1) ** length)
            for r in range(length):
                attached = length - 1 - r
                middle: PowerSumTerms = {}
                _multiply_into(middle, poly, free[r], (-1) ** attached)
                if merged:
                    key = (x0 + attached, 0, True)
                    _accumulate(step.setdefault(key, {}), middle, attached + 1)
                    continue
                for x in range(attached + 1):
                    key = (x0 + x, y0 + attached - x, False)
                    _accumulate(step.setdefault(key, {}), middle)
        states = step
    total: PowerSumTerms = {}
    for (x, y, merged), poly in states.items():
        hubs = (2 + x,) if merged else (1 + x, 1 + y)
        _multiply_into(total, poly, {tuple(sorted(hubs, reverse=True)): 1})
    return p_to_e(SymFunc(Basis.POWERSUM, total))


# ----------------------------------------------------------------- oracle

def csf_oracle(graph: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> SymFunc:
    """Chromatic symmetric function by inclusion-exclusion over edge
    subsets, returned in the elementary basis.

    Each subset contributes its sign times the power sum indexed by the
    component sizes of the spanning subgraph.  Runtime is 2**m for m
    edges, so the call refuses graphs above max_edges.
    """
    m = graph.m
    if m > max_edges:
        raise ResourceLimitError(
            f"oracle capped at {max_edges} edges, graph has {m} "
            f"(raise max_edges to force the 2**{m} enumeration)"
        )
    n = graph.n
    low_edges = graph.edges[:_ORACLE_BLOCK_BITS]
    high_edges = graph.edges[_ORACLE_BLOCK_BITS:]
    low_count = len(low_edges)
    acc: dict[Partition, int] = {}
    for high_mask in range(1 << len(high_edges)):
        base_parent = list(range(n))
        base_size = [1] * n
        _absorb(base_parent, base_size, high_edges, high_mask)
        high_sign = -1 if high_mask.bit_count() & 1 else 1
        for low_mask in range(1 << low_count):
            parent = base_parent.copy()
            size = base_size.copy()
            _absorb(parent, size, low_edges, low_mask)
            shape = _root_sizes(parent, size)
            sign = -high_sign if low_mask.bit_count() & 1 else high_sign
            acc[shape] = acc.get(shape, 0) + sign
    return p_to_e(SymFunc(Basis.POWERSUM, acc))


# ----------------------------------------------------------- verification

def closed_formula(spec: GraphSpec) -> SymFunc | None:
    """Dispatch to the closed-form evaluator the family table names for
    the spec, None when only the oracle can answer."""
    route = FAMILIES[spec.family].formula(spec.params)
    if route is None:
        return None
    name, args = route
    return globals()[name](*args)  # by name, so a rebound csf_* global runs


@dataclass
class VerificationReport:
    """Everything verify() learned about one graph.

    formula is None when no closed form covers the family; equal is
    None in that case.  colorings_match records the principal
    specialization against the deletion-contraction coloring count for
    k = 0..n.  timings maps phase name to seconds.
    """

    spec: GraphSpec
    graph: Graph
    formula: SymFunc | None
    oracle: SymFunc
    equal: bool | None
    e_positivity: EPositivityReport
    e_positivity_expected: bool
    colorings_match: bool
    timings: dict[str, float]

    @property
    def passed(self) -> bool:
        if self.equal is False:
            return False
        if not self.colorings_match:
            return False
        if self.e_positivity_expected and not self.e_positivity.positive:
            return False
        return True


def verify(spec: GraphSpec, max_edges: int = DEFAULT_MAX_EDGES) -> VerificationReport:
    """Compute a graph's function by every route available and compare.

    Always runs the edge-subset oracle; adds the closed formula when
    the family has one, and checks the principal specialization against
    the independent coloring count at k = 0..n.
    """
    graph = build_graph(spec)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    oracle = csf_oracle(graph, max_edges)
    timings["oracle"] = time.perf_counter() - start

    start = time.perf_counter()
    formula = closed_formula(spec)
    equal = None if formula is None else formula == oracle
    timings["formula"] = time.perf_counter() - start

    start = time.perf_counter()
    colorings_match = all(
        principal_specialization(oracle, k) == count_proper_colorings(graph, k)
        for k in range(graph.n + 1)
    )
    timings["colorings"] = time.perf_counter() - start

    return VerificationReport(
        spec=spec,
        graph=graph,
        formula=formula,
        oracle=oracle,
        equal=equal,
        e_positivity=is_e_positive(oracle),
        e_positivity_expected=FAMILIES[spec.family].e_positive(spec.params),
        colorings_match=colorings_match,
        timings=timings,
    )


def check_triple_deletion(graph: Graph, v1: int, v2: int, v3: int) -> bool:
    """Check the two three-edge deletion identities on a base graph
    with three pairwise non-adjacent vertices.

    With subscripts naming which of the edges v1v2, v1v3, v2v3 are
    added: X_{12} = X_1 + X_{23} - X_3 and X_{123} = X_{13} + X_{23}
    - X_3.
    """
    split = triple_split_graphs(graph, v1, v2, v3)

    def x(*which: int) -> SymFunc:
        return csf_oracle(split[frozenset(which)])

    x3 = x(3)
    x23 = x(2, 3)
    first = x(1, 2) == x(1) + x23 - x3
    second = x(1, 2, 3) == x(1, 3) + x23 - x3
    return first and second


# ------------------------------------------------------------ theta scan

SCAN_SCHEMA = 1


@dataclass(frozen=True)
class ThetaScanRow:
    """One scanned theta graph: path lengths a >= b >= c, vertex count,
    and the e-positivity verdict with the minimal coefficient seen."""

    a: int
    b: int
    c: int
    n: int
    e_positive: bool
    min_coeff: int
    min_coeff_shape: Partition

    def cell(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": SCAN_SCHEMA,
                "a": self.a,
                "b": self.b,
                "c": self.c,
                "n": self.n,
                "e_positive": self.e_positive,
                "min_coeff": self.min_coeff,
                "min_coeff_shape": list(self.min_coeff_shape),
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "ThetaScanRow":
        data = json.loads(line)
        if data.get("schema") != SCAN_SCHEMA:
            raise ValueError(f"unsupported scan row schema: {data.get('schema')!r}")
        return cls(
            a=data["a"],
            b=data["b"],
            c=data["c"],
            n=data["n"],
            e_positive=data["e_positive"],
            min_coeff=data["min_coeff"],
            min_coeff_shape=tuple(data["min_coeff_shape"]),
        )


def theta_scan_cells(n_max: int) -> list[tuple[int, int, int]]:
    """All theta path-length triples a >= b >= c >= 1 with at most
    n_max vertices, excluding b = c = 1 (those duplicate the hub edge).

    Ordered by (n, a, b, c), so scans are deterministic and resumable.
    """
    cells = []
    for n in range(4, n_max + 1):
        total = n + 1
        for c in range(1, total // 3 + 1):
            for b in range(c, (total - c) // 2 + 1):
                a = total - b - c
                if a < b:
                    continue
                if b == 1 and c == 1:
                    continue
                cells.append((a, b, c))
    cells.sort(key=lambda cell: (sum(cell) - 1, cell))
    return cells


def _scan_cell(cell: tuple[int, int, int]) -> ThetaScanRow:
    a, b, c = cell
    n = a + b + c - 1
    x = csf_multipath(cell)
    report = is_e_positive(x)
    lam, coeff = min(x.sorted_terms(), key=lambda item: (item[1], item[0]))
    return ThetaScanRow(
        a=a,
        b=b,
        c=c,
        n=n,
        e_positive=report.positive,
        min_coeff=coeff,
        min_coeff_shape=lam,
    )


def _load_checkpoint(path: str) -> dict[tuple[int, int, int], ThetaScanRow]:
    """Rows recorded in a checkpoint, keyed by cell.  Rows are written
    whole with their newline, so a final line without one was torn by a
    kill mid-write: it is dropped with a warning and truncated away, and
    its cell is scanned again.  A malformed complete line is an error."""
    done = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb") as fh:
        complete, newline, torn = fh.read().rpartition(b"\n")
    for number, line in enumerate(complete.split(b"\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = ThetaScanRow.from_json(line)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path} line {number} is not a scan row: {exc!r}") from None
        done[row.cell()] = row
    if torn.strip():
        print(f"warning: {path} ends in a torn line; dropping it and "
              "rescanning its cell", file=sys.stderr)
        os.truncate(path, len(complete) + len(newline))
    return done


def scan_theta(
    n_max: int,
    checkpoint: str | None = None,
    jobs: int = 1,
) -> Iterator[ThetaScanRow]:
    """Stream e-positivity rows for every theta graph with at most
    n_max vertices, in (n, a, b, c) order.

    Every cell goes through csf_multipath, so no cell has an edge
    bound.  With a checkpoint path, finished rows are appended as JSON
    lines and a rerun replays them without recomputation; a path that
    cannot be read or appended to raises ValueError before any work.
    """
    cells = theta_scan_cells(n_max)
    try:
        done = _load_checkpoint(checkpoint) if checkpoint else {}
        sink = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    except OSError as exc:
        raise ValueError(f"cannot use checkpoint {checkpoint}: {exc.strerror}") from None
    pending = [cell for cell in cells if cell not in done]

    fresh: Iterator[ThetaScanRow]
    if jobs > 1 and pending:
        pool = ProcessPoolExecutor(max_workers=jobs)
        fresh = pool.map(_scan_cell, pending)
    else:
        pool = None
        fresh = map(_scan_cell, pending)

    try:
        for cell in cells:
            if cell in done:
                yield done[cell]
                continue
            row = next(fresh)
            if sink:
                sink.write(row.to_json() + "\n")
                sink.flush()
            yield row
    finally:
        if sink:
            sink.close()
        if pool:
            pool.shutdown(cancel_futures=True)
