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
graph's function from scratch from Stanley's signed sum over edge
subsets, carried across the edges by a frontier transfer instead of
enumerated, and bounded by the transfer's live states rather than by
the edge count; it shares no code path with the formulas, and with the
multipath transfer it shares only p_to_e, its packed partition keys,
and the signed arrangement counts behind it, which the tests check
against Newton's recurrence.
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
    _multipath_lengths,
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
    _pack,
    _packed,
    _signed_arrangements,
    _unpack,
    _unpacked,
    _width,
    is_e_positive,
    p_to_e,
    principal_specialization,
)

# Live states the oracle's transfer may hold after an edge step, at
# about 20 us per state per step.  The largest run measured under it, a
# 45-edge G(15, 1/2) peaking at 499 186 states, took 18 to 46 s and
# 262 MB on a 2-CPU host.
_ORACLE_MAX_STATES = 500_000

# The formulas visit all 2**(n-1) compositions of n; at n = 26 that is
# 2**25 of them, 20 to 30 s on a 2-CPU host.
_FORMULA_MAX_VERTICES = 26


# --------------------------------------------------------------- formulas

def _aggregate(n: int, coeff: Callable[[Composition], int]) -> SymFunc:
    """Sum coeff(comp) * composition_weight(comp) * e_shape over all
    compositions of n, collected by underlying partition.  Refuses n
    above _FORMULA_MAX_VERTICES."""
    if n > _FORMULA_MAX_VERTICES:
        raise ResourceLimitError(
            f"closed formulas capped at {_FORMULA_MAX_VERTICES} vertices, "
            f"graph has {n} (2**{n - 1} compositions)"
        )
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

PackedTerms = dict[int, int]


def _accumulate(acc: PackedTerms, f: PackedTerms, scale: int = 1) -> None:
    get = acc.get
    for key, c in f.items():
        acc[key] = get(key, 0) + scale * c


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
    p_(2 + X + Y) merged, p_(1 + X) p_(1 + Y) apart.  Every power-sum
    polynomial is held on packed keys at the width of the vertex count,
    and the closed sum is unpacked once and handed to p_to_e.
    """
    lam = _multipath_lengths(lengths)
    w = _width(sum(lam) - len(lam) + 2)
    free = [_packed(_signed_arrangements(r), w) for r in range(lam[0])]
    states: dict[tuple[int, int, bool], PackedTerms] = {(0, 0, False): {0: 1}}
    # shortest paths first, so fewer states meet the long paths' loops
    for length in reversed(lam):
        step: dict[tuple[int, int, bool], PackedTerms] = {}
        for (x0, y0, merged), poly in states.items():
            kept = (x0 + y0 + length - 1, 0, True)
            _accumulate(step.setdefault(kept, {}), poly, (-1) ** length)
            for r in range(length):
                attached = length - 1 - r
                middle: PackedTerms = {}
                _multiply_into(middle, poly, free[r], (-1) ** attached)
                if merged:
                    key = (x0 + attached, 0, True)
                    _accumulate(step.setdefault(key, {}), middle, attached + 1)
                    continue
                for x in range(attached + 1):
                    key = (x0 + x, y0 + attached - x, False)
                    _accumulate(step.setdefault(key, {}), middle)
        states = step
    total: PackedTerms = {}
    for (x, y, merged), poly in states.items():
        hubs = (2 + x,) if merged else (1 + x, 1 + y)
        _multiply_into(total, poly, {_pack(hubs, w): 1})
    return p_to_e(SymFunc._trusted(Basis.POWERSUM, _unpacked(total, w)))


# ----------------------------------------------------------------- oracle

def _edges_in_dfs_order(graph: Graph) -> list[tuple[int, int]]:
    """Edges sorted by when a depth-first search reaches their later
    endpoint, which keeps the transfer's frontier narrow.

    The search starts from each unvisited vertex in turn and visits
    neighbours in ascending order; an edge is listed (earlier, later)
    in that numbering.
    """
    adjacent: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    rank = [-1] * graph.n
    reached = 0
    for root in range(graph.n):
        stack = [root]
        while stack:
            v = stack.pop()
            if rank[v] >= 0:
                continue
            rank[v] = reached
            reached += 1
            stack.extend(sorted(adjacent[v], reverse=True))
    pairs = (sorted(edge, key=rank.__getitem__) for edge in graph.edges)
    return sorted(pairs, key=lambda e: (rank[e[1]], rank[e[0]]))


def csf_oracle(graph: Graph) -> SymFunc:
    """Chromatic symmetric function from Stanley's signed edge-subset
    sum, sum over S of (-1)**|S| p_(component sizes of S), returned in
    the elementary basis.

    The sum is carried across the edges in depth-first order as a
    frontier transfer, so no subset is enumerated.  A state holds the
    block label of each live vertex (touched, and not past its last
    edge), the size of each block, and the multiset of closed component
    sizes packed into one int, its key in symfunc's partition codec at
    width n.bit_length(); it maps to a signed count.  Each edge is
    either skipped, or kept with the sign flipped, merging its
    endpoints' blocks; kept inside one block it cancels the skip, so
    such states drop out.  An endpoint whose last edge this was
    retires, and a block left with no live vertex closes into the
    multiset.  The work follows the live states, so the call refuses a
    graph once an edge step leaves more than _ORACLE_MAX_STATES of
    them, before the next step allocates.
    """
    n = graph.n
    bits = _width(n)
    edges = _edges_in_dfs_order(graph)
    last: dict[int, int] = {}
    for idx, (u, v) in enumerate(edges):
        last[u] = last[v] = idx
    # isolated vertices start in the digit for parts of size 1
    states: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {
        ((), (), n - len(last)): 1
    }
    frontier: list[int] = []
    for idx, (u, v) in enumerate(edges):
        fresh = [w for w in (u, v) if w not in frontier]
        frontier += fresh
        i, j = frontier.index(u), frontier.index(v)
        retired = {p for p, w in enumerate(frontier) if last[w] == idx}
        plans: dict[tuple[int, ...], tuple] = {}
        step: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}
        for (labels, sizes, packed), count in states.items():
            for _ in fresh:
                labels += (len(sizes),)
                sizes += (1,)
            a, b = labels[i], labels[j]
            if a == b:  # keeping the edge cancels skipping it
                continue
            merged = list(sizes)
            merged[a] += merged[b]
            kept = tuple(a if x == b else x for x in labels)
            for branch, branch_sizes, signed in (labels, sizes, count), (kept, merged, -count):
                plan = plans.get(branch)
                if plan is None:
                    plan = plans[branch] = _retire(branch, retired)
                live, order, closed = plan
                key = (
                    live,
                    tuple([branch_sizes[x] for x in order]),
                    packed + _pack([branch_sizes[x] for x in closed], bits),
                )
                step[key] = step.get(key, 0) + signed
        states = {key: count for key, count in step.items() if count}
        if len(states) > _ORACLE_MAX_STATES:
            raise ResourceLimitError(
                f"oracle transfer capped at {_ORACLE_MAX_STATES} live states, "
                f"edge {idx + 1} of {len(edges)} left {len(states)}"
            )
        frontier = [w for p, w in enumerate(frontier) if p not in retired]
    # every vertex has retired, so the packed multiset alone keys a state
    acc = {_unpack(packed, bits): count for (_, _, packed), count in states.items()}
    return p_to_e(SymFunc._trusted(Basis.POWERSUM, acc))


def _retire(labels: tuple[int, ...], retired: set[int]):
    """What retiring the frontier positions in retired does to any
    state with these block labels: the live labels renumbered by first
    appearance, the old label of each new block in order, and the old
    labels of the blocks left with no live vertex, which close."""
    renumber: dict[int, int] = {}
    live = tuple(
        renumber.setdefault(x, len(renumber))
        for p, x in enumerate(labels)
        if p not in retired
    )
    closed = set(labels).difference(renumber)
    return live, tuple(renumber), closed


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


def verify(spec: GraphSpec) -> VerificationReport:
    """Compute a graph's function by every route available and compare.

    Evaluates the closed formula first when the family has one, so a
    size the formulas refuse stops the run before the oracle starts;
    then always runs the edge-subset oracle, and checks the principal
    specialization against the independent coloring count at k = 0..n.
    """
    graph = build_graph(spec)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    formula = closed_formula(spec)
    timings["formula"] = time.perf_counter() - start

    start = time.perf_counter()
    oracle = csf_oracle(graph)
    equal = None if formula is None else formula == oracle
    timings["oracle"] = time.perf_counter() - start

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
