"""Chromatic symmetric functions: closed-form evaluators for the
benchmark families, an edge-subset oracle for any graph carried over
its degree-2 chains, cross-verification, and an e-positivity scanner
for theta graphs.

The path, cycle, tadpole and chorded-cycle formulas expand in the
elementary basis as weighted sums over compositions of the vertex
count, with composition_weight carrying the part-size factors and a
per-family coefficient on top.  The oracle recomputes any graph's
function from scratch from Stanley's signed sum over edge subsets,
carried across the graph's chains between branch vertices by one
frontier transfer instead of enumerated, and bounded by the live terms
the transfer makes and by the shared table's budget rather than by the
edge count.  verify, csf without a closed formula, and every theta
scan cell all reach the transfer through csf_oracle on a built graph.
The oracle shares no code path with the formulas; it shares only
p_to_e, its packed partition keys, and symfunc's per-width table of
signed arrangement counts, which the transfer reads for its free
middles and p_to_e scales into the images of the power sums; the tests
check those images against Newton's recurrence.
"""

from __future__ import annotations

import heapq
import json
import os
import sys
import time
from itertools import compress
from typing import Callable, Iterator, NamedTuple

from .compositions import (
    Composition,
    Partition,
    chord_weight,
    composition_weight,
    compositions,
    partition_of,
    surplus,
    weight_flags,
)
from .graphs import (
    FAMILIES,
    Graph,
    GraphSpec,
    ResourceLimitError,
    build_graph,
    check_coloring_vertices,
    check_memo_edges,
    count_proper_colorings,
    theta_graph,
)
from . import symfunc
from .symfunc import (
    Basis,
    EPositivityReport,
    SymFunc,
    _arrangement_table,
    _unpacked,
    _width,
    is_e_positive,
    p_to_e,
    principal_specialization,
)

# Live terms one chain step of the oracle's transfer may make, counted
# as they are made.  The largest run measured under it, a 45-edge
# G(15, 1/2) peaking at 499 186 terms, took 11 s and 111 MB on a 2-CPU
# host; a refused 52-edge G(15, 1/2) stopped after 17 s at 462 MB.
_ORACLE_MAX_STATES = 500_000

# Vertices of one oracle graph, refused before _graph_chains keeps its
# lists per vertex.  csf edges:1000000; takes 1.6-1.9 s and 207 MB on a
# 2-CPU host; edges:3000000; took 4.3 s and 589 MB.
_ORACLE_MAX_VERTICES = 1_000_000

# The formulas visit all 2**(n-1) compositions of n; at n = 26 that is
# 2**25 of them, 6 to 7 s per family on a 2-CPU host.
_FORMULA_MAX_VERTICES = 26


# --------------------------------------------------------------- formulas

def _aggregate(n: int, coeff: Callable[[Composition], int]) -> SymFunc:
    """Sum coeff(comp) * composition_weight(comp) * e_shape over the
    compositions of n, collected by underlying partition.  Refuses n
    above _FORMULA_MAX_VERTICES."""
    if n > _FORMULA_MAX_VERTICES:
        raise ResourceLimitError.capped("closed formulas", _FORMULA_MAX_VERTICES, "vertices",
                                        f"graph has {n} (2**{n - 1} compositions)")
    acc: dict[Partition, int] = {}
    # compress drops the compositions of weight 0 in C, one step each
    for comp in compress(compositions(n), weight_flags(n)):
        c = coeff(comp)
        if c == 0:
            continue
        lam = partition_of(comp)
        acc[lam] = acc.get(lam, 0) + c * composition_weight(comp)
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


# --------------------------------------------------------- chain transfer

# (end, end, interior vertex count) of one chain; a loop has equal ends
Chain = tuple[int, int, int]


def _graph_chains(graph: Graph) -> list[Chain]:
    """The graph's chains, in the order the transfer takes them.

    Branch vertices have degree other than 2, and a component that is a
    pure cycle gets its least vertex as one.  A chain runs from a branch
    vertex through degree-2 vertices only, to a branch vertex or back to
    its start.  Chains are sorted by when a depth-first search over the
    branch vertices, visiting neighbours in ascending order, reaches
    their later end, then their earlier end, then by length; that keeps
    the frontier narrow.
    """
    adjacent: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    branch = [len(around) != 2 for around in adjacent]
    covered = branch[:]
    walked: set[tuple[int, int]] = set()
    chains: list[Chain] = []

    def walk(start: int, step: int) -> None:
        prev, cur, r = start, step, 0
        while not branch[cur]:
            covered[cur] = True
            r += 1
            x, y = adjacent[cur]
            prev, cur = cur, y if x == prev else x
        walked.add((cur, prev))  # the same chain, entered from its other end
        chains.append((start, cur, r))

    for start in range(graph.n):
        if branch[start]:
            for step in adjacent[start]:
                if (start, step) not in walked:
                    walk(start, step)
    for start in range(graph.n):
        if not covered[start]:  # the least vertex of a pure cycle
            branch[start] = covered[start] = True
            walk(start, adjacent[start][0])

    links: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v, _ in chains:
        links[u].append(v)
        links[v].append(u)
    rank = [-1] * graph.n
    reached = 0
    for root in range(graph.n):
        stack = [root] if branch[root] else []
        while stack:
            v = stack.pop()
            if rank[v] >= 0:
                continue
            rank[v] = reached
            reached += 1
            stack.extend(sorted(links[v], reverse=True))
    ordered = [(u, v, r) if rank[u] <= rank[v] else (v, u, r) for u, v, r in chains]
    return sorted(ordered, key=lambda c: (rank[c[1]], rank[c[0]], c[2]))


def _place(size: int, slot: int | None, base: int, w: int) -> int:
    # a block that stays open is the digit at its slot; one that closes
    # is a part of the packed multiset below base
    return 1 << (size - 1) * w if slot is None else size << base + slot * w


def _cut_terms(sizes, slots, r: int, free, base: int, w: int) -> dict[int, int]:
    """Key offsets and coefficients of every way to cut a chain of r
    interior vertices between blocks of the given sizes, which move to
    the given slots: t of the vertices attach to the ends and the free
    middle of r - t closes as free[r - t].  Two blocks share the t in
    t + 1 ways with sign (-1)**t.  One block takes all t in t + 1 ways
    too; at t = r that folds with the chain kept whole into r (-1)**r.
    Each end's offsets, for 0..r vertices attached, are placed once."""
    ends = [[_place(size + x, slot, base, w) for x in range(r + 1)]
            for size, slot in zip(sizes, slots)]
    terms: dict[int, int] = {}
    get = terms.get
    for t in range(r + 1):
        sign = -1 if t % 2 else 1
        if len(ends) == 1:
            splits = {ends[0][t]: sign * (t + 1 if t < r else r)}
        else:
            pa, pb = ends
            splits = {}
            for x in range(t + 1):
                split = pa[x] + pb[t - x]
                splits[split] = splits.get(split, 0) + sign
        row = free[r - t].items()
        for split, coeff in splits.items():
            for key, c in row:
                key += split
                terms[key] = get(key, 0) + coeff * c
    return terms


def check_conversion_table(spec: GraphSpec) -> None:
    """Refuse, before the graph is built, a spec whose function p_to_e
    would refuse.  A connected graph's expansion on s vertices has a p_s
    term (up to sign, its coefficient is its number of spanning trees
    with no broken circuit, Stanley 1995), so the product over a graph's
    components has a term whose largest part is its largest component,
    and p_to_e grows the table to that A_s at width _width(n) anyway;
    this grows it first, from the family row's size."""
    n, _, largest = FAMILIES[spec.family].size(spec)
    _arrangement_table(_width(n), largest)


def csf_oracle(graph: Graph) -> SymFunc:
    """Chromatic symmetric function, in the elementary basis, of any
    graph from first principles, carried over its chains.

    Stanley's signed edge-subset sum, sum over S of (-1)**|S|
    p_(component sizes of S), is carried across the chains in
    _graph_chains order as a frontier transfer, so no subset is
    enumerated; vertices on no chain are isolated.  A state maps the
    block labels of the live branch vertices (touched, and not past
    their last chain) to one power-sum polynomial on packed keys:
    the closed component sizes in the low (2**w - 1) * w bits, in
    symfunc's codec at w = n.bit_length(), and each open block's size as
    a w-bit digit above them, at the slot of its first live vertex.  A
    chain of r interior vertices is kept whole, merging its ends' blocks
    with sign (-1)**(r + 1), or cut: t vertices attach to the ends and
    the free middle closes as the path's expansion A_(r - t) (Stanley
    1995, Thm 2.5), read from symfunc's arrangement table at width w.  Each
    way changes a key by an offset that depends only on the end blocks'
    sizes, so a step builds once per sizes the cut terms, with the
    closing of blocks left with no live vertex, and the kept offset,
    bound for its own target labels; one block's cut terms fold in the
    kept chain.  A build reads no label and, since the digits start at
    a base set by w alone, no n: only r, one block or two, the slots the
    end blocks move to and their sizes.  So the builds are kept across
    calls in the width's record of symfunc._TABLES, beside the rows they
    read, up to p_to_e's budget of terms; a build larger than that lives
    only for its call.
    The work follows the live terms, so the call refuses once a step
    has made more than _ORACLE_MAX_STATES of them, counted as they are
    made; before any step, the table refuses a chain whose free middles
    would need an A_r past p_to_e's budget, and before the chains are
    found, a graph of more than _ORACLE_MAX_VERTICES vertices is refused.
    """
    n = graph.n
    if n > _ORACLE_MAX_VERTICES:
        raise ResourceLimitError.capped("oracle", _ORACLE_MAX_VERTICES, "vertices",
                                        f"graph has {n}")
    chains = _graph_chains(graph)
    w = _width(n)
    digit = (1 << w) - 1
    # the closed parts, at most n < 2**w, fit below base whatever n is
    base = digit * w
    last: dict[int, int] = {}
    for idx, (u, v, _) in enumerate(chains):
        last[u] = last[v] = idx
    interior = [r for _, _, r in chains]
    free = _arrangement_table(w, max(interior, default=0))
    kept_cuts, cap = symfunc._TABLES[w][2], symfunc._P_TO_E_MAX_TERMS
    store = kept_cuts[1]
    oversize: dict[tuple, tuple] = {}  # builds past cap, for this call only
    budget = _ORACLE_MAX_STATES
    slot_of: dict[int, int] = {}
    spare: list[int] = []
    frontier: list[int] = []
    states: dict[tuple[int, ...], dict[int, int]] = {(): {n - len(last) - sum(interior): 1}}
    for idx, (u, v, r) in enumerate(chains):
        fresh = [x for x in dict.fromkeys((u, v)) if x not in slot_of]
        for x in fresh:
            slot_of[x] = heapq.heappop(spare) if spare else len(frontier)
            frontier.append(x)
        slots = [slot_of[x] for x in frontier]
        extra = tuple(slots[len(slots) - len(fresh):])
        i, j = frontier.index(u), frontier.index(v)
        alive = [last[x] != idx for x in frontier]
        kept_sign = (-1) ** (r + 1)

        def head(labels, blocks):
            # slot of the blocks' first live vertex, None when they close
            for p, x in enumerate(labels):
                if x in blocks and alive[p]:
                    return slots[p]
            return None

        def target(labels, relabel):
            return tuple(relabel.get(x, x) for x, keep in zip(labels, alive) if keep)

        step: dict[tuple[int, ...], dict[int, int]] = {}
        made = 0
        for labels, poly in states.items():
            labels += extra
            a, b = labels[i], labels[j]
            if a == b and r == 0:  # keeping the edge cancels skipping it
                continue
            na, nb, nm = head(labels, (a,)), head(labels, (b,)), head(labels, (a, b))
            cut = target(labels, {a: na, b: nb})
            kept = target(labels, {a: nm, b: nm})
            sha = base + a * w
            # one block is read once: slot 2**w - 1 is never used, so b reads 0
            shb = base + (b if a != b else digit) * w
            # two blocks that both close weigh the same with sizes swapped
            swap = a != b and na is None and nb is None
            # the build reads no label and no n, so every call at width w shares it
            shape = (r, a == b, na, nb, nm)
            builds = store.setdefault(shape, {})

            def build(sizes: int):
                if (shape, sizes) in oversize:
                    return oversize[shape, sizes]
                # one block's cut terms already fold in the chain kept whole
                sa, sb = sizes >> w or 1, sizes & digit or 1
                ends = ((sa,), (na,)) if a == b else ((sa, sb), (na, nb))
                k = None if a == b else _place(sa + sb + r, nm, base, w)
                terms = {off: f for off, f in _cut_terms(*ends, r, free, base, w).items() if f}
                made = k, tuple(terms), tuple(terms.values())
                if len(terms) > cap:
                    oversize[shape, sizes] = made
                    return made
                if kept_cuts[0] + len(terms) > cap:
                    kept_cuts[0] = 0
                    store.clear()
                    builds.clear()
                    store[shape] = builds
                kept_cuts[0] += len(terms)
                builds[sizes] = made
                return made

            out = step.setdefault(cut, {})
            kout = step.setdefault(kept, {})  # out itself when they coincide
            get, kget = out.get, kout.get
            # live terms in the targets, a shared dict read once
            live = out.__len__ if kout is out else lambda: len(out) + len(kout)
            before = live()
            limit = budget - made + before
            for key, c in poly.items():
                if not c:
                    continue
                sa = key >> sha & digit
                sb = key >> shb & digit
                rest = key - (sa << sha) - (sb << shb)
                sizes = sb << w | sa if swap and sb < sa else sa << w | sb
                k, offs, coeffs = builds.get(sizes) or build(sizes)
                for off, f in zip(offs, coeffs):
                    off += rest
                    out[off] = get(off, 0) + c * f
                if k is not None:
                    k += rest
                    kout[k] = kget(k, 0) + kept_sign * c
                if live() > limit:
                    raise ResourceLimitError.capped("oracle transfer", budget, "live states",
                                                    f"chain {idx + 1} of {len(chains)} "
                                                    f"left {live() - limit + budget}")
            made += live() - before
        states = step
        for p, keep in enumerate(alive):
            if not keep:
                heapq.heappush(spare, slots[p])
        frontier = [x for x, keep in zip(frontier, alive) if keep]
    # every branch vertex has retired, so only the closed multiset is left
    total = states.get((), {})
    return p_to_e(SymFunc._trusted(Basis.POWERSUM, _unpacked(total, w)))


# ----------------------------------------------------------- verification

def closed_formula(spec: GraphSpec) -> SymFunc | None:
    """Dispatch to the closed-form evaluator the family table names for
    the spec, None when only the oracle can answer."""
    route = FAMILIES[spec.family].formula(spec.params)
    if route is None:
        return None
    name, args = route
    return globals()[name](*args)  # by name, so a rebound csf_* global runs


class VerificationReport(NamedTuple):
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
    size the formulas refuse stops the run before the graph is built, as
    does a spec whose function p_to_e would refuse or whose edges the
    coloring memo could not hold; then always runs the edge-subset
    oracle, and checks the principal specialization against the
    independent coloring count at k = 0..n, refusing that check on a
    graph that check_coloring_vertices refuses.
    """
    timings: dict[str, float] = {}

    start = time.perf_counter()
    formula = closed_formula(spec)
    timings["formula"] = time.perf_counter() - start

    check_conversion_table(spec)
    check_memo_edges(FAMILIES[spec.family].size(spec)[1])
    graph = build_graph(spec)

    start = time.perf_counter()
    oracle = csf_oracle(graph)
    equal = None if formula is None else formula == oracle
    timings["oracle"] = time.perf_counter() - start

    check_coloring_vertices(graph.n)
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


# ------------------------------------------------------------ theta scan

SCAN_SCHEMA = 1


class ThetaScanRow(NamedTuple):
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
        return json.dumps({"schema": SCAN_SCHEMA, **self._asdict()})

    @classmethod
    def from_json(cls, line: str) -> "ThetaScanRow":
        """Parse one checkpoint row, refusing any that no scan could
        have written: a field of the wrong type, a cell that
        theta_scan_cells does not list, a vertex count or shape size that
        does not fit the cell, a shape that is not a partition, or a
        verdict that contradicts the minimal coefficient (zero
        coefficients are dropped, so a computed row is e-positive exactly
        when it is positive)."""
        data = json.loads(line)
        if data.get("schema") != SCAN_SCHEMA:
            raise ValueError(f"unsupported scan row schema: {data.get('schema')!r}")
        a, b, c, n, min_coeff = (data[key] for key in ("a", "b", "c", "n", "min_coeff"))
        e_positive, shape = data["e_positive"], data["min_coeff_shape"]
        if not isinstance(shape, list) or any(
            type(x) is not int for x in [a, b, c, n, min_coeff, *shape]
        ):
            raise ValueError("scan row counts and shape parts must be integers")
        if type(e_positive) is not bool:
            raise ValueError(f"e_positive must be true or false, got {e_positive!r}")
        if not a >= b >= c >= 1 or b == c == 1:
            raise ValueError(f"theta {a},{b},{c} is not a scan cell: a >= b >= c >= 1, b + c > 2")
        if n != a + b + c - 1:
            raise ValueError(f"n = {n} does not fit theta {a},{b},{c}")
        if sum(shape) != n:
            raise ValueError(f"min_coeff_shape sums to {sum(shape)}, not n = {n}")
        if shape != sorted(shape, reverse=True) or shape[-1] < 1:
            raise ValueError(f"min_coeff_shape {shape} is not a partition")
        if e_positive != (min_coeff > 0):
            raise ValueError(f"e_positive {e_positive} contradicts min_coeff {min_coeff}")
        return cls(a, b, c, n, e_positive, min_coeff, tuple(shape))


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
                if b == 1 and c == 1:
                    continue
                cells.append((a, b, c))
    cells.sort(key=lambda cell: (sum(cell) - 1, cell))
    return cells


def _scan_cell(cell: tuple[int, int, int]) -> ThetaScanRow:
    a, b, c = cell
    n = a + b + c - 1
    x = csf_oracle(theta_graph(a, b, c))
    lam, coeff = min(x.terms.items(), key=lambda item: (item[1], item[0]))
    # terms are nonzero, so e-positive is a positive least coefficient
    return ThetaScanRow(a, b, c, n, coeff > 0, coeff, lam)


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

    Every cell goes through csf_oracle on its theta graph, whose three
    paths are its chains, so no cell has an edge bound, only the
    oracle's budget of live terms.  Every cell is connected, so one on
    n vertices converts through A_n at width _width(n); the table is
    grown to A_n_max first, and an n_max that p_to_e would refuse is
    refused before any work.  With a checkpoint path, finished rows are
    appended as JSON lines and a rerun replays them without
    recomputation; a path that cannot be read or appended to raises
    ValueError before any work.  jobs > 1 scans the cells in a process
    pool of at most jobs workers, and no more than the cells left to
    scan or the CPUs.
    """
    _arrangement_table(_width(n_max), n_max)
    cells = theta_scan_cells(n_max)
    try:
        done = _load_checkpoint(checkpoint) if checkpoint else {}
        sink = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    except OSError as exc:
        raise ValueError(f"cannot use checkpoint {checkpoint}: {exc.strerror}") from None
    pending = [cell for cell in cells if cell not in done]
    # a pool forks all its workers at its first submit
    jobs = min(jobs, len(pending), os.cpu_count() or 1)

    fresh: Iterator[ThetaScanRow]
    if jobs > 1:
        # imported here, so only a parallel scan loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

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
