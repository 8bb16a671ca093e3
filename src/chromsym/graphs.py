"""Simple graphs, the benchmark families, exact coloring counts, and
stable-partition machinery.

Vertices are 0..n-1 and edges are stored sorted with each pair
normalized to (min, max), so structurally equal graphs compare equal.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .compositions import Partition, dominance_leq, partitions


class ResourceLimitError(RuntimeError):
    """A computation would exceed its budget of work or memory; the
    message names the budget and what went past it."""

    @classmethod
    def capped(cls, budget: str, limit: int, unit: str, detail: str) -> ResourceLimitError:
        return cls(f"{budget} capped at {limit} {unit}, {detail}")


Edge = tuple[int, int]


def _normalize_edge(e) -> Edge:
    u, v = e
    if u == v:
        raise ValueError(f"loops are not allowed: vertex {u}")
    return (u, v) if u < v else (v, u)


class _GraphFields(NamedTuple):
    n: int
    edges: tuple[Edge, ...]


def _checked_make(cls, iterable: Iterable):
    # a named tuple's own _make, which _replace calls, skips __new__
    return cls(*iterable)


def _checked_edges(n: int, edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """The edges of a simple graph on n vertices, normalized and sorted;
    ValueError for n < 1, a loop, an edge out of range or a repeat."""
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    norm = sorted(_normalize_edge(e) for e in edges)
    for u, v in norm:
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    for a, b in zip(norm, norm[1:]):
        if a == b:
            raise ValueError(f"duplicate edge {a}")
    return tuple(norm)


class Graph(_GraphFields):
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ()

    def __new__(cls, n: int, edges: Iterable[Edge]) -> Graph:
        return super().__new__(cls, n, _checked_edges(n, edges))

    _make = classmethod(_checked_make)

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency_masks(self) -> list[int]:
        """Neighborhoods as bitmasks, one per vertex."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj


# ---------------------------------------------------------- constructors

# Each family's parameter rules, run by GraphSpec
def _check_path(n: int) -> None:
    if n < 1:
        raise ValueError(f"path needs at least one vertex, got {n}")


def _check_cycle(n: int) -> None:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")


def _check_tadpole(m: int, tail: int) -> None:
    if m < 3:
        raise ValueError(f"tadpole cycle needs at least 3 vertices, got {m}")
    if tail < 0:
        raise ValueError(f"tail length must be nonnegative, got {tail}")


def _check_chord(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"both arcs need at least one edge, got ({a}, {b})")
    _check_cycle(a + b)


def _check_lengths(*lam: int) -> None:
    if not lam:
        raise ValueError("need at least one path length")
    if any(p < 1 for p in lam):
        raise ValueError(f"path lengths must be positive: {lam}")
    if sum(1 for p in lam if p == 1) > 1:
        raise ValueError(
            "at most one path may have length 1: a second one would "
            "repeat the edge between the two hub vertices"
        )


# A chain (start, end, edges), an end of None being a fresh vertex
Chain = tuple[int, int | None, int]
Skeleton = tuple[int, list[Chain]]


def _skeleton_graph(hubs: int, chains: Iterable[Chain]) -> Graph:
    """Hub vertices 0..hubs-1 joined by chains of the given edge counts.
    Each chain's interior vertices, and then its end when that is None,
    take the next free labels in turn."""
    edges, nxt = [], hubs
    for start, end, length in chains:
        walk = [start, *range(nxt, nxt + length - 1)]
        nxt += length - 1
        if end is None:
            end, nxt = nxt, nxt + 1
        edges += zip(walk, [*walk[1:], end])
    return Graph(nxt, edges)


# -------------------------------------------------------------- GraphSpec

class Family(Enum):
    PATH = "path"
    CYCLE = "cycle"
    TADPOLE = "tadpole"
    CYCLE_CHORD = "cc"
    THETA = "theta"
    MULTIPATH = "glambda"
    EDGES = "edges"


Params = tuple[int, ...]


class _GraphSpecFields(NamedTuple):
    family: Family
    params: Params
    edge_list: tuple[Edge, ...]


class GraphSpec(_GraphSpecFields):
    """Parsed description of a graph: a family plus its parameters,
    checked on construction against the family's arity and its rules,
    so every spec can be built.

    For EDGES, params holds just the vertex count and edge_list the
    explicit edges, normalized and sorted as Graph stores them.  THETA
    and MULTIPATH params are canonicalized to weakly decreasing order so
    equal descriptions compare equal.
    """

    __slots__ = ()

    def __new__(cls, family: Family, params: Params,
                edge_list: tuple[Edge, ...] = ()) -> GraphSpec:
        row = FAMILIES[family]
        if row.arity not in (None, len(params)):
            raise ValueError(f"{family.value} takes {row.arity} "
                             f"parameter(s), got {len(params)}")
        if row.path_lengths:
            params = tuple(sorted(params, reverse=True))
        if row.explicit_edges:
            edge_list = _checked_edges(params[0], edge_list)
        elif edge_list:
            raise ValueError("explicit edges only make sense for the edges family")
        row.check(*params)
        return super().__new__(cls, family, params, edge_list)

    _make = classmethod(_checked_make)


class FamilyRow(NamedTuple):
    """Everything the package knows about one family keyword.

    arity is None when variadic.  skeleton gives the hub count and the
    chains of the graph a spec builds, which build_graph joins and size
    counts without building it.  check raises the ValueError for params
    the family rejects, and GraphSpec runs it on construction, so every
    spec has a skeleton.  formula gives the name of the engine's
    closed-form evaluator covering the params and its arguments, or
    None when only the oracle can answer.  e_positive says whether
    e-positivity is established, making a negative coefficient a hard
    failure.  path_lengths params are unordered; only an explicit_edges
    spec carries an edge list.
    """

    arity: int | None
    skeleton: Callable[[GraphSpec], Skeleton]
    check: Callable[..., None]
    formula: Callable[[Params], tuple[str, Params] | None]
    e_positive: Callable[[Params], bool]
    path_lengths: bool = False
    explicit_edges: bool = False

    def size(self, spec: GraphSpec) -> tuple[int, int, int]:
        """The vertex count, edge count and largest component of the
        graph the spec builds, without building it.  Every other
        skeleton's chains start at a hub or on an earlier chain and join
        the hubs, so only an explicit edge list is walked for its
        components, a vertex on no edge being one of size 1."""
        hubs, chains = self.skeleton(spec)
        n = hubs + sum(edges - 1 + (end is None) for _, end, edges in chains)
        largest = n
        if self.explicit_edges:
            links: dict[int, list[int]] = {}
            for u, v in spec.edge_list:
                links.setdefault(u, []).append(v)
                links.setdefault(v, []).append(u)
            largest = 1
            while links:
                stack, size = links.popitem()[1], 1
                while stack:
                    around = links.pop(stack.pop(), None)
                    if around is not None:
                        size += 1
                        stack += around
                largest = max(largest, size)
        return n, sum(edges for _, _, edges in chains), largest


def _proved(params: Params) -> bool:
    return True


def _chord_formula(arcs: Params) -> tuple[str, Params]:
    # a unit arc puts the chord on a cycle edge
    a, b = arcs
    if min(a, b) == 1:
        return "csf_cycle", (a + b,)
    return "csf_cycle_chord", (a, b)


def _multipath_formula(lengths: Params) -> tuple[str, Params] | None:
    # one path is a path, two make a cycle, and a third of length 1 is
    # a chord; lengths are weakly decreasing
    if len(lengths) == 1:
        return "csf_path", (lengths[0] + 1,)
    if len(lengths) == 2:
        return "csf_cycle", (lengths[0] + lengths[1],)
    if len(lengths) == 3 and lengths[2] == 1:
        return _chord_formula(lengths[:2])
    return None


def _multipath_positive(lengths: Params) -> bool:
    # cycles, chorded cycles, and theta graphs with a path of length 2
    return len(lengths) <= 2 or (len(lengths) == 3 and lengths[2] <= 2)


def _tail(edges: int) -> list[Chain]:
    # a path off vertex 0 to a fresh end, or no chain when it has no edge
    return [(0, None, edges)] if edges else []


def _chord_skeleton(spec: GraphSpec) -> Skeleton:
    # the chord joins 0 and a; a unit arc's chord is a cycle edge and is dropped
    a, b = spec.params
    return 1, [(0, None, a), (a, 0, b)] + ([(0, a, 1)] if min(a, b) > 1 else [])


# hubs 0 and 1 joined by one path per length: sum(lengths) - len(lengths) + 2 vertices
_MULTIPATH = FamilyRow(None, lambda spec: (2, [(0, 1, length) for length in spec.params]),
                       _check_lengths, _multipath_formula, _multipath_positive,
                       path_lengths=True)

FAMILIES: dict[Family, FamilyRow] = {
    Family.PATH: FamilyRow(1, lambda spec: (1, _tail(spec.params[0] - 1)), _check_path,
                           lambda p: ("csf_path", p), _proved),
    Family.CYCLE: FamilyRow(1, lambda spec: (1, [(0, 0, spec.params[0])]), _check_cycle,
                            lambda p: ("csf_cycle", p), _proved),
    Family.TADPOLE: FamilyRow(
        2, lambda spec: (1, [(0, 0, spec.params[0]), *_tail(spec.params[1])]),
        _check_tadpole, lambda p: ("csf_tadpole", p), _proved),
    Family.CYCLE_CHORD: FamilyRow(2, _chord_skeleton, _check_chord, _chord_formula, _proved),
    Family.THETA: _MULTIPATH._replace(arity=3),
    Family.MULTIPATH: _MULTIPATH,
    Family.EDGES: FamilyRow(1, lambda spec: (spec.params[0], [(*e, 1) for e in spec.edge_list]),
                            lambda n: None, lambda p: None, lambda p: False,
                            explicit_edges=True),
}


def build_graph(spec: GraphSpec) -> Graph:
    return _skeleton_graph(*FAMILIES[spec.family].skeleton(spec))


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two vertices joined by three internally disjoint paths of a, b,
    and c edges."""
    return build_graph(GraphSpec(Family.THETA, (a, b, c)))


def render_graph_spec(spec: GraphSpec) -> str:
    """Inverse of the CLI spec parser, in canonical form."""
    if FAMILIES[spec.family].explicit_edges:
        pairs = ",".join(f"{u}-{v}" for u, v in spec.edge_list)
        return f"edges:{spec.params[0]};{pairs}"
    return f"{spec.family.value}:" + ",".join(str(p) for p in spec.params)


# ------------------------------------------------------------- colorings

# Total edge count over the minors one call keeps in its memo, which
# bounds both the memo's memory and the work.  path:500 holds 124 750,
# cycle:500 186 999 and K16 6 686, while path:1200 would need 719 400.
_CHROM_MAX_MEMO = 500_000

# Vertices of one graph whose coloring counts are taken at k = 0..n,
# work that grows about as n**3: verify edges:1000; takes 0.63-0.68 s on
# a 2-CPU host, edges:2000; 4.7 s, and chrompoly edges:4000; 33 s.
_COLORING_MAX_VERTICES = 1_000


def _kernel_form(n: int, edges: Iterable[Edge]):
    """Isolated-vertex count and the memo key of the rest, relabeled in
    vertex order; the key is None when no edge is left."""
    used = sorted({v for e in edges for v in e})
    if not used:
        return n, None
    relabel = {v: i for i, v in enumerate(used)}
    kernel_edges = tuple(sorted(_normalize_edge((relabel[u], relabel[v])) for u, v in edges))
    return n - len(used), (len(used), kernel_edges)


def _identified(edges: Iterable[Edge], u: int, v: int) -> set[Edge]:
    """The edges with v merged into u, dropping the loop and repeats."""
    out = set()
    for a, b in edges:
        if a == v:
            a = u
        if b == v:
            b = u
        if a != b:
            out.add(_normalize_edge((a, b)))
    return out


def _minors(key):
    """The terms a kernel's polynomial is the sum of: pairs of a factor,
    its coefficients in k from the constant up, and a kernel form.

    A vertex v of least degree picks the rule (Read, J. Combin. Theory
    4, 1968).  Degree 1 gives (k - 1) P(G - v).  Degree 2, with
    neighbours u and w, gives (k - 2) P(G - v), plus P((G - v) / uw)
    when u and w are not adjacent.  Otherwise the first edge is deleted
    and contracted: P(G - e) - P(G / e).
    """
    n, edges = key
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    least = min(degree)
    if least > 2:
        u, v = edges[0]
        rest = edges[1:]
        contracted = _kernel_form(n - 1, _identified(rest, u, v))
        return ((1,), _kernel_form(n, rest)), ((-1,), contracted)
    x = degree.index(least)
    rest = [e for e in edges if x not in e]
    removed = ((-least, 1), _kernel_form(n - 1, rest))
    if least == 1:
        return (removed,)
    # the edges are sorted, so u < w
    u, w = (a + b - x for a, b in edges if x in (a, b))
    if (u, w) in rest:
        return (removed,)
    return removed, ((1,), _kernel_form(n - 2, _identified(rest, u, w)))


def check_memo_edges(m: int) -> None:
    """Refuse a graph of m edges, more than the coloring memo may hold."""
    if m > _CHROM_MAX_MEMO:
        raise ResourceLimitError.capped("deletion-contraction", _CHROM_MAX_MEMO,
                                        "edges in its memo", f"graph has {m}")


def check_coloring_vertices(n: int) -> None:
    """Refuse coloring counts at k = 0..n for a graph of n vertices,
    more than the coloring check takes."""
    if n > _COLORING_MAX_VERTICES:
        raise ResourceLimitError.capped("coloring check", _COLORING_MAX_VERTICES,
                                        "vertices", f"graph has {n}")


@functools.lru_cache(maxsize=1)
def chromatic_polynomial(graph: Graph) -> tuple[int, ...]:
    """Exact power-basis coefficients, index i giving the k**i term.

    Built over the minors met in this call by the pendant and degree-2
    vertex rules, falling back to deletion-contraction where every
    vertex has degree 3 or more (see _minors).  The minors are memoized
    in a dict that lives for the call and driven by an explicit stack
    so long paths do not hit the interpreter's recursion limit.  The
    call raises ResourceLimitError once the minors in its memo would
    hold more than _CHROM_MAX_MEMO edges in total; a graph with more
    edges than that is refused before any minor is formed.  The last
    result is kept, so evaluating one graph at k = 0..n builds it once.
    """
    check_memo_edges(graph.m)
    memo: dict[tuple[int, tuple[Edge, ...]], tuple[int, ...]] = {}

    def padded(form) -> tuple[int, ...]:
        isolated, key = form
        return (0,) * isolated + (memo[key] if key is not None else (1,))

    top = _kernel_form(graph.n, graph.edges)
    stack = [(top[1], None)]
    held = 0
    while stack:
        key, minors = stack.pop()
        if key is None or key in memo:
            continue
        if minors is None:
            held += len(key[1])
            if held > _CHROM_MAX_MEMO:
                raise ResourceLimitError.capped("deletion-contraction", _CHROM_MAX_MEMO,
                                                "edges in its memo", "this graph needs more")
            minors = _minors(key)
            stack.append((key, minors))
            stack.extend((k, None) for _, (_, k) in minors)
        else:
            poly = [0] * (key[0] + 1)
            for factor, form in minors:
                child = padded(form)
                for i, a in enumerate(factor):
                    for j, b in enumerate(child, i):
                        poly[j] += a * b
            memo[key] = tuple(poly)
    return padded(top)


def count_proper_colorings(graph: Graph, k: int) -> int:
    """Number of maps from vertices to k colors with no monochromatic
    edge: the chromatic polynomial evaluated at k by Horner's rule.
    Computed by the vertex rules and deletion-contraction, independently
    of any symmetric-function machinery."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"color count must be int, got {k!r}")
    if k < 0:
        raise ValueError(f"color count must be nonnegative, got {k}")
    total = 0
    for coeff in reversed(chromatic_polynomial(graph)):
        total = total * k + coeff
    return total


# ------------------------------------------------------ stable partitions

_STABLE_MAX_VERTICES = 12


def check_stable_vertices(n: int) -> None:
    """Refuse a graph of n vertices, more than the stable-partition
    search takes."""
    if n > _STABLE_MAX_VERTICES:
        raise ResourceLimitError.capped("stable-partition search", _STABLE_MAX_VERTICES,
                                        "vertices", f"graph has {n}")


def stable_partition_types(graph: Graph) -> set[Partition]:
    """All partition shapes realized by partitions of the vertex set
    into independent blocks.

    One search, memoized for the call, answers every shape: a key of
    uncovered vertices and block sizes left has one answer, whichever
    shape reached it.  Exponential in n; refuses graphs above
    _STABLE_MAX_VERTICES vertices.
    """
    n = graph.n
    check_stable_vertices(n)
    adj = graph.adjacency_masks()
    memo: dict[tuple[int, Partition], bool] = {}

    def solve(uncovered: int, sizes: Partition) -> bool:
        if not uncovered:
            return True
        key = (uncovered, sizes)
        if key not in memo:
            anchor = (uncovered & -uncovered).bit_length() - 1
            memo[key] = any(solve(uncovered & ~block, sizes[:i] + sizes[i + 1:])
                            for i, s in enumerate(sizes) if not (i and sizes[i - 1] == s)
                            for block in _independent_blocks(adj, anchor, uncovered, s))
        return memo[key]

    return {lam for lam in partitions(n) if solve((1 << n) - 1, lam)}


def _independent_blocks(adj, anchor: int, pool: int, size: int):
    """Independent sets of the given size inside pool containing anchor.

    Candidates are restricted to vertices above the last chosen one, so
    each block is produced once.
    """
    start = pool & ~adj[anchor] & ~((1 << (anchor + 1)) - 1)

    def extend(block: int, cand: int, left: int):
        if left == 0:
            yield block
            return
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            yield from extend(block | low, cand & ~adj[w], left - 1)

    yield from extend(1 << anchor, start, size - 1)


def is_nice(graph: Graph) -> tuple[bool, tuple[Partition, Partition] | None]:
    """Whether the attained stable-partition shapes are downward closed
    under dominance.

    Returns (True, None) or (False, (attained, missing)) where missing
    is dominated by attained yet not realized.  Scans shapes in
    descending lexicographic order, so the witness is deterministic.
    """
    attained = stable_partition_types(graph)
    shapes = list(partitions(graph.n))
    for lam in shapes:
        if lam not in attained:
            continue
        for mu in shapes:
            if mu not in attained and dominance_leq(mu, lam):
                return (False, (lam, mu))
    return (True, None)
