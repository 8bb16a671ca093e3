"""Second routes to quantities the package computes one way.

Each function here recomputes something by a different argument than
the production code: the compositions decoded from their cut
bitmasks, the two readings of a cut point by two separate walks, the
signed chord weight, the segment picture of the chord weight, the
arrangement counts by first part, Newton's recurrence for the power
sums, Stanley's edge-subset sum one subset at a time and carried edge
by edge, a chain's cut terms with both ends placed for every split,
products by sorting joined partitions, the chromatic polynomial by
deletion-contraction alone, the composition sums with
every weight multiplied out, the principal specialization one part at
a time, and so on.  The
three-edge deletion identities are here too: they are paper identities
that only the tests check.
They exist only to cross-check the package, so they live beside the
tests and not in it.  The file name does not start with test_, so
pytest imports it without collecting it.
"""

import itertools
import math
from typing import Iterator, Mapping, Sequence

from chromsym.compositions import (
    Composition,
    Partition,
    SplitParams,
    _check_point,
    e2_sym,
    segment_dissection,
    surplus,
)
from chromsym.engine import _aggregate, _place, csf_oracle
from chromsym.graphs import Edge, Graph, _normalize_edge
from chromsym.symfunc import Basis, SymFunc, _pack, _unpack, _width, p_to_e

# ----------------------------------------------------------- compositions


def composition_by_mask(n: int, mask: int) -> Composition:
    """Decode composition number mask of n: read as an (n-1)-bit string
    from the most significant end, bit j set means a part boundary
    after position j."""
    parts = []
    prev = 0
    for cut in range(1, n):
        if mask >> (n - 1 - cut) & 1:
            parts.append(cut - prev)
            prev = cut
    parts.append(n - prev)
    return tuple(parts)


def compositions_by_mask(n: int) -> Iterator[Composition]:
    """The compositions of n in the documented order, each decoded from
    its own cut bitmask rather than stepped from the one before."""
    for mask in range(1 << (n - 1)):
        yield composition_by_mask(n, mask)


def reverse(comp: Composition) -> Composition:
    return comp[::-1]


def reverse_tail(comp: Composition) -> Composition:
    """Fix the first part and reverse the rest.

    An involution on compositions that preserves both the underlying
    partition and composition_weight, and swaps the two split indices
    used by the chord-weight formula.
    """
    return comp[:1] + comp[:0:-1]


def deficiency(comp: Composition, a: int) -> int:
    """Distance from a down to the nearest prefix sum of comp.

    Mirror of surplus: deficiency(comp, a) equals
    surplus(reverse(comp), n - a).
    """
    _check_point(comp, a)
    acc = 0
    for p in comp:
        if acc + p > a:
            break
        acc += p
    return a - acc


def split_params_by_two_loops(comp: Composition, b: int) -> SplitParams:
    """split_params by one walk over the parts for (p, s) and a second
    over the rotated parts i_2, ..., i_z, i_1, by a cyclic index, for
    (q, t)."""
    n = sum(comp)
    if not 1 <= b <= n - 1:
        raise ValueError(f"cut point must lie in [1, {n - 1}], got {b}")
    z = len(comp)
    acc = 0
    for p, part in enumerate(comp, start=1):
        if acc + part >= b:
            s = b - acc
            break
        acc += part
    acc = 0
    for q in range(1, z + 1):
        # part q+1 in the rotated reading, cyclically
        nxt = comp[q % z]
        if acc + nxt >= b:
            t = b - acc
            break
        acc += nxt
    return SplitParams(p, s, q, t)


def chord_weight_by_segments(comp: Composition, b: int) -> int:
    """chord_weight computed from the segment picture.

    If the window lies inside a single segment the weight is the
    product of the two leftover lengths on either side (zero exactly
    when the window is flush against a segment boundary); otherwise it
    is e2_sym of the nonempty window-segment intersection lengths.
    """
    n = sum(comp)
    if not 2 <= b <= n - 2:
        raise ValueError(f"chord distance must lie in [2, {n - 2}], got {b}")
    d = segment_dissection(comp, b)
    seg = d.window_inside()
    if seg is not None:
        lo, hi = d.window
        return (lo - seg[0]) * (seg[1] - hi)
    return e2_sym(d.overlaps())


# --------------------------------------------------------------- formulas


def signed_chord_weight(comp: Composition, b: int) -> int:
    """Telescoped coefficient for the chorded cycle: the sum of
    surpluses at 1..b minus the sum of reversed deficiencies at
    1..b-1.  Agrees with chord_weight on [2, n-2] but individual
    values may be negative outside the window where both are defined.
    """
    n = sum(comp)
    if not 1 <= b <= n - 1:
        raise ValueError(f"chord distance must lie in [1, {n - 1}], got {b}")
    rev = comp[::-1]
    up = sum(surplus(comp, i) for i in range(1, b + 1))
    down = sum(deficiency(rev, i) for i in range(1, b))
    return up - down


def csf_cycle_chord_signed(a: int, b: int) -> SymFunc:
    """Same function as csf_cycle_chord, computed from the alternating
    surplus/deficiency coefficients instead of the split-point case
    analysis.  Valid for any arcs a, b >= 1 with a + b >= 3."""
    if a < 1 or b < 1:
        raise ValueError(f"both arcs need at least one edge, got ({a}, {b})")
    n = a + b
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return _aggregate(n, lambda comp: signed_chord_weight(comp, b))


def aggregate_every_composition(n: int, coeff) -> SymFunc:
    """The e-expansion sum of coeff(comp) * weight(comp) over every
    composition of n, each decoded from its cut bitmask and weighted by
    i_1 * (i_2 - 1) * ... * (i_z - 1) multiplied out, with no screen for
    the weights that vanish.  coeff is asked only where the weight is
    nonzero, since a vanishing weight makes its value irrelevant."""
    acc: dict[Partition, int] = {}
    for comp in compositions_by_mask(n):
        w = comp[0] * math.prod(p - 1 for p in comp[1:])
        if w:
            lam = tuple(sorted(comp, reverse=True))
            acc[lam] = acc.get(lam, 0) + coeff(comp) * w
    return SymFunc(Basis.ELEMENTARY, acc)


# ----------------------------------------------------------------- graphs
# Bare parent/size arrays with union by size.


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _absorb(parent: list[int], size: list[int], edges, mask: int) -> None:
    """Union the edges selected by mask into the parent/size arrays."""
    idx = 0
    while mask:
        if mask & 1:
            u, v = edges[idx]
            ru = _find(parent, u)
            rv = _find(parent, v)
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
        mask >>= 1
        idx += 1


def _root_sizes(parent: list[int], size: list[int]) -> Partition:
    roots = (size[v] for v in range(len(parent)) if parent[v] == v)
    return tuple(sorted(roots, reverse=True))


def csf_by_edge_subsets(graph: Graph) -> SymFunc:
    """Chromatic symmetric function by Stanley's signed edge-subset
    sum, one subset at a time: each of the 2**m subsets contributes its
    sign times the power sum indexed by the component sizes of the
    spanning subgraph it keeps."""
    acc: dict[Partition, int] = {}
    for mask in range(1 << graph.m):
        parent = list(range(graph.n))
        size = [1] * graph.n
        _absorb(parent, size, graph.edges, mask)
        shape = _root_sizes(parent, size)
        acc[shape] = acc.get(shape, 0) + (-1) ** mask.bit_count()
    return p_to_e(SymFunc(Basis.POWERSUM, acc))


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


def csf_by_edge_transfer(graph: Graph) -> SymFunc:
    """Chromatic symmetric function by Stanley's signed edge-subset sum,
    carried across the edges one at a time in depth-first order.

    A state holds the block label of each live vertex (touched, and not
    past its last edge), the size of each block, and the packed
    multiset of closed component sizes; it maps to a signed count.  Each
    edge is skipped, or kept with the sign flipped, merging its
    endpoints' blocks; kept inside one block it cancels the skip, so
    such states drop out.  A vertex past its last edge retires, and a
    block left with no live vertex closes into the multiset.  It has no
    work bound.
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
        frontier = [w for p, w in enumerate(frontier) if p not in retired]
    # every vertex has retired, so the packed multiset alone keys a state
    acc = {_unpack(packed, bits): count for (_, _, packed), count in states.items()}
    return p_to_e(SymFunc._trusted(Basis.POWERSUM, acc))


def cut_terms_by_splits(sizes, slots, r: int, free, base: int, w: int) -> dict[int, int]:
    """engine._cut_terms with both ends placed anew for every split:
    for each t of the r interior vertices that attach to the ends, and
    each way x + (t - x) two blocks share them, the offset of the grown
    blocks, with sign (-1)**t, shifts the free middle free[r - t].  One
    block takes all t in t + 1 ways, and r ways at t = r."""
    terms: dict[int, int] = {}
    get = terms.get
    for t in range(r + 1):
        splits: dict[int, int] = {}
        if len(sizes) == 1:
            coeff = (-1) ** t * (t + 1 if t < r else r)
            splits[_place(sizes[0] + t, slots[0], base, w)] = coeff
        else:
            for x in range(t + 1):
                split = _place(sizes[0] + x, slots[0], base, w) + _place(
                    sizes[1] + t - x, slots[1], base, w
                )
                splits[split] = splits.get(split, 0) + (-1) ** t
        for split, coeff in splits.items():
            for key, c in free[r - t].items():
                key += split
                terms[key] = get(key, 0) + coeff * c
    return terms


def chromatic_polynomial_by_deletion_contraction(graph: Graph) -> tuple[int, ...]:
    """Coefficients of k**0, k**1, ..., k**n by P(G) = P(G - e) - P(G / e)
    on the lowest edge alone, down to k**(vertex count) on no edges;
    minors are memoized by their vertex count and edge set, with the
    contracted edge's higher end merged into its lower."""
    memo: dict[tuple[int, frozenset[Edge]], tuple[int, ...]] = {}

    def poly(n: int, edges: frozenset[Edge]) -> tuple[int, ...]:
        if not edges:
            return (0,) * n + (1,)
        key = (n, edges)
        if key not in memo:
            u, v = min(edges)
            rest = edges - {(u, v)}
            merged = frozenset(
                _normalize_edge((u if a == v else a, u if b == v else b)) for a, b in rest
            )
            deleted, contracted = poly(n, rest), poly(n - 1, merged)
            memo[key] = tuple(d - (contracted[i] if i < len(contracted) else 0)
                              for i, d in enumerate(deleted))
        return memo[key]

    return poly(graph.n, frozenset(graph.edges))


def component_partition(graph: Graph, subset: Sequence[Edge]) -> Partition:
    """Component sizes of the spanning subgraph keeping only subset."""
    known = set(graph.edges)
    edges = [_normalize_edge(e) for e in subset]
    for e in edges:
        if e not in known:
            raise ValueError(f"edge {e} is not in the graph")
    parent = list(range(graph.n))
    size = [1] * graph.n
    _absorb(parent, size, edges, (1 << len(edges)) - 1)
    return _root_sizes(parent, size)


# ------------------------------------------------------- symmetric functions


def monomial(basis: Basis, lam, coeff: int = 1) -> SymFunc:
    """Single term coeff * basis_lam."""
    return SymFunc(basis, {tuple(lam): coeff})


def multiply_by_sorting(
    out: dict[Partition, int],
    f: Mapping[Partition, int],
    g: Mapping[Partition, int],
    scale: int = 1,
) -> None:
    """out += scale * f * g on partition keys, in a multiplicative basis:
    the product of two basis elements sorts their joined parts."""
    for lam, a in f.items():
        for mu, b in g.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, 0) + scale * a * b


def principal_specialization_by_parts(f: SymFunc, k: int) -> int:
    """e_lam at k ones is the product of comb(k, m) over the parts m of
    lam, multiplied in one part at a time."""
    total = 0
    for lam, c in f.terms.items():
        for m in lam:
            c *= math.comb(k, m)
        total += c
    return total


def from_json_dict(data: dict) -> SymFunc:
    basis = Basis(data["basis"])
    return SymFunc(basis, {tuple(lam): c for lam, c in data["terms"]})


def arrangement_table_by_first_part(w: int, top: int) -> list[dict[int, int]]:
    """A_0, ..., A_top on packed keys at width w, by the compositions'
    first part: one of r with first part j leaves one of r - j, so A_r
    is the sum over j of (-1)**(j - 1) times A_(r - j) with a part j
    added to every key."""
    table = [{0: 1}]
    for r in range(1, top + 1):
        row: dict[int, int] = {}
        for j in range(1, r + 1):
            part = 1 << (j - 1) * w
            for key, c in table[r - j].items():
                row[key + part] = row.get(key + part, 0) + (-1) ** (j - 1) * c
        table.append(row)
    return table


_NEWTON_IMAGE: dict[int, SymFunc] = {}


def power_image_by_newton(m: int) -> SymFunc:
    """Elementary-basis image of the degree-m power sum.

    Newton's recurrence: p_m = sum_{i=1}^{m-1} (-1)^(i-1) e_i p_(m-i)
    + (-1)^(m-1) m e_m, starting from p_1 = e_1.
    """
    cached = _NEWTON_IMAGE.get(m)
    if cached is not None:
        return cached
    if m == 1:
        image = monomial(Basis.ELEMENTARY, (1,))
    else:
        image = monomial(Basis.ELEMENTARY, (m,), (-1) ** (m - 1) * m)
        for i in range(1, m):
            step = monomial(Basis.ELEMENTARY, (i,), (-1) ** (i - 1))
            image = image + step * power_image_by_newton(m - i)
    _NEWTON_IMAGE[m] = image
    return image


# ------------------------------------------------------ triple deletion


def triple_split_graphs(graph: Graph, v1: int, v2: int, v3: int) -> dict[frozenset, Graph]:
    """The eight graphs made by adding any subset of the three edges
    v1v2, v1v3, v2v3 between pairwise non-adjacent vertices.

    Keys are frozensets over {1, 2, 3} naming which of the three edges
    (in that order) are present.
    """
    trio = (v1, v2, v3)
    if len(set(trio)) != 3:
        raise ValueError(f"need three distinct vertices, got {trio}")
    present = set(graph.edges)
    links = {1: (v1, v2), 2: (v1, v3), 3: (v2, v3)}
    for e in links.values():
        if _normalize_edge(e) in present:
            raise ValueError(f"vertices {e} are already adjacent")
    out = {}
    for r in range(4):
        for chosen in itertools.combinations((1, 2, 3), r):
            extra = tuple(links[i] for i in chosen)
            out[frozenset(chosen)] = Graph(graph.n, graph.edges + extra)
    return out


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
