"""Compositions, partitions, and the interval statistics behind the
closed chromatic-symmetric-function formulas.

Everything here is exact integer arithmetic on tuples.  A composition
of n is an ordered tuple of positive parts summing to n; a partition is
the same with parts weakly decreasing.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

Composition = tuple[int, ...]
Partition = tuple[int, ...]

_TAILS: list[tuple[Composition, ...]] = [()]
# per tail t of _TAILS[m]: whether the weights of t and of (1,) + t are nonzero
_FLAGS: list[tuple[bytes, bytes]] = [(b"", b"")]


def _blocks(n: int) -> Iterator[Iterable[Composition]]:
    stack = [((), n)]
    while stack:
        prefix, m = stack.pop()
        if m < len(_TAILS):
            yield map(prefix.__add__, _TAILS[m])
        else:
            yield (prefix + (m,),)
            stack.extend([(prefix + (j,), m - j) for j in range(1, m)])


def _grow(n: int) -> None:
    if n < 1:
        raise ValueError(f"compositions are indexed by n >= 1, got {n}")
    while len(_TAILS) <= min(n, 10):
        tails = tuple(chain.from_iterable(_blocks(len(_TAILS))))
        _FLAGS.append((bytes(composition_weight(t) != 0 for t in tails),
                       bytes(composition_weight((1,) + t) != 0 for t in tails)))
        _TAILS.append(tails)


def compositions(n: int) -> Iterator[Composition]:
    """Return the 2**(n-1) compositions of n, each once, lazily.

    The order is lexicographic on the cut-point bitmask: composition
    number m (0 <= m < 2**(n-1)), read as an (n-1)-bit string from the
    most significant end, has a part boundary after position j exactly
    when bit j of that string is set.  So n comes first, then (n-1, 1),
    and (1,)*n comes last.  That is (n), then for j = n-1 down to 1 the
    block (j,) + c for every composition c of n-j.  A block of n-j <= 10
    maps a tuple concatenation in C over _TAILS[n-j], built on first use
    (up to 1 023 tuples, 0.1 MB, once per process); a larger n-j splits
    again by its first part.
    """
    _grow(n)
    return chain.from_iterable(_blocks(n))


def _flag_blocks(n: int) -> Iterator[Iterable[int]]:
    stack = [((), n)]
    while stack:
        prefix, m = stack.pop()
        if prefix and not composition_weight(prefix):
            yield repeat(0, 1 << (m - 1))
        elif m < len(_TAILS):
            yield _FLAGS[m][prefix != ()]
        else:
            yield (int(composition_weight(prefix + (m,)) != 0),)
            stack.extend([(prefix + (j,), m - j) for j in range(1, m)])


def weight_flags(n: int) -> Iterator[int]:
    """Return, lazily and aligned with compositions(n), 1 for each
    composition whose composition_weight is nonzero and 0 for the rest.

    A weight is a product over parts, so prefix + t weighs nonzero
    exactly when prefix and (1,) + t do.  Over the blocks of
    compositions(n), one over _TAILS[m] reads its _FLAGS row, and a
    prefix of weight 0 gives 2**(m-1) zeros for its subtree: a run that
    follows about as many other flags, so repeat() can always count it.
    """
    _grow(n)
    return chain.from_iterable(_flag_blocks(n))


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of n in descending lexicographic order.

    partitions(0) yields exactly the empty partition.  max_part, when
    given, caps the largest part.
    """
    if n < 0:
        raise ValueError(f"partitions are indexed by n >= 0, got {n}")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_of(parts: Composition) -> Partition:
    """Underlying partition: the parts sorted weakly decreasing."""
    return tuple(sorted(parts, reverse=True))


def composition_weight(comp: Composition) -> int:
    """First part times (part - 1) over the remaining parts.

    Zero exactly when some part after the first equals 1.
    """
    w = comp[0]
    for p in comp[1:]:
        w *= p - 1
    return w


def _check_point(comp: Composition, a: int) -> int:
    n = sum(comp)
    if not isinstance(a, int):
        raise TypeError(f"reference point must be an integer, got {a!r}")
    if not 0 <= a <= n:
        raise ValueError(f"reference point must lie in [0, {n}], got {a}")
    return n


def surplus(comp: Composition, a: int) -> int:
    """Distance from a up to the nearest prefix sum of comp.

    Prefix sums include 0 and the total, so the value is defined for
    any a in [0, n] and is zero exactly when a is itself a prefix sum.
    """
    _check_point(comp, a)
    acc = 0
    for p in comp:
        if acc >= a:
            break
        acc += p
    return acc - a


class SplitParams(NamedTuple):
    """Where a cut point b lands inside a composition, read two ways.

    (p, s): b sits at offset s inside part p, so b = i_1 + ... +
    i_(p-1) + s with 1 <= s <= i_p.
    (q, t): the same point located by prefix sums of the rotated
    sequence i_2, ..., i_z, i_1, so b = i_2 + ... + i_q + t with
    1 <= t <= i_(q+1), indices cyclic (part z+1 means part 1).
    """

    p: int
    s: int
    q: int
    t: int


def _locate(parts: Composition, x: int) -> tuple[int, int]:
    # the part x falls in, counted from 1, and x's offset inside it
    acc = 0
    for idx, part in enumerate(parts, start=1):
        if acc + part >= x:
            return idx, x - acc
        acc += part


def split_params(comp: Composition, b: int) -> SplitParams:
    """Locate b in [1, n-1] inside comp by both prefix-sum readings.

    (q + 1, t) is where b + i_1 falls in i_1, ..., i_z, i_1, the tiling
    that segment_dissection draws."""
    n = sum(comp)
    if not 1 <= b <= n - 1:
        raise ValueError(f"cut point must lie in [1, {n - 1}], got {b}")
    p, s = _locate(comp, b)
    q, t = _locate(comp + comp[:1], b + comp[0])
    return SplitParams(p, s, q - 1, t)


def e2_sym(values) -> int:
    """Second elementary symmetric polynomial: sum of products of pairs."""
    xs = tuple(values)
    if len(xs) < 2:
        raise ValueError(f"need at least two values, got {len(xs)}")
    total = sum(xs)
    return (total * total - sum(x * x for x in xs)) // 2


def chord_weight(comp: Composition, b: int) -> int:
    """Coefficient weight of a composition in the cycle-with-chord
    expansion, for a chord splitting the cycle at distance b.

    Case split on the two readings of split_params: when the rotated
    index lags (q = p - 1, equivalently i_1 <= i_p - s) the weight is
    s * (i_p - s - i_1); otherwise it is e2_sym of the chain
    (i_p - s, i_(p+1), ..., i_q, t).  Always nonnegative.
    """
    n = sum(comp)
    if not 2 <= b <= n - 2:
        if n < 4:
            raise ValueError(f"a chord needs at least 4 vertices, composition has {n}")
        raise ValueError(f"chord distance must lie in [2, {n - 2}], got {b}")
    p, s, q, t = split_params(comp, b)
    i1 = comp[0]
    ip = comp[p - 1]
    if i1 <= ip - s:
        return s * (ip - s - i1)
    return e2_sym((ip - s,) + comp[p:q] + (t,))


class SegmentDissection(NamedTuple):
    """The interval (0, n + i_1] tiled by segments of lengths i_1, i_2,
    ..., i_z, i_1, together with the window (b, b + i_1].

    Segments and window are half-open integer intervals (x, y].
    """

    segments: tuple[tuple[int, int], ...]
    window: tuple[int, int]

    def window_inside(self) -> tuple[int, int] | None:
        """The segment containing the whole window, if there is one."""
        lo, hi = self.window
        for x, y in self.segments:
            if x <= lo and hi <= y:
                return (x, y)
        return None

    def overlaps(self) -> tuple[int, ...]:
        """Lengths of the nonempty intersections of window and segments."""
        lo, hi = self.window
        out = []
        for x, y in self.segments:
            length = min(y, hi) - max(x, lo)
            if length > 0:
                out.append(length)
        return tuple(out)


def segment_dissection(comp: Composition, b: int) -> SegmentDissection:
    n = sum(comp)
    if not 1 <= b <= n - 1:
        raise ValueError(f"cut point must lie in [1, {n - 1}], got {b}")
    i1 = comp[0]
    segs = []
    x = 0
    for length in comp + (i1,):
        segs.append((x, x + length))
        x += length
    return SegmentDissection(tuple(segs), (b, b + i1))


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Dominance order on partitions of the same number: every prefix
    sum of mu is at most the corresponding prefix sum of lam."""
    if sum(mu) != sum(lam):
        raise ValueError("dominance compares partitions of the same number")
    acc_m = acc_l = 0
    for k in range(max(len(mu), len(lam))):
        acc_m += mu[k] if k < len(mu) else 0
        acc_l += lam[k] if k < len(lam) else 0
        if acc_m > acc_l:
            return False
    return True
