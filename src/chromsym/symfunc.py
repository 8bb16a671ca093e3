"""Sparse symmetric functions with exact integer coefficients.

A SymFunc is a finite integer combination of basis elements indexed by
partitions, in either the elementary basis or the power-sum basis.
Coefficients are Python ints, so nothing ever overflows or rounds.

Products and conversion run on packed keys: a partition of degree at
most n becomes the int sum of m_i << ((i - 1) * w), where m_i is the
multiplicity of part i and w = n.bit_length(), so the product of two
basis elements is one integer addition.  A digit never carries, since
a multiplicity is at most the degree, which is below 2**w.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .compositions import Partition
from .graphs import ResourceLimitError


class Basis(Enum):
    ELEMENTARY = "e"
    POWERSUM = "p"


def term_sort_key(lam: Partition):
    """Canonical term order: total degree descending, then the index
    partitions in descending lexicographic order."""
    return (-sum(lam), tuple(-p for p in lam))


def _validated_terms(terms) -> dict[Partition, int]:
    clean: dict[Partition, int] = {}
    for lam, c in terms.items():
        lam = tuple(lam)
        if any(type(p) is not int for p in lam):
            raise TypeError(f"partition parts must be int, got {lam!r}")
        if any(p < 1 for p in lam):
            raise ValueError(f"partition parts must be positive: {lam}")
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"partition key must be weakly decreasing: {lam}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"coefficients must be int, got {c!r}")
        if c:
            clean[lam] = c
    return clean


class SymFunc:
    """Immutable sparse symmetric function.

    terms maps partitions to nonzero integer coefficients; zero
    coefficients are dropped on construction.  Arithmetic stays inside
    one basis and raises on a mismatch.
    """

    __slots__ = ("basis", "_terms")

    def __init__(self, basis: Basis, terms: Mapping[Partition, int] | None = None):
        if not isinstance(basis, Basis):
            raise TypeError(f"expected a Basis member, got {basis!r}")
        self.basis = basis
        self._terms = _validated_terms(terms or {})

    @classmethod
    def zero(cls, basis: Basis) -> "SymFunc":
        return cls(basis, {})

    @classmethod
    def _trusted(cls, basis: Basis, terms: dict[Partition, int]) -> "SymFunc":
        """Internal constructor for terms already keyed by canonical
        partitions with int coefficients; only zeros are dropped."""
        f = object.__new__(cls)
        f.basis = basis
        f._terms = {lam: c for lam, c in terms.items() if c}
        return f

    @property
    def terms(self) -> Mapping[Partition, int]:
        return MappingProxyType(self._terms)

    def coefficient(self, lam: Iterable[int]) -> int:
        return self._terms.get(tuple(lam), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> tuple[Partition, ...]:
        """Index partitions with nonzero coefficient, in term order."""
        return tuple(sorted(self._terms, key=term_sort_key))

    def sorted_terms(self) -> tuple[tuple[Partition, int], ...]:
        return tuple((lam, self._terms[lam]) for lam in self.support())

    def _check_basis(self, other: "SymFunc") -> None:
        if self.basis is not other.basis:
            raise ValueError(
                f"cannot combine {self.basis.value}-basis and "
                f"{other.basis.value}-basis functions"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.basis is other.basis and self._terms == other._terms

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_basis(other)
        out = dict(self._terms)
        for lam, c in other._terms.items():
            out[lam] = out.get(lam, 0) + c
        return SymFunc._trusted(self.basis, out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SymFunc":
        return self.scale(-1)

    def scale(self, c: int) -> "SymFunc":
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"scalar must be int, got {c!r}")
        if c == 0:
            return SymFunc.zero(self.basis)
        return SymFunc._trusted(self.basis, {lam: c * v for lam, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.scale(other)
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_basis(other)
        if self.basis is not Basis.ELEMENTARY:
            raise ValueError("products are implemented in the elementary basis only")
        w = _width(_degree(self._terms) + _degree(other._terms))
        out: dict[int, int] = {}
        _multiply_into(out, _packed(self._terms, w), _packed(other._terms, w))
        return SymFunc._trusted(self.basis, _unpacked(out, w))

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"SymFunc({self.basis.value!r}, {render_text(self)!r})"


# ---------------------------------------------------------- packed keys

def _width(degree: int) -> int:
    """Bits per digit of a packed key for partitions of at most this
    degree: enough for a multiplicity equal to the degree."""
    return degree.bit_length()


def _pack(lam: Partition, w: int) -> int:
    """Key of a partition: sum of m_i << ((i - 1) * w) over its parts."""
    key = 0
    for p in lam:
        key += 1 << (p - 1) * w
    return key


def _unpack(key: int, w: int) -> Partition:
    """Partition of a packed key, parts weakly decreasing.  The digits
    are read from the top, found by the key's bit_length, one step per
    distinct part, so the parts come out in order."""
    parts: Partition = ()
    while key:
        part = (key.bit_length() - 1) // w
        shift = part * w
        parts += (part + 1,) * (key >> shift)
        key &= (1 << shift) - 1
    return parts


def _degree(terms: Mapping[Partition, int]) -> int:
    """Largest degree of a term, 0 when there is none."""
    return max(map(sum, terms), default=0)


def _packed(terms: Mapping[Partition, int], w: int) -> dict[int, int]:
    return {_pack(lam, w): c for lam, c in terms.items()}


def _unpacked(terms: Mapping[int, int], w: int) -> dict[Partition, int]:
    """Nonzero terms keyed by partitions."""
    return {_unpack(key, w): c for key, c in terms.items() if c}


def _multiply_into(out: dict[int, int], f: Mapping[int, int], g: Mapping[int, int]) -> None:
    """out += f * g, for packed terms in a multiplicative basis
    (e or p), where the product of two basis elements joins their parts,
    which adds their keys.  All three share one width, wide enough for
    the degree of the product.  The smaller factor is the outer loop,
    and its zero coefficients are skipped; a zero of the other factor,
    or a term that cancels, stays in out as a zero until _unpacked
    drops it."""
    if len(f) > len(g):
        f, g = g, f
    get = out.get
    inner = g.items()
    for lam, a in f.items():
        if a:
            for mu, b in inner:
                key = lam + mu
                out[key] = get(key, 0) + a * b


# ------------------------------------------------------- basis conversion

# Terms one accumulator of p_to_e, or one A_r of the shared table, may
# hold.  At degree n an accumulator holds at most the p(n) partitions of
# n: p(41) = 44 583 fits (a 41-cycle, 5.5 s and 85 MB on a 2-CPU host),
# p(42) = 53 174 does not, nor do A_42 and the image of p_42.
_P_TO_E_MAX_TERMS = 50_000

# Per-process tables on packed keys, one pair per digit width w: the
# signed arrangement counts A_0, A_1, ... and the elementary images of
# the power sums p_0, p_1, ....  A_r holds every partition of r, so a
# table grows only as far as a caller asks: p_to_e up to the largest part
# of its input, the oracle to its longest chain, and the spec check to
# the largest component.
_TABLES: dict[int, tuple[list[dict[int, int]], list[dict[int, int]]]] = {}


def _arrangement_table(w: int, top: int) -> list[dict[int, int]]:
    """A_0, ..., A_top (or more) at width w, for top below 2**w: A_r
    maps the key of each partition mu of r to (-1)**(r - l(mu)) *
    l(mu)! / prod m_i(mu)!, the signed number of compositions of r that
    rearrange mu's parts.

    It is the power-sum expansion of the path on r vertices (an edge
    subset leaving k components cuts the path into a composition of r
    with k parts, with sign (-1)**(r - k)).  Each mu is made once, from
    nu, mu less one copy of its largest part k: A_r(mu) = (-1)**(k - 1)
    * A_(r - k)(nu) * l(mu) / m_k(mu), exactly, where l(mu) - 1 is nu's
    digit sum, its key mod 2**w - 1 (as l(nu) < top < 2**w), and
    m_k(mu) - 1 is nu's digit k.  Filled with k ascending, a row lists
    its keys by largest part, so those nu are the prefix of A_(r - k)
    below 1 << k * w.  The one check on the table's size: the first A_r
    with more than _P_TO_E_MAX_TERMS entries, as many as the image of
    p_r has, is refused before it is kept.
    """
    arrangements = _TABLES.setdefault(w, ([{0: 1}], [{0: 1}]))[0]
    digits = (1 << w) - 1
    while len(arrangements) <= top:
        r = len(arrangements)
        out: dict[int, int] = {}
        for k in range(1, r + 1):
            shift = (k - 1) * w
            part, bound = 1 << shift, 1 << shift + w
            sign = 1 if k % 2 else -1
            for key, c in arrangements[r - k].items():
                if key >= bound:
                    break
                out[key + part] = sign * c * (key % digits + 1) // ((key >> shift & digits) + 1)
        if len(out) > _P_TO_E_MAX_TERMS:
            raise ResourceLimitError.capped("p_to_e", _P_TO_E_MAX_TERMS, "accumulator terms",
                                            f"the image of p_{r} has {len(out)}")
        arrangements.append(out)
    return arrangements


def _image_table(w: int, top: int) -> list[dict[int, int]]:
    """Elementary images of p_0, ..., p_top (or more) at width w, for
    top below 2**w, in closed form: p_k = sum over mu of k of
    (k / l(mu)) * A_k(mu) e_mu (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2).  l(mu) is the digit sum of mu's key, which is
    the key modulo 2**w - 1, read as 2**w - 1 when that is 0, since
    1 <= l(mu) <= k < 2**w."""
    arrangements = _arrangement_table(w, top)
    images = _TABLES[w][1]
    digits = (1 << w) - 1
    while len(images) <= top:
        k = len(images)
        images.append({
            key: k * c // (key % digits or digits) for key, c in arrangements[k].items()
        })
    return images


def p_to_e(f: SymFunc) -> SymFunc:
    """Rewrite a power-sum-basis function in the elementary basis.

    Horner's rule on the largest part: f = c_() + sum over k of p_k *
    f_k, where f_k collects the terms with one part k taken off, each
    converted the same way.  Walked in descending order, the terms
    that share a prefix of parts come together, so one packed
    e-accumulator per part of the current prefix suffices: when the
    walk leaves a part k, its accumulator is multiplied by the image of
    p_k into the one below.  Parts equal to 1 never enter the walk:
    p_1 = e_1, so a trailing run of m ones adds to key m (e_1^m) where
    the other parts lead, a key a deeper term may already hold.  The
    stack is explicit, so a term with thousands of parts stays off the
    interpreter's recursion limit.  ResourceLimitError once a product
    leaves an accumulator with more than _P_TO_E_MAX_TERMS terms; one by
    the image of p_k leaves at least its p(k) terms, as many as A_k has,
    so the table refuses the first A_k past the budget as it grows,
    before any image or product.
    """
    if f.basis is not Basis.POWERSUM:
        raise ValueError("p_to_e expects a power-sum-basis input")
    terms = sorted(f._terms.items(), reverse=True)
    w = _width(_degree(f._terms))
    # the first partition in descending order holds the largest part
    top = terms[0][0][0] if terms and terms[0][0] else 0
    images = _image_table(w, top)
    prefix: list[int] = []
    stack: list[dict[int, int]] = [{}]

    def leave(depth: int) -> None:
        while len(prefix) > depth:
            acc, below = stack.pop(), stack[-1]
            _multiply_into(below, images[prefix.pop()], acc)
            if len(below) > _P_TO_E_MAX_TERMS:
                raise ResourceLimitError.capped("p_to_e", _P_TO_E_MAX_TERMS, "accumulator terms",
                                                f"a product made {len(below)}")

    for lam, c in terms:
        ones = lam.count(1)
        lam = lam[:len(lam) - ones]
        depth = 0
        for have, part in zip(prefix, lam):
            if have != part:
                break
            depth += 1
        leave(depth)
        for part in lam[depth:]:
            prefix.append(part)
            stack.append({})
        acc = stack[-1]  # e_1^ones, which a deeper term may already hold
        acc[ones] = acc.get(ones, 0) + c
    leave(0)
    return SymFunc._trusted(Basis.ELEMENTARY, _unpacked(stack[0], w))


# ------------------------------------------------------------ positivity

class EPositivityReport(NamedTuple):
    """Outcome of an elementary-basis positivity check.

    witnesses lists the strictly negative terms in canonical term
    order; empty exactly when positive is True.
    """

    positive: bool
    witnesses: tuple[tuple[Partition, int], ...]


def is_e_positive(f: SymFunc) -> EPositivityReport:
    if f.basis is not Basis.ELEMENTARY:
        raise ValueError("positivity check expects an elementary-basis input")
    witnesses = tuple(
        (lam, c) for lam, c in f.sorted_terms() if c < 0
    )
    return EPositivityReport(positive=not witnesses, witnesses=witnesses)


def principal_specialization(f: SymFunc, k: int) -> int:
    """Evaluate with k variables set to 1 and the rest to 0.

    In the elementary basis each part m contributes comb(k, m), read
    from one row built per call; in the power-sum basis, k.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"k must be int, got {k!r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if f.basis is Basis.POWERSUM:
        return sum(c * k ** len(lam) for lam, c in f.terms.items())
    row = [comb(k, m) for m in range(max((lam[0] for lam in f.terms if lam), default=0) + 1)]
    total = 0
    for lam, c in f.terms.items():
        for m in lam:
            c *= row[m]
        total += c
    return total


# ----------------------------------------------------------- rendering

def _subscript(lam: Partition) -> str:
    if any(p >= 10 for p in lam):
        body = ",".join(str(p) for p in lam)
    else:
        body = "".join(str(p) for p in lam)
    return body if len(body) == 1 else "{" + body + "}"


def render_latex(f: SymFunc) -> str:
    """Compact LaTeX-style expansion, e.g. 54e_6+16e_{51}+26e_{42}+2e_{222}.

    Terms follow term_sort_key; single-character subscripts are left
    unbraced, everything else is braced, and parts of 10 or more are
    comma-separated inside the braces.
    """
    return _render(f, plus="+", minus="-")


def render_text(f: SymFunc) -> str:
    """Same expansion with spaced separators for terminal output."""
    return _render(f, plus=" + ", minus=" - ")


def _render(f: SymFunc, plus: str, minus: str) -> str:
    if f.is_zero():
        return "0"
    letter = f.basis.value
    pieces = []
    for idx, (lam, c) in enumerate(f.sorted_terms()):
        mag = abs(c)
        if lam:
            body = f"{letter}_{_subscript(lam)}"
            if mag != 1:
                body = f"{mag}{body}"
        else:
            body = str(mag)
        if idx == 0:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((plus if c > 0 else minus) + body)
    return "".join(pieces)


def to_json_dict(f: SymFunc) -> dict:
    """JSON-ready form with deterministic term order."""
    return {
        "basis": f.basis.value,
        "terms": [[list(lam), c] for lam, c in f.sorted_terms()],
    }
