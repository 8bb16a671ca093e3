"""Sparse symmetric functions with exact integer coefficients.

A SymFunc is a finite integer combination of basis elements indexed by
partitions, in either the elementary basis or the power-sum basis.
Coefficients are Python ints, so nothing ever overflows or rounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from math import comb, factorial
from types import MappingProxyType
from typing import Iterable, Mapping

from .compositions import Partition, partitions


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
        return SymFunc(self.basis, out)

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
        return SymFunc(self.basis, {lam: c * v for lam, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.scale(other)
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_basis(other)
        if self.basis is not Basis.ELEMENTARY:
            raise ValueError("products are implemented in the elementary basis only")
        out: dict[Partition, int] = {}
        _multiply_into(out, self._terms, other._terms)
        return SymFunc(self.basis, out)

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"SymFunc({self.basis.value!r}, {render_text(self)!r})"


def monomial(basis: Basis, lam: Iterable[int], coeff: int = 1) -> SymFunc:
    """Single term coeff * basis_lam."""
    return SymFunc(basis, {tuple(lam): coeff})


def _multiply_into(
    out: dict[Partition, int],
    f: Mapping[Partition, int],
    g: Mapping[Partition, int],
    scale: int = 1,
) -> None:
    """out += scale * f * g, for terms in a multiplicative basis (e or
    p), where the product of two basis elements joins their parts.
    Cancelled terms stay in out as zeros until a SymFunc drops them."""
    for lam, a in f.items():
        for mu, b in g.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, 0) + scale * a * b


# ------------------------------------------------------- basis conversion

# Per-process caches, keyed by degree, so their size is bounded by the
# largest degree seen.  Nothing is cached per partition: p_to_e groups
# its input by largest part, so each p_m image is multiplied in once
# per group rather than once per input partition.
_ARRANGEMENTS: dict[int, Mapping[Partition, int]] = {}
_POWER_IMAGE: dict[int, SymFunc] = {}


def _signed_arrangements(r: int) -> Mapping[Partition, int]:
    """mu -> (-1)**(r - l(mu)) * l(mu)! / prod m_i(mu)! for every
    partition mu of r: the signed number of compositions of r that
    rearrange mu's parts.

    It is the power-sum expansion of the path on r vertices (an edge
    subset leaving k components cuts the path into a composition of r
    with k parts, with sign (-1)**(r - k)), and scaled by r / l(mu) it
    is the elementary image of p_r.
    """
    cached = _ARRANGEMENTS.get(r)
    if cached is None:
        terms = {}
        for mu in partitions(r):
            count = factorial(len(mu))
            for multiplicity in Counter(mu).values():
                count //= factorial(multiplicity)
            terms[mu] = (-1) ** (r - len(mu)) * count
        cached = _ARRANGEMENTS[r] = MappingProxyType(terms)
    return cached


def _power_image(m: int) -> SymFunc:
    """Elementary-basis image of the degree-m power sum, in closed form:
    p_m = sum over mu of m with (-1)**(m - l(mu)) * m * (l(mu) - 1)!
    / prod m_i(mu)! e_mu (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2)."""
    cached = _POWER_IMAGE.get(m)
    if cached is None:
        terms = {mu: m * c // len(mu) for mu, c in _signed_arrangements(m).items()}
        cached = _POWER_IMAGE[m] = SymFunc(Basis.ELEMENTARY, terms)
    return cached


def _p_to_e_terms(terms: Mapping[Partition, int]) -> dict[Partition, int]:
    """Elementary terms of a power-sum combination, by Horner grouping
    on the largest part: f = c_() + sum over k of p_k * f_k, where f_k
    collects the tails lam[1:] of the partitions with lam[0] = k and is
    converted the same way."""
    out: dict[Partition, int] = {}
    tails: dict[int, dict[Partition, int]] = {}
    for lam, c in terms.items():
        if lam:
            tails.setdefault(lam[0], {})[lam[1:]] = c
        else:
            out[()] = c
    for k, tail in tails.items():
        _multiply_into(out, _power_image(k)._terms, _p_to_e_terms(tail))
    return out


def p_to_e(f: SymFunc) -> SymFunc:
    """Rewrite a power-sum-basis function in the elementary basis."""
    if f.basis is not Basis.POWERSUM:
        raise ValueError("p_to_e expects a power-sum-basis input")
    return SymFunc(Basis.ELEMENTARY, _p_to_e_terms(f._terms))


# ------------------------------------------------------------ positivity

@dataclass(frozen=True)
class EPositivityReport:
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

    In the elementary basis e_m contributes comb(k, m) per part; in the
    power-sum basis every part contributes k.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"k must be int, got {k!r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    total = 0
    for lam, c in f.terms.items():
        if f.basis is Basis.ELEMENTARY:
            v = 1
            for part in lam:
                v *= comb(k, part)
        else:
            v = k ** len(lam)
        total += c * v
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
    return _render(f, plus="+", minus="-", lead_minus="-")


def render_text(f: SymFunc) -> str:
    """Same expansion with spaced separators for terminal output."""
    return _render(f, plus=" + ", minus=" - ", lead_minus="-")


def _render(f: SymFunc, plus: str, minus: str, lead_minus: str) -> str:
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
            pieces.append(body if c > 0 else lead_minus + body)
        else:
            pieces.append((plus if c > 0 else minus) + body)
    return "".join(pieces)


def to_json_dict(f: SymFunc) -> dict:
    """JSON-ready form with deterministic term order."""
    return {
        "basis": f.basis.value,
        "terms": [[list(lam), c] for lam, c in f.sorted_terms()],
    }
