"""Literal root-of-unity multisets: the brute-force reference model.

A multiset at level L assigns finite multiplicities to the roots
exp(2*pi*i*e/L), 0 <= e < L.  Products, power maps and symmetric
functions are computed by direct enumeration over exponents; nothing
here uses the closed forms of ``cycwitt.witt``, which is exactly what
makes this module an independent oracle for them.
"""

from __future__ import annotations

import math
from functools import reduce

from .arith import Frozen, IntPolynomial, cyclotomic_poly, euler_phi
from .witt import WittElement, phi

__all__ = [
    "RootMultiset",
    "NotGaloisStable",
    "orbit",
    "product",
    "power_map",
    "to_witt",
    "elementary_symmetric",
    "root_sum",
]


class NotGaloisStable(ValueError):
    """Multiplicities are not constant on some orbit of primitive d-th roots."""


class RootMultiset(Frozen):
    """Finite multiset of roots of unity, canonically levelled.

    The level is always reduced to the lcm of the orders of the roots
    actually present (level 1 for the empty multiset), so structural
    equality coincides with equality as multisets of complex numbers.
    """

    __slots__ = ("level", "_counts")

    def __init__(self, level: int, counts=None):
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        raw: dict[int, int] = {}
        for e, c in dict(counts or {}).items():
            if c < 0:
                raise ValueError("multiplicities must be nonnegative")
            if c:
                raw[e % level] = raw.get(e % level, 0) + c
        # canonical level: lcm of the orders present
        lvl = reduce(math.lcm, (level // math.gcd(e, level) for e in raw), 1)
        if lvl != level:
            raw = {e * lvl // level: c for e, c in raw.items()}
        object.__setattr__(self, "level", lvl)
        object.__setattr__(self, "_counts", raw)

    def counts(self) -> dict[int, int]:
        return dict(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def at_level(self, m: int) -> dict[int, int]:
        """Exponent counts lifted to level m (m must be a multiple of level)."""
        if m % self.level:
            raise ValueError(f"{m} is not a multiple of level {self.level}")
        k = m // self.level
        return {e * k: c for e, c in self._counts.items()}

    def __eq__(self, other):
        if not isinstance(other, RootMultiset):
            return NotImplemented
        return self.level == other.level and self._counts == other._counts

    def __hash__(self):
        return hash((self.level, tuple(sorted(self._counts.items()))))

    def __add__(self, other):
        if not isinstance(other, RootMultiset):
            return NotImplemented
        lvl = math.lcm(self.level, other.level)
        acc = self.at_level(lvl)
        for e, c in other.at_level(lvl).items():
            acc[e] = acc.get(e, 0) + c
        return RootMultiset(lvl, acc)

    def scale(self, k: int) -> "RootMultiset":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return RootMultiset(self.level, {e: c * k for e, c in self._counts.items()})

    def __repr__(self):
        body = ", ".join(f"{e}:{c}" for e, c in sorted(self._counts.items()))
        return f"RootMultiset(level={self.level}, {{{body}}})"


def orbit(n: int) -> RootMultiset:
    """The primitive n-th roots of unity, each once."""
    if n < 1:
        raise ValueError(f"orbit() requires n >= 1, got {n}")
    return RootMultiset(n, {e: 1 for e in range(n) if math.gcd(e, n) == 1})


def product(a: RootMultiset, b: RootMultiset) -> RootMultiset:
    """Multiset of pairwise products, tallied exponentwise at the common level."""
    lvl = math.lcm(a.level, b.level)
    ca, cb = a.at_level(lvl), b.at_level(lvl)
    acc: dict[int, int] = {}
    for e1, c1 in ca.items():
        for e2, c2 in cb.items():
            e = (e1 + e2) % lvl
            acc[e] = acc.get(e, 0) + c1 * c2
    return RootMultiset(lvl, acc)


def power_map(a: RootMultiset, m: int) -> RootMultiset:
    """Raise every root to the m-th power, keeping multiplicities."""
    if m < 0:
        raise ValueError(f"power_map() requires m >= 0, got {m}")
    acc: dict[int, int] = {}
    for e, c in a.counts().items():
        t = (e * m) % a.level
        acc[t] = acc.get(t, 0) + c
    return RootMultiset(a.level, acc)


def to_witt(a: RootMultiset) -> WittElement:
    """Decompose a Galois-stable multiset into orbit classes.

    For each order d present, all euler_phi(d) primitive d-th roots
    must appear with one common multiplicity, which becomes the
    coefficient of phi(d); otherwise NotGaloisStable is raised.
    """
    lvl = a.level
    groups: dict[int, list[int]] = {}
    for e, c in a.counts().items():
        d = lvl // math.gcd(e, lvl)
        groups.setdefault(d, []).append(c)
    out = {}
    for d, cs in sorted(groups.items()):
        if len(cs) != euler_phi(d) or len(set(cs)) != 1:
            raise NotGaloisStable(
                f"multiplicities on primitive {d}-th roots are "
                f"{sorted(cs)} (need {euler_phi(d)} equal values)"
            )
        out[d] = cs[0]
    return WittElement(out)


def elementary_symmetric(a: RootMultiset, k: int) -> WittElement:
    """Sum of all k-fold products of distinct multiset members, as orbit classes.

    Computed by the coefficient recurrence for prod(1 + x*root) with
    multiset-valued coefficients, never by enumerating subsets.  For a
    Galois-stable input every elementary symmetric multiset is stable,
    so the final conversion cannot fail; a failure would be a bug.
    """
    if k < 0:
        raise ValueError(f"requires k >= 0, got {k}")
    if k > a.total():
        raise ValueError(f"k={k} exceeds multiset size {a.total()}")
    lvl = a.level
    coeffs: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    for e, c in sorted(a.counts().items()):
        for _ in range(c):
            for j in range(min(k, a.total()), 0, -1):
                lower = coeffs[j - 1]
                if not lower:
                    continue
                tgt = coeffs[j]
                for e1, c1 in lower.items():
                    t = (e1 + e) % lvl
                    tgt[t] = tgt.get(t, 0) + c1
    try:
        return to_witt(RootMultiset(lvl, coeffs[k]))
    except NotGaloisStable as exc:  # pragma: no cover - stable inputs only
        raise AssertionError(f"unstable symmetric multiset: {exc}")


def root_sum(a: RootMultiset) -> int:
    """The literal sum of the roots, reduced in the ring of level-L cyclotomic
    integers; raises if the sum is not a rational integer."""
    lvl = a.level
    s = [0] * lvl
    for e, c in a.counts().items():
        s[e] += c
    _, rem = divmod(IntPolynomial(s), cyclotomic_poly(lvl))
    if rem.degree > 0:
        raise ValueError("root sum is not a rational integer")
    return rem[0]
