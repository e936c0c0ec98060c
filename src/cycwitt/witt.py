"""The cyclotomic Witt ring.

Elements are finite integer combinations of basis classes ``phi(n)``,
one for each n >= 1, where ``phi(n)`` stands for the full Galois orbit
of primitive n-th roots of unity and ``phi(1)`` is the ring unit.  The
product of two basis classes is again an integer combination.  Prime by
prime it reads:

* coprime indices multiply to ``phi(n*m)``;
* at a single prime p, ``phi(p^a) * phi(p^b)`` is
  ``euler_phi(p^b) * phi(p^a)`` for a > b >= 1, and for a = b >= 1 it is
  ``euler_phi(p^a) * (phi(p^a) + ... + phi(1)) - p^(a-1) * phi(p^a)``.

Only the primes of g = gcd(n, m) do anything beyond the coprime rule,
so ``basis_mul`` works gcd first: g = 1 gives ``phi(n*m)``; otherwise
it starts from ``phi(lcm(n, m))`` and factors g alone.  A prime p^e || g
whose exponents in n and m differ multiplies the coefficient by
``euler_phi(p^e)``; one with equal exponents e expands the index's p^e
part into the local sum above.  The exponents differ exactly at the
primes of h = gcd(g, lcm/g), so the product is sum of c_s phi(lcm/s)
over (s, c_s) pairs that depend on g and h alone: ``mul`` and
``basis_mul`` expand each such shape once per process.

The operator family F_m ("take m-th powers of roots") acts by

    F_m phi(n) = g * prod(1 - 1/p for p | g, p not dividing n/g) * phi(n/g),
    g = gcd(m, n),

always with integer coefficients, and each F_m is a ring endomorphism.
The companion index-multiplication family V_m sends phi(n) to phi(m*n)
(additively; V_a V_b = V_ab).  Scalar projections: trace
(coefficientwise Mobius), the root-count map f0 (coefficientwise
totient), and the coefficient-of-phi(1) projection ``integral``.

Note: V_m is often described as the adjoint of F_m, but against the
``inner`` pairing below that holds only on the image pairs
(phi(m*n) against phi(n)); inner(F_3 phi(4), phi(4)) = 2 while
inner(phi(4), V_3 phi(4)) = 0, so the literal adjunction identity
fails.  See the test suite and the verification notes for the
counterexample.

Everything in this module is exact integer/rational arithmetic.  The
ring maps to Z and the Dirichlet series of their values live in
``cycwitt.characters``, which no CLI command loads.  The closed forms
here are verified against the literal root-multiset model in
``cycwitt.roots`` by the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import (
    Frozen,
    Record,
    divisors,
    euler_phi,
    factor,
    frobenius_basis,
    join_signed,
    mobius,
    ramanujan_sum,
)

__all__ = [
    "WittElement", "phi", "ZERO", "ONE", "format_witt", "signed_terms",
    "basis_mul", "mul",
    "frobenius", "verschiebung", "trace", "t_m", "f0", "integral", "inner",
    "parseval_check", "ParsevalReport",
]


class WittElement(Frozen):
    """Sparse integer combination of basis classes phi(n).

    Immutable and canonical: zero coefficients are never stored, so
    equality and hashing are structural.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for n, v in dict(coeffs).items():
                if not isinstance(n, int) or n < 1:
                    raise ValueError(f"basis index must be a positive integer, got {n!r}")
                if v:
                    c[n] = v
        object.__setattr__(self, "_c", c)

    @classmethod
    def _of(cls, c: dict[int, int]) -> "WittElement":
        """Trusted constructor for module results: keys are known positive
        integers, so only the zero coefficients are dropped."""
        w = object.__new__(cls)
        object.__setattr__(w, "_c", {n: v for n, v in c.items() if v})
        return w

    def items(self) -> tuple[tuple[int, int], ...]:
        """Sorted (index, coefficient) pairs; the canonical serialized form."""
        return tuple(sorted(self._c.items()))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def coeff(self, n: int) -> int:
        return self._c.get(n, 0)

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self.items())

    def __add__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        c = dict(self._c)
        for n, v in other._c.items():
            c[n] = c.get(n, 0) + v
        return WittElement._of(c)

    def __neg__(self):
        return WittElement._of({n: -v for n, v in self._c.items()})

    def __sub__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        c = dict(self._c)
        for n, v in other._c.items():
            c[n] = c.get(n, 0) - v
        return WittElement._of(c)

    def __mul__(self, other):
        if isinstance(other, int):
            return WittElement._of({n: v * other for n, v in self._c.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def to_pairs(self) -> list[list[int]]:
        return [[n, v] for n, v in self.items()]

    def __repr__(self):
        if not self._c:
            return "WittElement(0)"
        body = " + ".join(f"{v}*phi({n})" for n, v in self.items())
        return f"WittElement({body})"


def phi(n: int) -> WittElement:
    """The basis class of the primitive n-th roots of unity."""
    if n < 1:
        raise ValueError(f"phi() requires n >= 1, got {n}")
    return WittElement({n: 1})


ZERO = WittElement()
ONE = phi(1)


def signed_terms(items, bare_one: bool = True):
    """(negative, body) pairs of (index, coefficient) items for join_signed;
    bare_one writes phi(1) multiples as integers."""
    for n, c in items:
        mag = abs(c)
        if n == 1 and bare_one:
            body = str(mag)
        elif mag == 1:
            body = f"phi({n})"
        else:
            body = f"{mag}*phi({n})"
        yield c < 0, body


def format_witt(w: WittElement) -> str:
    """Canonical text: ascending indices, phi(1) multiples as bare integers."""
    return join_signed(signed_terms(w.items()))


def _gcd_mul(n: int, m: int, g: int) -> dict[int, int]:
    """phi(n) * phi(m) for g = gcd(n, m) > 1, factoring g alone."""
    out = {n // g * m: 1}
    for p, e in factor(g):
        q = p**e
        tot = q - q // p
        if not (n // q) % p or not (m // q) % p:  # unequal exponents: p^e is the smaller power
            out = {u: c * tot for u, c in out.items()}
            continue
        top = tot - q // p  # coefficient of the full p^e; zero for p = 2
        expanded = {}
        for u, c in out.items():
            base = u // q
            for j in range(e):
                expanded[base * p**j] = c * tot
            if top:
                expanded[u] = c * top
        out = expanded
    return out


# Unbounded, like the arith caches: an entry is a few pairs of small ints,
# and a process meets one key per gcd shape of the products it takes.
@lru_cache(maxsize=None)
def _mul_pattern(g: int, h: int) -> tuple[tuple[int, int], ...]:
    """The (s, c_s) pairs of phi(n) * phi(m) = sum of c_s phi(L/s), L = lcm(n, m),
    for g = gcd(n, m) > 1 and h = gcd(g, L/g).

    _gcd_mul treats p**e || g as unequal exponents exactly when p divides
    L/g, that is when p | h, and every index it makes is L over a divisor
    of g; so the pairs depend on g and h alone, and (g, g*h) is a
    representative with the same g and h.
    """
    return tuple(sorted((g * h // u, c) for u, c in _gcd_mul(g, g * h, g).items()))


def basis_mul(n: int, m: int) -> WittElement:
    """Product phi(n) * phi(m) as an integer combination of basis classes."""
    if n < 1 or m < 1:
        raise ValueError("basis_mul() requires positive indices")
    g = math.gcd(n, m)
    if g == 1:
        return WittElement._of({n * m: 1})
    lcm = n // g * m
    return WittElement._of({lcm // s: c for s, c in _mul_pattern(g, math.gcd(g, lcm // g))})


def mul(a: WittElement, b: WittElement) -> WittElement:
    """Bilinear extension of basis_mul."""
    acc: dict[int, int] = {}
    get = acc.get
    gcd = math.gcd
    for n, cn in a._c.items():
        for m, cm in b._c.items():
            c = cn * cm
            g = gcd(n, m)
            if g == 1:
                k = n * m
                acc[k] = get(k, 0) + c
            else:
                lcm = n // g * m
                for s, cs in _mul_pattern(g, gcd(g, lcm // g)):
                    k = lcm // s
                    acc[k] = get(k, 0) + c * cs
    return WittElement._of(acc)


# Unbounded on purpose: one entry of two small ints per distinct (m, n)
# asked for, and F_m of an element only asks for the indices it holds.
_frobenius_basis = lru_cache(maxsize=None)(frobenius_basis)


def frobenius(m: int, a: WittElement) -> WittElement:
    """The m-th power operator F_m, additively extended; m = 0 gives f0(a)*phi(1)."""
    if m < 0:
        raise ValueError(f"frobenius() requires m >= 0, got {m}")
    acc: dict[int, int] = {}
    for n, c in a.items():
        tgt, k = _frobenius_basis(m, n)
        acc[tgt] = acc.get(tgt, 0) + c * k
    return WittElement(acc)


def verschiebung(m: int, a: WittElement) -> WittElement:
    """The index-multiplication operator: phi(n) -> phi(m*n), additively."""
    if m < 1:
        raise ValueError(f"verschiebung() requires m >= 1, got {m}")
    return WittElement({m * n: c for n, c in a.items()})


def trace(a: WittElement) -> int:
    """Sum of all roots counted with coefficients: coefficientwise Mobius."""
    return sum(c * mobius(n) for n, c in a.items())


def f0(a: WittElement) -> int:
    """Root-count projection: coefficientwise Euler totient; a ring homomorphism."""
    return sum(c * euler_phi(n) for n, c in a.items())


def t_m(m: int, a: WittElement) -> int:
    """trace of F_m(a); on the basis this is the Ramanujan sum C_n^m."""
    return trace(frobenius(m, a))


def integral(a: WittElement) -> int:
    """Coefficient of phi(1)."""
    return a.coeff(1)


def inner(a: WittElement, b: WittElement) -> int:
    """integral(a*b).  The basis classes are orthogonal with norm euler_phi(n),
    so this is the sum of a_n*b_n*euler_phi(n) over the shared indices n:
    linear in the terms, and only the shared indices are factored.

    Complex conjugation permutes each orbit of primitive roots, so it
    fixes every basis class; conjugation is therefore the identity here.
    """
    return sum(c * b._c[n] * euler_phi(n) for n, c in a._c.items() if n in b._c)


class ParsevalReport(Record):
    """Exact finite Fourier orthogonality check at level N."""

    _fields = ("N", "pairs_checked", "failures")
    _defaults = {"pairs_checked": 0, "failures": []}  # failures: (n, m, lhs, rhs) Fractions

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} mismatches)"
        return (
            f"parseval N={self.N}: {self.pairs_checked} divisor pairs checked, "
            f"orthogonality exact in rationals: {verdict}"
        )


def parseval_check(N: int) -> ParsevalReport:
    """For all n, m | N verify N*euler_phi(n)*[n == m] == the sum over z <= N
    of C_n^z * C_m^z in integers; a failure keeps both sides over N as Fractions."""
    if N < 1:
        raise ValueError(f"parseval_check() requires N >= 1, got {N}")
    report = ParsevalReport(N)
    ds = divisors(N)
    cols = {d: [ramanujan_sum(d, z) for z in range(1, N + 1)] for d in ds}
    for n in ds:
        for m in ds:
            lhs = N * euler_phi(n) if n == m else 0
            rhs = sum(x * y for x, y in zip(cols[n], cols[m]))
            report.pairs_checked += 1
            if lhs != rhs:
                from fractions import Fraction  # it loads decimal, so only a failure imports it
                report.failures.append((n, m, Fraction(lhs, N), Fraction(rhs, N)))
    return report
