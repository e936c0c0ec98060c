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
part into the local sum above.

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

On the span of phi(d), d | N, the ring maps to Z are the tau(N) trace
characters phi(n) -> c_n(d), d | N.  Distinct ring maps into a field are
linearly independent (Dedekind), so there are no others, and
``hom_classify`` certifies these instead of solving for them.

Everything in this module is exact integer/rational arithmetic except
``zeta_partial_check``, which evaluates truncated Dirichlet series in
floating point with explicit tail bounds.  The closed forms here are
verified against the literal root-multiset model in ``cycwitt.roots``
by the test suite.
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
    phi_mu_tables,
    ramanujan_sum,
)

__all__ = [
    "WittElement", "phi", "ZERO", "ONE", "format_witt", "signed_terms",
    "basis_mul", "mul",
    "frobenius", "verschiebung", "trace", "t_m", "f0", "integral", "inner",
    "parseval_check", "ParsevalReport",
    "zeta_partial_check", "ZetaReport",
    "hom_classify",
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


def basis_mul(n: int, m: int) -> WittElement:
    """Product phi(n) * phi(m) as an integer combination of basis classes."""
    if n < 1 or m < 1:
        raise ValueError("basis_mul() requires positive indices")
    g = math.gcd(n, m)
    return WittElement._of({n * m: 1} if g == 1 else _gcd_mul(n, m, g))


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
                for k, ck in _gcd_mul(n, m, g).items():
                    acc[k] = get(k, 0) + c * ck
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


def _zeta_value(t: int) -> float:
    """Riemann zeta at integer t >= 2 by direct series over M = 1e5 terms.

    Tail corrected by M^(1-t)/(t-1) - M^(-t)/2 + t*M^(-t-1)/12; the
    remaining error is O(t^3 * M^(-t-3)), far below float resolution
    for M = 1e5.
    """
    terms = 100_000
    m = float(terms)
    s = sum(k ** -float(t) for k in range(terms, 0, -1))
    return s + m ** (1 - t) / (t - 1) - m ** (-t) / 2 + t * m ** (-t - 1) / 12


class ZetaReport(Record):
    """Truncated Dirichlet-series identity check for Ramanujan sums."""

    _fields = ("m", "t", "cutoff", "tol", "partial_sum", "reference", "tail_bound")

    @property
    def difference(self) -> float:
        return abs(self.partial_sum - self.reference)

    @property
    def ok(self) -> bool:
        return self.difference <= self.tol

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"zeta check m={self.m} t={self.t} N={self.cutoff}: "
            f"partial={self.partial_sum:.12f} reference={self.reference:.12f} "
            f"|diff|={self.difference:.3e} (tol {self.tol:.1e}, "
            f"tail bound {self.tail_bound:.1e}): {verdict}"
        )


def zeta_partial_check(m: int, t: int, cutoff: int, tol: float) -> ZetaReport:
    """Compare sum over n <= cutoff of C_n^m / n^t with
    (sum of d**(1-t) over d | m) / zeta(t).

    The absolute series converges for t >= 2 since |C_n^m| is bounded
    by the divisor sum of gcd(n, m), hence of m; the reported tail
    bound is sigma_1(m) * cutoff^(1-t) / (t-1).
    """
    if m < 1:
        raise ValueError(f"requires m >= 1, got {m}")
    if t < 2:
        raise ValueError(f"requires t >= 2 for absolute convergence, got {t}")
    phi_tab, mu_tab = phi_mu_tables(cutoff)
    partial = 0.0
    for n in range(cutoff, 0, -1):  # ascending magnitude for float accuracy
        g = math.gcd(n, m)
        k = n // g
        if mu_tab[k] == 0:
            continue
        c = mu_tab[k] * phi_tab[n] // phi_tab[k]
        partial += c / n**t
    sigma = divisors(m)
    reference = sum(d ** (1 - t) for d in sigma) / _zeta_value(t)
    tail = sum(sigma) * cutoff ** (1 - t) / (t - 1)
    return ZetaReport(m, t, cutoff, tol, partial, reference, tail)


def hom_classify(N: int) -> list[dict[int, int]]:
    """All ring maps from the span of phi(d), d | N, to the integers.

    They are the tau(N) trace characters t_d: phi(n) -> c_n(d), d | N:
    distinct ring maps into a field are linearly independent (Dedekind),
    so the rank tau(N) bounds their number.  Nothing is solved: each t_d
    is checked against each product phi(n)*phi(m), n <= m | N, and all are
    checked unital and distinct.  A broken product, an index outside
    divisors(N) or two equal characters raises ArithmeticError.  Returns
    one {d: value} dict per map, value tuples in descending order.
    """
    if N < 1:
        raise ValueError(f"hom_classify() requires N >= 1, got {N}")
    ds = divisors(N)
    at = {d: i for i, d in enumerate(ds)}
    chars = [tuple(ramanujan_sum(n, d) for n in ds) for d in ds]
    fault = f"hom certificate fault at N={N}"
    for i, n in enumerate(ds):
        for m in ds[i:]:
            prod = basis_mul(n, m)
            if not all(k in at for k in prod.support):
                raise ArithmeticError(f"{fault}: phi({n})*phi({m}) = {prod} leaves the level")
            for vals in chars:
                if sum(c * vals[at[k]] for k, c in prod.items()) != vals[at[n]] * vals[at[m]]:
                    raise ArithmeticError(f"{fault}: character {vals} breaks phi({n})*phi({m})")
    if len(set(chars)) < len(ds) or any(vals[0] != 1 for vals in chars):
        raise ArithmeticError(f"{fault}: {chars} are not {len(ds)} distinct unital maps")
    return [dict(zip(ds, vals)) for vals in sorted(chars, reverse=True)]
