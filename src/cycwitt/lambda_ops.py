"""Exterior-power style operations on Witt elements.

lambda^k on a basis class is the k-th elementary symmetric function of
its roots, computed through Newton's identities from the power sums
F_i phi(n); the generating series lambda_t extends multiplicatively to
arbitrary (virtual) elements.  The reindexed gamma operations come from
the polynomial identity (-1)^k gamma^k(x) = lambda^k(x + (k-1)*phi(1)),
avoiding any rational substitution; expanded, it reads
gamma^k(x) = (-1)^k sum_{j=1..k} C(k-1, k-j) lambda^j(x), so one series
lambda_t(x) yields every gamma^k(x).  On top of these, the module builds
the descending gamma filtration of the augmentation ideal (kernel of
the root-count map f0) as explicit integer lattices and checks the
graded eigenvalue behaviour of the operator families on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .arith import divisors, euler_phi
from .linalg import HnfLattice, hnf
from .roots import elementary_symmetric, orbit
from .witt import ONE, WittElement, frobenius, mul, phi

__all__ = [
    "WittSeries",
    "lambda_basis",
    "lambda_series",
    "gamma_basis",
    "gamma_series",
    "gamma_positive_check",
    "GammaUnitsReport",
    "gamma_filtration",
    "GammaFiltration",
    "graded_frobenius_check",
    "GradedReport",
]


class WittSeries:
    """Truncated power series in t with Witt-element coefficients.

    The truncation degree is explicit and arithmetic never reads past
    it.  Values of lambda_t / gamma_t have constant term phi(1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

    def __setattr__(self, name, value):
        raise AttributeError("WittSeries is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> WittElement:
        if k < 0 or k > self.degree:
            raise IndexError(f"coefficient {k} beyond truncation degree {self.degree}")
        return self.coeffs[k]

    def lam(self, k: int) -> WittElement:
        """lambda^k, i.e. (-1)**k times the t**k coefficient."""
        c = self[k]
        return c if k % 2 == 0 else -c

    def __eq__(self, other):
        if not isinstance(other, WittSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @classmethod
    def one(cls, degree: int) -> "WittSeries":
        return cls([ONE] + [WittElement()] * degree)

    def __mul__(self, other):
        if not isinstance(other, WittSeries):
            return NotImplemented
        deg = min(self.degree, other.degree)
        out = []
        for k in range(deg + 1):
            acc = WittElement()
            for i in range(k + 1):
                a, b = self.coeffs[i], other.coeffs[k - i]
                if a and b:
                    acc = acc + mul(a, b)
            out.append(acc)
        return WittSeries(out)

    def inverse(self) -> "WittSeries":
        if self.coeffs[0] != ONE:
            raise ValueError("only series with constant term phi(1) are inverted")
        inv = [ONE]
        for k in range(1, self.degree + 1):
            acc = WittElement()
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc = acc + mul(self.coeffs[i], inv[k - i])
            inv.append(-acc)
        return WittSeries(inv)

    def pow(self, e: int) -> "WittSeries":
        """self**e by square-and-multiply; e < 0 inverts first."""
        base = self if e >= 0 else self.inverse()
        out = WittSeries.one(self.degree)
        e = abs(e)
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __repr__(self):
        return f"WittSeries(degree={self.degree}, {list(self.coeffs)!r})"


@lru_cache(maxsize=None)
def _lambda_row(n: int, top: int) -> tuple[WittElement, ...]:
    """(e_0, ..., e_top), top <= euler_phi(n), for the roots of phi(n), by
    Newton's identities; e_k needs only the power sums F_i phi(n), i <= k.

    Each division by k is exact because the ambient group is torsion
    free; inexactness would be a bug, not bad input.
    """
    powers = [None] + [frobenius(i, phi(n)) for i in range(1, top + 1)]
    es: list[WittElement] = [ONE]
    for k in range(1, top + 1):
        acc = WittElement()
        sign = 1
        for i in range(1, k + 1):
            term = mul(es[k - i], powers[i])
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        es.append(acc.divexact(k))
    return tuple(es)


def lambda_basis(n: int, k: int) -> WittElement:
    """lambda^k of the basis class phi(n); defined for 0 <= k <= euler_phi(n)."""
    if n < 1:
        raise ValueError(f"lambda_basis() requires n >= 1, got {n}")
    if not 0 <= k <= euler_phi(n):
        raise ValueError(f"lambda_basis() needs 0 <= k <= euler_phi({n}), got {k}")
    return _lambda_row(n, euler_phi(n))[k]


def _basis_series(n: int, degree: int) -> WittSeries:
    row = _lambda_row(n, min(degree, euler_phi(n)))
    out = []
    for k in range(degree + 1):
        if k < len(row):
            out.append(row[k] if k % 2 == 0 else -row[k])
        else:
            out.append(WittElement())
    return WittSeries(out)


def lambda_series(a: WittElement, degree: int) -> WittSeries:
    """lambda_t(a) truncated: the product over the support of
    lambda_t(phi(n)) ** coefficient, with negative coefficients handled
    by exact series inversion."""
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    out = WittSeries.one(degree)
    for n, c in a.items():
        out = out * _basis_series(n, degree).pow(c)
    return out


def gamma_basis(a: WittElement, k: int, degree: int | None = None) -> WittElement:
    """gamma^k(a), via the shift identity: the t**k coefficient of
    lambda_t(a + (k-1)*phi(1))."""
    if k < 0:
        raise ValueError(f"gamma index must be >= 0, got {k}")
    if k == 0:
        return ONE
    deg = max(k, degree or k)
    shifted = a + ONE * (k - 1)
    return lambda_series(shifted, deg)[k]


def gamma_series(a: WittElement, degree: int) -> WittSeries:
    """gamma_t(a) truncated; coefficient of t**k is (-1)**k gamma^k(a),
    read from the one series lambda_t(a) by the expanded shift identity."""
    lam = lambda_series(a, degree)
    out = [ONE]
    for k in range(1, degree + 1):
        acc = WittElement()
        for j in range(1, k + 1):
            acc = acc + lam.lam(j) * math.comb(k - 1, k - j)
        out.append(acc)
    return WittSeries(out)


@dataclass
class GammaUnitsReport:
    """gamma_t on phi(n) - euler_phi(n)*phi(1) versus the literal expansion
    of prod(1 - (1 - [root])*t) over the primitive n-th roots."""

    n: int
    degree: int
    mismatches: list = field(default_factory=list)  # (k, got, expected)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL at degrees {[k for k, *_ in self.mismatches]}"
        return f"gamma units n={self.n} (degree {self.degree}): {verdict}"


def gamma_positive_check(n: int, extra_degrees: int = 2) -> GammaUnitsReport:
    """Check gamma_t(phi(n) - euler_phi(n)) against the root-multiset oracle.

    The oracle expands the k-th elementary symmetric function of the
    elements 1 - [root] by inclusion-exclusion over elementary
    symmetric functions of the roots themselves:
    e_k(1-z) = sum over j of (-1)**j C(N-j, k-j) e_j(z), N = count.
    """
    if n <= 1:
        raise ValueError(f"requires n > 1, got {n}")
    big_n = euler_phi(n)
    degree = big_n + extra_degrees
    lhs = gamma_series(phi(n) - ONE * big_n, degree)
    orb = orbit(n)
    e_of_roots = [elementary_symmetric(orb, j) for j in range(big_n + 1)]
    report = GammaUnitsReport(n, degree)
    for k in range(degree + 1):
        if k <= big_n:
            acc = WittElement()
            for j in range(k + 1):
                term = e_of_roots[j] * math.comb(big_n - j, k - j)
                acc = acc + (term if j % 2 == 0 else -term)
            expected = acc if k % 2 == 0 else -acc
        else:
            expected = WittElement()
        if lhs[k] != expected:
            report.mismatches.append((k, lhs[k], expected))
    return report


def _vec(w: WittElement, ds: tuple[int, ...]) -> list[int]:
    idx = {d: i for i, d in enumerate(ds)}
    v = [0] * len(ds)
    for n, c in w.items():
        if n not in idx:
            raise ValueError(f"support {n} escapes the divisor span of {ds}")
        v[idx[n]] = c
    return v


def _unvec(v, ds: tuple[int, ...]) -> WittElement:
    return WittElement({d: c for d, c in zip(ds, v) if c})


@dataclass
class GammaFiltration:
    """Nested integer lattices I_0 >= I_1 >= ... inside the span of the
    divisor classes of N, in Hermite form over that basis."""

    N: int
    depth: int
    divisors: tuple[int, ...]
    lattices: list[HnfLattice]

    def basis_elements(self, k: int) -> list[WittElement]:
        return [_unvec(row, self.divisors) for row in self.lattices[k].basis]


def gamma_filtration(N: int, depth: int, monomial_bound: int | None = None) -> GammaFiltration:
    """Lattices I_0 (everything), I_1 (kernel of f0, spanned by
    phi(d) - euler_phi(d) for d | N, d > 1), and for k >= 2 the span of
    gamma-monomials gamma^{n_1}(a_1)...gamma^{n_l}(a_l) over the fixed
    I_1 basis with k <= n_1 + ... + n_l <= monomial_bound (default
    depth + 2).  Enlarging the bound can only grow the lattices, so
    downstream membership checks stay valid for sublattices.

    A dynamic program over gamma degree: S_t, the span of the monomials
    of degree exactly t, is spanned by s * gamma^e(b) for 1 <= e <= t and
    s in the Hermite basis of S_{t-e} (the product is bilinear and
    commutative), with S_0 = Z phi(1); then I_k = S_k + ... + S_bound.
    Every atom has degree e >= 1, so a monomial of degree <= bound has at
    most bound factors and needs no separate length bound.  Each S_t has
    rank <= tau(N), so the work is O(bound**2 tau(N)**2) products, not
    one per monomial (a count exponential in the bound).
    """
    bound = monomial_bound if monomial_bound is not None else depth + 2
    if N < 1 or depth < 1 or bound < 0:
        raise ValueError("gamma_filtration() requires N >= 1, depth >= 1 and monomial_bound >= 0")
    ds = divisors(N)
    r = len(ds)
    ident = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    lattices = [hnf(ident)]
    basis = [phi(d) - ONE * euler_phi(d) for d in ds if d > 1]
    lattices.append(hnf([_vec(b, ds) for b in basis], ambient=r))

    series = [gamma_series(b, bound) for b in basis]
    atoms = {e: [g for s in series if (g := s.lam(e))] for e in range(1, bound + 1)}
    spans = [[ONE]]  # spans[t]: Hermite basis of S_t
    for t in range(1, bound + 1):
        gens = [_vec(mul(v, a), ds) for e in range(1, t + 1) for a in atoms[e] for v in spans[t - e]]
        spans.append([_unvec(row, ds) for row in hnf(gens, ambient=r).basis])

    for k in range(2, depth + 1):
        gens = [_vec(v, ds) for t in range(k, bound + 1) for v in spans[t]]
        lattices.append(hnf(gens, ambient=r))
    return GammaFiltration(N, depth, ds, lattices)


@dataclass
class GradedReport:
    """Containment checks on the gamma filtration.

    For each Hermite basis vector x of I_n and each m <= m_max the
    power operator must satisfy F_m(x) - m**n * x in I_{n+1}; the
    analogous statement for (-1)**(m+1) lambda^m(x) - m**(n-1) * x is
    tracked separately (n >= 1) and reported rather than asserted.
    """

    N: int
    depth: int
    m_max: int
    frobenius_checked: int = 0
    frobenius_failures: list = field(default_factory=list)  # (n, x, m)
    lambda_checked: int = 0
    lambda_failures: list = field(default_factory=list)

    @property
    def frobenius_ok(self) -> bool:
        return not self.frobenius_failures

    @property
    def lambda_ok(self) -> bool:
        return not self.lambda_failures

    def summary(self) -> str:
        fr = "PASS" if self.frobenius_ok else f"FAIL ({len(self.frobenius_failures)})"
        lm = "PASS" if self.lambda_ok else f"FAIL ({len(self.lambda_failures)})"
        return (
            f"graded check N={self.N} depth={self.depth} m<={self.m_max}: "
            f"power operators {fr} [{self.frobenius_checked} cases], "
            f"lambda operators {lm} [{self.lambda_checked} cases]"
        )


def graded_frobenius_check(N: int, depth: int, m_max: int) -> GradedReport:
    """Verify the graded action of F_m and lambda^m on the filtration."""
    filt = gamma_filtration(N, depth + 1)
    ds = filt.divisors
    report = GradedReport(N, depth, m_max)
    for n in range(depth + 1):
        nxt = filt.lattices[n + 1]
        for x in filt.basis_elements(n):
            for m in range(1, m_max + 1):
                y = frobenius(m, x) - x * m**n
                report.frobenius_checked += 1
                if not nxt.contains(_vec(y, ds)):
                    report.frobenius_failures.append((n, x, m))
                if n >= 1:
                    lam = lambda_series(x, m).lam(m)
                    z = (lam if (m + 1) % 2 == 0 else -lam) - x * m ** (n - 1)
                    report.lambda_checked += 1
                    if not nxt.contains(_vec(z, ds)):
                        report.lambda_failures.append((n, x, m))
    return report
