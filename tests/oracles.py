"""Independent cross-checks that only the tests run, each written from
the definitions:

- a second formula for Ramanujan sums;
- companion matrices, direct sums of cyclotomic companion blocks,
  determinants by rational elimination and exterior powers Lambda^k A
  as matrices of k x k minors;
- exact division of a Witt element, and the necklace class mu_n;
- a ring of truncated series with Witt-element coefficients, whose
  products, inverses and powers convolve the coefficients through
  witt.mul (series_one, series_mul, series_inverse, series_pow), a
  second engine beside lambda_ops' trace coordinates."""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

from cycwitt.arith import cyclotomic_poly, divisors, mobius
from cycwitt.lambda_ops import WittSeries
from cycwitt.matrices import IntMatrix, direct_sum
from cycwitt.poly import IntPolynomial
from cycwitt.witt import ONE, WittElement, mul


def ramanujan_sum_divisor_form(n: int, m: int) -> int:
    """Same value as arith.ramanujan_sum, via sum of mobius(n/d)*d over d | gcd(n, m)."""
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"requires m >= 0, got {m}")
    g = math.gcd(n, m)
    return sum(mobius(n // d) * d for d in divisors(g))


def companion(p: IntPolynomial) -> IntMatrix:
    """Companion matrix of a monic polynomial (degree >= 1)."""
    n = p.degree
    if n < 1 or p[n] != 1:
        raise ValueError("companion() needs a monic polynomial of degree >= 1")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return IntMatrix(rows)


def companion_blocks(indices) -> IntMatrix:
    """Direct sum of companion matrices of cyclotomic polynomials."""
    mats = [companion(cyclotomic_poly(d)) for d in indices]
    if not mats:
        raise ValueError("need at least one block")
    return reduce(direct_sum, mats)


def divexact(w: WittElement, k: int) -> WittElement:
    """Divide every coefficient of w by k; inexactness is an internal error."""
    c = {}
    for n, v in w.items():
        q, r = divmod(v, k)
        if r:
            raise ArithmeticError(f"inexact division of {v}*phi({n}) by {k}: implementation bug")
        c[n] = q
    return WittElement(c)


def necklace(n: int) -> WittElement:
    """mu_n = sum of phi(d) over d | n: all n-th roots of unity, the
    necklace class Z/n (Metropolis and Rota, Adv. Math. 50, 1983)."""
    return WittElement(dict.fromkeys(divisors(n), 1))


def fraction_det(rows) -> Fraction:
    """Determinant of a square integer matrix by Gaussian elimination over
    the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def exterior_power(a: IntMatrix, k: int) -> IntMatrix:
    """Lambda^k A: the C(n, k) x C(n, k) matrix of k x k minors of A, rows
    and columns indexed by the k-subsets of range(n) in lexicographic order."""
    subsets = list(combinations(range(a.rows), k))
    e = a.entries
    return IntMatrix([[int(fraction_det([[e[i][j] for j in cols] for i in rows])) for cols in subsets]
                      for rows in subsets])


def series_one(degree: int) -> WittSeries:
    return WittSeries([ONE] + [WittElement()] * degree)


def series_mul(x: WittSeries, y: WittSeries) -> WittSeries:
    deg = min(x.degree, y.degree)
    out = []
    for k in range(deg + 1):
        acc = WittElement()
        for i in range(k + 1):
            a, b = x.coeffs[i], y.coeffs[k - i]
            if a and b:
                acc = acc + mul(a, b)
        out.append(acc)
    return WittSeries(out)


def series_inverse(s: WittSeries) -> WittSeries:
    if s.coeffs[0] != ONE:
        raise ValueError("only series with constant term phi(1) are inverted")
    inv = [ONE]
    for k in range(1, s.degree + 1):
        acc = WittElement()
        for i in range(1, k + 1):
            if s.coeffs[i]:
                acc = acc + mul(s.coeffs[i], inv[k - i])
        inv.append(-acc)
    return WittSeries(inv)


def series_pow(s: WittSeries, e: int) -> WittSeries:
    """s**e by square-and-multiply; e < 0 inverts first."""
    base = s if e >= 0 else series_inverse(s)
    out = series_one(s.degree)
    e = abs(e)
    while e:
        if e & 1:
            out = series_mul(out, base)
        e >>= 1
        if e:
            base = series_mul(base, base)
    return out
