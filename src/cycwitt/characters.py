"""The trace characters of the Witt ring: its ring maps to Z, and the
Dirichlet series of their values.

On the span of phi(d), d | N, the ring maps to Z are the tau(N) trace
characters t_d: phi(n) -> c_n(d), d | N.  Distinct ring maps into a field
are linearly independent (Dedekind), so there are no others, and
``hom_classify`` certifies these instead of solving for them.
``zeta_partial_check`` sums the values c_n(m) of one character against
n**-t, in floating point with explicit tail bounds: the one float path of
the library.  No CLI command runs either, so they live apart from
``witt``, which every Witt-element command loads.
"""

from __future__ import annotations

import math

from .arith import Record, divisors, ramanujan_sum
from .witt import basis_mul

__all__ = ["phi_mu_tables", "zeta_partial_check", "ZetaReport", "hom_classify"]


def phi_mu_tables(limit: int) -> tuple[list[int], list[int]]:
    """Sieve euler_phi and mobius for all 1 <= n <= limit.

    Returns (phi, mu) lists indexed by n (index 0 unused).
    """
    phi = list(range(limit + 1))
    mu = [1] * (limit + 1)
    spf = [0] * (limit + 1)  # smallest prime factor
    for i in range(2, limit + 1):
        if spf[i] == 0:
            for j in range(i, limit + 1, i):
                if spf[j] == 0:
                    spf[j] = i
    for i in range(2, limit + 1):
        p = spf[i]
        j = i // p
        phi[i] = phi[j] * p if j % p == 0 else phi[j] * (p - 1)
        mu[i] = 0 if j % p == 0 else -mu[j]
    return phi, mu


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
