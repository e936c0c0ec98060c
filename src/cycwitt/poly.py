"""Integer polynomials and truncated integer series.

``IntPolynomial`` is the one dense polynomial type.  ``times_binomial``
is the one kernel that multiplies a truncated series by (1 - t**e)**k
for any integer k; ``times_cyclotomic`` applies it over reversed
Phi_n = product of (1 - t**d)**mobius(n/d) over d | n, whose factors
``cyclotomic_binomials`` lists.  They build ``arith.cyclotomic_poly``,
the lambda coordinates of ``lambda_ops`` and the unit-spectrum
factoring of ``linalg``.  A Witt-element computation runs none of it,
so it lives apart from ``arith``, which every computation loads.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import Frozen, divisors, join_signed, mobius

__all__ = ["IntPolynomial", "times_binomial", "cyclotomic_binomials", "times_cyclotomic"]


class IntPolynomial(Frozen):
    """Dense univariate polynomial over the integers.

    Coefficients ascend by degree; the tuple is trimmed, so the
    representation is canonical (the zero polynomial is the empty
    tuple and has degree -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            tuple(self[k] + other[k] for k in range(n))
        )

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __divmod__(self, other):
        """Polynomial division; every quotient step must be an exact integer."""
        if not isinstance(other, IntPolynomial) or other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead = other.coeffs[-1]
        quot = [0] * max(dn - dd + 1, 0)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r != 0:
                raise ArithmeticError("inexact polynomial division step")
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[j + k] -= q * b
        return IntPolynomial(quot), IntPolynomial(rem)

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def reversed_coeffs(self) -> "IntPolynomial":
        """Coefficient reversal: x**degree * p(1/x) for p with nonzero constant."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def pretty(self, var: str = "t") -> str:
        """Human form, terms ascending: e.g. '1 - t + t^2'."""

        def body(k: int, c: int) -> str:
            if k == 0:
                return str(abs(c))
            pw = var if k == 1 else f"{var}^{k}"
            return pw if abs(c) == 1 else f"{abs(c)}*{pw}"

        return join_signed((c < 0, body(k, c)) for k, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"IntPolynomial({self.pretty()!r})"


def times_binomial(col: list[int], e: int, k: int) -> list[int]:
    """col * (1 - t**e)**k to the length of col, for any integer k."""
    top = len(col) - 1
    terms = top // e + 1  # powers of t**e below the truncation
    col = list(col)
    if abs(k) < terms:  # |k| passes of one factor (1 - t**e) or its inverse each
        for _ in range(abs(k)):
            if k > 0:
                for i in range(top, e - 1, -1):
                    col[i] -= col[i - e]
            else:
                for i in range(e, top + 1):
                    col[i] += col[i - e]
        return col
    # the coefficient of t**(e j) in (1 - t**e)**k is (-1)**j C(k, j) = b_j,
    # with b_j = b_(j-1) (j - 1 - k) / j exact
    bs = [1]
    for j in range(1, terms):
        bs.append(bs[-1] * (j - 1 - k) // j)
    out = [0] * (top + 1)
    for i, c in enumerate(col):
        if c:
            for j in range((top - i) // e + 1):
                out[i + e * j] += c * bs[j]
    return out


# Unbounded, like the arith caches: an entry is a few small int pairs, and a
# process meets only the n whose Phi_n it factors or whose lambda coordinates
# it reads.
@lru_cache(maxsize=None)
def _cyclotomic_factors(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((d, mu) for d in divisors(n) if (mu := mobius(n // d)))


def cyclotomic_binomials(n: int, top: int):
    """The (d, mobius(n/d)) with d | n, d <= top and mobius(n/d) != 0, d
    ascending: reversed Phi_n is the product of (1 - t**d)**mobius(n/d) over
    d | n, and a factor with d > top is 1 to degree top.  The factors of each
    n are listed once per process, as a tuple keyed by n."""
    for d, mu in _cyclotomic_factors(n):
        if d > top:
            break
        yield d, mu


def times_cyclotomic(col: list[int], n: int, k: int) -> list[int]:
    """col * (reversed Phi_n)**k to the length of col, for any integer k."""
    for d, mu in cyclotomic_binomials(n, len(col) - 1):
        col = times_binomial(col, d, k * mu)
    return col
