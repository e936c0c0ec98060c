"""Independent cross-checks that only the tests run: a second formula for
Ramanujan sums, direct sums of cyclotomic companion blocks and exact
division of a Witt element, each written from the definitions."""

import math
from functools import reduce

from cycwitt.arith import cyclotomic_poly, divisors, mobius
from cycwitt.linalg import companion
from cycwitt.matrices import IntMatrix, direct_sum
from cycwitt.witt import WittElement


def ramanujan_sum_divisor_form(n: int, m: int) -> int:
    """Same value as arith.ramanujan_sum, via sum of mobius(n/d)*d over d | gcd(n, m)."""
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"requires m >= 0, got {m}")
    g = math.gcd(n, m)
    return sum(mobius(n // d) * d for d in divisors(g))


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
