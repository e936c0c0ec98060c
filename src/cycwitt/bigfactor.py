"""Factoring past trial division: a proven Miller-Rabin test and Brent's rho.

``arith.factor`` imports this module only when its trial divisors leave a
cofactor that could be composite, which no index below TRIAL_LIMIT**2
does, so most computations never load it.
"""

from __future__ import annotations

import math

from .arith import TRIAL_LIMIT, BudgetExceeded, factor

__all__ = ["factor_large"]

# A strong probable prime to the 13 bases is prime below PROVEN_BOUND, the least
# strong pseudoprime to all of them (Sorenson and Webster, 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
# The most modular squarings that one factor() spends past trial division, on
# primality tests and Brent's rho.  A squaring modulo a number of b bits counts
# (1 + b // 256)**2 times, so that long cofactors are refused as fast.
RHO_BUDGET = 2_000_000


def factor_large(n: int, whole: int) -> dict[int, int]:
    """{prime: exponent} of n, which has no prime factor below TRIAL_LIMIT.

    Pieces are taken smallest first, and every power of a prime already
    found is divided out of a piece before it is looked at, so a prime
    power costs one split.  A piece goes first to Brent's rho for about the
    cost of one primality base; if that does not split it, a strong probable
    prime to every base is prime below PROVEN_BOUND and refused at or above
    it, and any other piece goes back to rho without that limit.  Rho
    (Brent, 1980) uses c = 1, 2, ... in turn, so an n always gets the same
    answer or the same refusal.
    """
    found, todo, spent = {}, [n], 0
    try:
        name = f"factor({whole})"
    except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
        name = f"factor(<{whole.bit_length()}-bit n>)"

    def pay(k):
        nonlocal spent
        spent += k
        if spent > RHO_BUDGET:
            raise BudgetExceeded(f"modular squarings for {name}", RHO_BUDGET)

    def rho(m, size, until):  # a divisor 1 < g < m, or None once spent would pass until
        g, c = m, 0
        while g == m:  # Brent's cycle search for x -> x*x + c, gcds batched by 128
            y, r, q, g, c = 2, 1, 1, 1, c + 1
            while g == 1:
                if spent + 2 * r * size > until:
                    return None
                pay(2 * r * size)
                x, k = y, 0
                for _ in range(r):
                    y = (y * y + c) % m
                while k < r and g == 1:
                    ys = y
                    for _ in range(min(128, r - k)):
                        y = (y * y + c) % m
                        q = q * (x - y) % m
                    g, k = math.gcd(q, m), k + 128
                r *= 2
            if g == m:  # the batch passed a factor: step back through it
                g = 1
                while g == 1:
                    ys = (ys * ys + c) % m
                    g = math.gcd(x - ys, m)
        return g

    while todo:
        m = todo.pop()
        for p in found:
            while m % p == 0:
                m //= p
                found[p] += 1
        if m == 1:
            continue
        bits = m.bit_length()
        size = (1 + bits // 256) ** 2
        g = rho(m, size, spent + bits * size)
        if g is None:
            s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s, d odd
            for a in _BASES:
                pay(bits * size)
                x = pow(a, m >> s, m)
                if x == 1 or x == m - 1:
                    continue
                for _ in range(s - 1):
                    x = x * x % m
                    if x == m - 1:
                        break
                else:
                    break  # a witnesses that m is composite
            else:
                if m >= PROVEN_BOUND:
                    raise BudgetExceeded(f"probable prime {m} of {name}", PROVEN_BOUND - 1)
                found[m] = 1
                continue
            g = _root(m) or rho(m, size, math.inf)
        todo += sorted((g, m // g), reverse=True)
    return found


def _root(m: int) -> int | None:
    """r with m = r**k for a prime k, or None, for an m > 1 with no prime
    factor up to TRIAL_LIMIT: then r > TRIAL_LIMIT >= 2**9, so 9*k < bits.
    (A k-th power is a p-th power for each prime p dividing k.)"""
    bits, log_m = m.bit_length(), math.log2(m)
    for k in range(2, bits // (TRIAL_LIMIT.bit_length() - 1) + 1):
        if factor(k) != ((k, 1),):
            continue
        # Newton's integer steps fall from above to the floor of the k-th root
        # (each step is at least the floor, by AM-GM) and stop there.  They
        # start at 2**(log_m/k) raised by 2**-30 of itself, past the float
        # error, or, where a float cannot hold that, at 2**ceil(bits/k)
        r = int(2.0 ** (log_m / k) * (1 + 2.0**-30)) + 1 if log_m < 1000 * k else 1 << -(-bits // k)
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r**k == m:
            return r
    return None
