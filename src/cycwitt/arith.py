"""Exact number theory at desk scale.

Factorization (trial division, then a proven Miller-Rabin test and
Brent's rho), Mobius and Euler functions, Ramanujan sums, and cyclotomic
polynomials, all built by one kernel (a truncated series times
(1 - t**e)**k), over Python's arbitrary-precision integers.  Every
function is pure; hot lookups are memoized on immutable values.

``Frozen``, the immutability guard of every value class, and ``Record``,
the one constructor, ``==`` and ``repr`` of every result class, are
written here once for all modules.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "BudgetExceeded",
    "NotUnitSpectrum",
    "Frozen",
    "Record",
    "FrozenRecord",
    "factor",
    "divisors",
    "mobius",
    "euler_phi",
    "frobenius_basis",
    "ramanujan_sum",
    "ramanujan_sum_divisor_form",
    "phi_mu_tables",
    "IntPolynomial",
    "times_binomial",
    "cyclotomic_binomials",
    "times_cyclotomic",
    "cyclotomic_poly",
    "join_signed",
]


class BudgetExceeded(ValueError):
    """Work over an explicit limit, refused before it starts or, for
    factoring, once the squarings spent past trial division pass RHO_BUDGET
    or a probable prime factor is too large to prove prime."""

    def __init__(self, what: str, limit):
        super().__init__(f"budget exceeded: {what} > {limit}")


class Frozen:
    """Immutability guard: assigning or deleting any attribute raises
    ``AttributeError("<ClassName> is immutable")``.  A subclass names its
    fields in ``__slots__`` and sets each once through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record:
    """A plain result class.  The constructor takes ``_fields`` in order,
    positionally or by keyword; a field in ``_defaults`` (field -> value)
    may be left out, and a list default is copied for each instance.  Extra
    positional arguments, an unknown or repeated keyword or a missing field
    raise ``TypeError``.  ``==`` and ``repr`` go field by field, ``==`` only
    within one class.  A record is unhashable, since its fields may change,
    unless its class defines ``__hash__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls, fields, defaults = type(self).__name__, self._fields, self._defaults
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} arguments but {len(args)} were given")
        rest = fields[len(args):]
        for name in kwargs:
            if name not in rest:
                problem = "multiple values for" if name in fields else "an unexpected keyword"
                raise TypeError(f"{cls}() got {problem} argument {name!r}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in rest:
            if name in kwargs:
                value = kwargs[name]
            elif name in defaults:
                value = defaults[name]
                value = value.copy() if type(value) is list else value
            else:
                raise TypeError(f"{cls}() missing required argument {name!r}")
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Frozen, Record):
    """An immutable ``Record`` that hashes field by field.  A subclass names
    its fields in ``__slots__`` as well as ``_fields``; the constructor sets
    them past the guard."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())


# Raised by linalg.witt_class, and defined here beside BudgetExceeded so that
# the CLI maps both to their exit codes without importing linalg.
class NotUnitSpectrum(ValueError):
    """Matrix spectrum is not contained in {0} union roots of unity."""


# Trial divisors stop at TRIAL_LIMIT * (1 + b // 256), b the bits of what is
# left to factor: a division grows linearly with b, a rho step quadratically.
# Every n below TRIAL_LIMIT**2 is factored by trial divisors alone.
TRIAL_LIMIT = 1000
# A strong probable prime to the 13 bases is prime below PROVEN_BOUND, the least
# strong pseudoprime to all of them (Sorenson and Webster, 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
# The most modular squarings that one factor() spends past trial division, on
# primality tests and Brent's rho.  A squaring modulo a number of b bits counts
# (1 + b // 256)**2 times, so that long cofactors are refused as fast.
RHO_BUDGET = 2_000_000


# The three unbounded caches in this module, and _REFUSED, hold one entry per
# distinct argument: the indices, levels and degrees of the elements,
# matrices and commands a caller supplies, together with their divisors.
# They grow with the inputs, not with the work done on them.
_REFUSED: dict[int, BudgetExceeded] = {}  # factor's refusals, which lru_cache does not keep


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending.

    factor(1) is the empty tuple.  Trial divisors stop at TRIAL_LIMIT (later
    for a long n), and _factor_large factors a cofactor they leave that could
    be composite, or raises BudgetExceeded: it never returns a factor it has
    not proven prime.  A refused n is refused again at once, with the same
    exception.
    """
    if n < 1:
        raise ValueError(f"factor() requires n >= 1, got {n}")
    if n in _REFUSED:
        raise _REFUSED[n].with_traceback(None)
    out = []
    d, whole = 2, n
    stop = min(math.isqrt(n), TRIAL_LIMIT * (1 + n.bit_length() // 256))
    while d <= stop:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            stop = min(math.isqrt(n), TRIAL_LIMIT * (1 + n.bit_length() // 256))
        d += 1 if d == 2 else 2
    if d * d <= n:
        try:
            out += sorted(_factor_large(n, whole).items())
        except BudgetExceeded as exc:
            _REFUSED[whole] = exc
            raise
    elif n > 1:
        out.append((n, 1))
    return tuple(out)


def _factor_large(n: int, whole: int) -> dict[int, int]:
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


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factor(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)**(number of prime factors)."""
    if n < 1:
        raise ValueError(f"mobius() requires n >= 1, got {n}")
    fs = factor(n)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient: number of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi() requires n >= 1, got {n}")
    out = n
    for p, _ in factor(n):
        out -= out // p
    return out


def frobenius_basis(m: int, n: int) -> tuple[int, int]:
    """F_m phi(n) = k * phi(n/g) as (n/g, k), g = gcd(m, n).  k is the exact
    quotient euler_phi(n)/euler_phi(n/g) = euler_phi(g)*d/euler_phi(d) with
    d = gcd(g, n/g), so n is never factored; a remainder raises ArithmeticError."""
    g = math.gcd(m, n)
    d = math.gcd(g, n // g)
    k, r = divmod(euler_phi(g) * d, euler_phi(d))
    if r:
        raise ArithmeticError(f"inexact F_{m} coefficient of phi({n}): implementation bug")
    return n // g, k


def ramanujan_sum(n: int, m: int) -> int:
    """Ramanujan sum: the sum of m-th powers of the primitive n-th roots of unity.

    Closed form mobius(n/g) times frobenius_basis's euler_phi(n)/euler_phi(n/g),
    g = gcd(n, m); for m = 0 this yields euler_phi(n).
    """
    if n < 1:
        raise ValueError(f"ramanujan_sum() requires n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"ramanujan_sum() requires m >= 0, got {m}")
    k, q = frobenius_basis(m, n)
    return mobius(k) * q


def ramanujan_sum_divisor_form(n: int, m: int) -> int:
    """Same value as ramanujan_sum, via sum of mobius(n/d)*d over d | gcd(n, m).

    Kept as an independent cross-check of the closed form.
    """
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"requires m >= 0, got {m}")
    g = math.gcd(n, m)
    return sum(mobius(n // d) * d for d in divisors(g))


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


def join_signed(terms) -> str:
    """Join (negative, body) pairs as '-a + b - c'; '0' when there are none."""
    text = ""
    for negative, body in terms:
        if text:
            text += " - " if negative else " + "
        elif negative:
            text = "-"
        text += body
    return text or "0"


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


def cyclotomic_binomials(n: int, top: int):
    """The (d, mobius(n/d)) with d | n, d <= top and mobius(n/d) != 0, d
    ascending: reversed Phi_n is the product of (1 - t**d)**mobius(n/d) over
    d | n, and a factor with d > top is 1 to degree top."""
    for d in divisors(n):
        if d > top:
            break
        if mu := mobius(n // d):
            yield d, mu


def times_cyclotomic(col: list[int], n: int, k: int) -> list[int]:
    """col * (reversed Phi_n)**k to the length of col, for any integer k."""
    for d, mu in cyclotomic_binomials(n, len(col) - 1):
        col = times_binomial(col, d, k * mu)
    return col


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial (degree euler_phi(n)).

    Its ``reversed_coeffs()`` is the product of (1 - z*t) over the
    primitive n-th roots z, which times_cyclotomic expands; for n >= 2,
    Phi_n is palindromic, so that is Phi_n itself.
    """
    if n < 1:
        raise ValueError(f"cyclotomic_poly() requires n >= 1, got {n}")
    if n == 1:
        return IntPolynomial((-1, 1))
    return IntPolynomial(times_cyclotomic([1] + [0] * euler_phi(n), n, 1))
