"""Exact number theory at desk scale.

Factorization by deterministic trial division, Mobius and Euler
functions, Ramanujan sums, and cyclotomic polynomials, all over
Python's arbitrary-precision integers.  Every function is pure; hot
lookups are memoized on immutable values.

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
    "prime_factors",
    "divisors",
    "mobius",
    "euler_phi",
    "ramanujan_sum",
    "ramanujan_sum_divisor_form",
    "phi_mu_tables",
    "IntPolynomial",
    "cyclotomic_poly",
    "join_signed",
]


class BudgetExceeded(ValueError):
    """Work over an explicit limit, refused before it starts or, for
    factoring, as soon as the trial divisor passes FACTOR_BUDGET."""

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


# The largest trial divisor: every n below FACTOR_BUDGET**2 still factors.
FACTOR_BUDGET = 4_000_000


# The three unbounded caches in this module hold one entry per distinct
# argument: the indices, levels and degrees of the elements, matrices and
# commands a caller supplies, together with their divisors.  They grow with
# the inputs, not with the work done on them.
@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending.

    factor(1) is the empty tuple.  Trial divisors stop at FACTOR_BUDGET; a
    cofactor they leave that could still be composite raises BudgetExceeded.
    """
    if n < 1:
        raise ValueError(f"factor() requires n >= 1, got {n}")
    out = []
    d, whole = 2, n
    stop = min(math.isqrt(n), FACTOR_BUDGET)
    while d <= stop:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
            stop = min(math.isqrt(n), FACTOR_BUDGET)
        d += 1 if d == 2 else 2
    if d * d <= n:
        raise BudgetExceeded(f"trial divisors for factor({whole})", FACTOR_BUDGET)
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, ascending."""
    return tuple(p for p, _ in factor(n))


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


def ramanujan_sum(n: int, m: int) -> int:
    """Ramanujan sum: the sum of m-th powers of the primitive n-th roots of unity.

    Closed form mobius(n/g) * euler_phi(n) / euler_phi(n/g) with
    g = gcd(n, m); for m = 0 this yields euler_phi(n).
    """
    if n < 1:
        raise ValueError(f"ramanujan_sum() requires n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"ramanujan_sum() requires m >= 0, got {m}")
    g = math.gcd(n, m)
    k = n // g
    num = mobius(k) * euler_phi(n)
    den = euler_phi(k)
    q, r = divmod(num, den)
    assert r == 0
    return q


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

    def __bool__(self):
        return bool(self.coeffs)

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

    def divexact(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient; raises ArithmeticError on a nonzero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError(f"non-exact division: remainder {r.coeffs}")
        return q

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


def _x_pow_minus_one(n: int) -> IntPolynomial:
    return IntPolynomial((-1,) + (0,) * (n - 1) + (1,))


@lru_cache(maxsize=None)
def _cyclotomic_plain(n: int) -> IntPolynomial:
    # Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d; exact in Z[x].
    num = _x_pow_minus_one(n)
    for d in divisors(n):
        if d < n:
            num = num.divexact(_cyclotomic_plain(d))
    return num


def cyclotomic_poly(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial (degree euler_phi(n)).

    Its ``reversed_coeffs()`` is the product of (1 - z*t) over the
    primitive n-th roots z, whose constant term is 1.
    """
    if n < 1:
        raise ValueError(f"cyclotomic_poly() requires n >= 1, got {n}")
    return _cyclotomic_plain(n)
