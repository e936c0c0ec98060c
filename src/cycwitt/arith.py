"""Exact number theory at desk scale.

Factorization (trial division here; a cofactor it leaves goes to
``bigfactor``), Mobius and Euler functions, Ramanujan sums, and
cyclotomic polynomials (built by the series kernels of ``poly``), over
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
    "divisors",
    "mobius",
    "euler_phi",
    "frobenius_basis",
    "ramanujan_sum",
    "cyclotomic_poly",
    "join_signed",
]


class BudgetExceeded(ValueError):
    """Work over an explicit limit, refused before it starts or, for
    factoring, once the squarings spent past trial division pass
    bigfactor.RHO_BUDGET or a probable prime factor is too large to prove
    prime."""

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


# The three unbounded caches in this module, and _REFUSED, hold one entry per
# distinct argument: the indices, levels and degrees of the elements,
# matrices and commands a caller supplies, together with their divisors.
# They grow with the inputs, not with the work done on them.
_REFUSED: dict[int, BudgetExceeded] = {}  # factor's refusals, which lru_cache does not keep


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...), primes ascending.

    factor(1) is the empty tuple.  Trial divisors stop at TRIAL_LIMIT (later
    for a long n), and bigfactor.factor_large factors a cofactor they leave
    that could be composite, or raises BudgetExceeded: it never returns a
    factor it has not proven prime.  A refused n is refused again at once,
    with the same exception.
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
        from .bigfactor import factor_large

        try:
            out += sorted(factor_large(n, whole).items())
        except BudgetExceeded as exc:
            _REFUSED[whole] = exc
            raise
    elif n > 1:
        out.append((n, 1))
    return tuple(out)


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


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """The n-th cyclotomic polynomial, an ``IntPolynomial`` of degree
    euler_phi(n).

    Its ``reversed_coeffs()`` is the product of (1 - z*t) over the
    primitive n-th roots z, which times_cyclotomic expands; for n >= 2,
    Phi_n is palindromic, so that is Phi_n itself.
    """
    if n < 1:
        raise ValueError(f"cyclotomic_poly() requires n >= 1, got {n}")
    from .poly import IntPolynomial, times_cyclotomic

    if n == 1:
        return IntPolynomial((-1, 1))
    return IntPolynomial(times_cyclotomic([1] + [0] * euler_phi(n), n, 1))
