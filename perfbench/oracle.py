"""Independent reference computations for the benchmark's checks.

Everything here uses the standard library only and none of cycwitt's
closed forms: factorizations by plain trial division (or given by the
caller for the large known semiprimes), Mobius, totient and Ramanujan
sums from the definitions, cyclotomic polynomials from the Mobius
product, determinants by Fraction elimination, and Witt elements
identified through their characters t_m = trace o F_m (see is_element:
a complete equality test that never uses the program's product
formula).  It also builds the matrix inputs (cyclotomic companion
blocks and unimodular conjugates) and enumerates the ideals of small
rig tables by brute force.
"""

from __future__ import annotations

import math
from fractions import Fraction


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (for the benchmark's small n)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors_of(fac: dict[int, int]) -> list[int]:
    ds = [1]
    for p, e in fac.items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def sub_factorization(fac: dict[int, int], d: int) -> dict[int, int]:
    """Factorization of a divisor d of the number factored as fac."""
    out = {}
    for p in fac:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e:
            out[p] = e
    return out


def mobius(fac: dict[int, int]) -> int:
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(fac: dict[int, int]) -> int:
    out = 1
    for p, e in fac.items():
        out *= (p - 1) * p ** (e - 1)
    return out


def ramanujan(n: int, m: int, fac: dict[int, int] | None = None) -> int:
    """c_n(m) = sum of mu(n/d) * d over d | gcd(n, m), from the definition."""
    fac = fac if fac is not None else factorize(n)
    g = math.gcd(n, m)
    return sum(
        mobius(sub_factorization(fac, n // d)) * d
        for d in divisors_of(sub_factorization(fac, g))
    )


def character(pairs, m: int, known: dict | None = None) -> int:
    """t_m(a) = sum of c * c_n(m) for a given as [(n, c), ...].

    known maps an index to its factorization, for indices too large to
    factor by trial division here.
    """
    known = known or {}
    return sum(c * ramanujan(n, m, known.get(n)) for n, c in pairs)


def is_element(pairs, points, want: dict[int, int]) -> bool:
    """Is pairs the element supported on points with characters want?

    points must be divisor-closed.  On such a set the characters t_m,
    m in points, are an invertible transform (zeta, Mobius and a
    diagonal, all triangular), so support and characters pin the
    element down.
    """
    pts = set(points)
    if any(n not in pts for n, _ in pairs):
        return False
    return all(character(pairs, m) == want[m] for m in points)


# -- polynomials over Z, ascending coefficient lists -------------------------

def pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pdiv(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient of a by the monic b."""
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        q[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return q


def cyclotomic(n: int) -> list[int]:
    """Phi_n as the product of (x^d - 1)^mu(n/d) over d | n."""
    fac = factorize(n)
    num, den = [1], [1]
    for d in divisors_of(fac):
        mu = mobius(sub_factorization(fac, n // d))
        xd = [-1] + [0] * (d - 1) + [1]
        if mu == 1:
            num = pmul(num, xd)
        elif mu == -1:
            den = pmul(den, xd)
    # (x^d - 1) factors of den have leading coefficient 1: exact monic division
    return pdiv(num, den)


def series_characters(n: int, m: int, degree: int) -> list[int]:
    """Coefficients of prod over primitive n-th roots z of (1 - z^m t), up to t^degree.

    The m-th powers are the primitive (n/g)-th roots, each
    phi(n)/phi(n/g) times (g = gcd(n, m)), so the product is the
    reversed Phi_{n/g} to that power.
    """
    k = n // math.gcd(n, m)
    rev = list(reversed(cyclotomic(k)))
    reps = totient(factorize(n)) // totient(factorize(k))
    out = [1]
    for _ in range(reps):
        out = pmul(out, rev)
    return (out + [0] * (degree + 1))[: degree + 1]


# -- integer matrices as lists of lists --------------------------------------

def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def direct_sum(a, b):
    na, nb = len(a), len(b)
    return [list(r) + [0] * nb for r in a] + [[0] * na + list(r) for r in b]


def kron(a, b):
    return [[x * y for x in r1 for y in r2] for r1 in a for r2 in b]


def companion(d: int) -> list[list[int]]:
    """Companion matrix of the cyclotomic polynomial Phi_d."""
    p = cyclotomic(d)
    n = len(p) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return rows


def conjugate(b, rng, ops: int) -> list[list[int]]:
    """U B U^-1 for U a product of ops random transvections I + c*e_ij, c = +-1."""
    a = [list(r) for r in b]
    n = len(a)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r in a:
            r[j] -= c * r[i]
    return a


def det(a) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                row_c = m[c]
                m[r] = [x - f * y for x, y in zip(m[r], row_c)]
    return out


def det_one_minus(a, k: int) -> int:
    """det(I - k*A)."""
    n = len(a)
    d = det([[int(i == j) - k * a[i][j] for j in range(n)] for i in range(n)])
    if d.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix is not an integer")
    return int(d)


def growth_certificate(a, limit: int = 400) -> int | None:
    """Least j <= limit with |tr(A^j)| > dim A, or None.

    If every eigenvalue lay in the closed unit disc, |tr(A^j)| could
    never exceed the dimension; such a j is an exact certificate of an
    eigenvalue outside the disc.
    """
    n = len(a)
    p = [list(r) for r in a]
    for j in range(1, limit + 1):
        if abs(sum(p[i][i] for i in range(n))) > n:
            return j
        p = matmul(p, a)
    return None


# -- small rigs given by tables, by subset enumeration ------------------------

def ideals(add, mul, zero: int) -> list[frozenset]:
    """Every subset containing zero and closed under sums and scaling."""
    n = len(add)
    out = []
    for bits in range(1 << n):
        s = frozenset(x for x in range(n) if bits >> x & 1)
        if zero in s and all(add[x][y] in s for x in s for y in s) and all(
            mul[c][x] in s for c in range(n) for x in s
        ):
            out.append(s)
    return out


def primes(add, mul, zero: int, one: int) -> list[list[int]]:
    """Proper ideals whose complement is closed under multiplication, sorted."""
    n = len(add)
    return sorted(
        sorted(s) for s in ideals(add, mul, zero)
        if one not in s and all(mul[x][y] not in s for x in range(n) if x not in s
                                for y in range(n) if y not in s)
    )


# -- lattices ----------------------------------------------------------------

def in_echelon_lattice(vec, basis) -> bool:
    """Membership in the lattice spanned by rows in strict row-echelon form
    (each row's first nonzero entry strictly right of the previous one)."""
    v = list(vec)
    last = -1
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        if p <= last:
            raise ValueError("basis is not in row-echelon form")
        last = p
        q, r = divmod(v[p], row[p])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def filtration_problem(level: int, depth: int, divisors, bases) -> str | None:
    """Check gamma-filtration lattices I_0 >= I_1 >= ... over the divisors of level.

    I_0 must be the whole span, I_1 exactly the kernel of the root-count
    map (spanned by phi(d) - phi(d)(1)), and each lattice must contain
    the next.  Returns None when all hold, else what failed.
    """
    ds = divisors_of(factorize(level))
    tots = [totient(factorize(d)) for d in ds]
    r = len(ds)
    if list(divisors) != ds or len(bases) != depth + 1:
        return "wrong divisor basis or number of lattices"
    if len(bases[0]) != r or any(
        not in_echelon_lattice([int(i == j) for j in range(r)], bases[0]) for i in range(r)
    ):
        return "I_0 is not the whole divisor span"
    if len(bases[1]) != r - 1 or any(sum(v * t for v, t in zip(row, tots)) for row in bases[1]):
        return "I_1 is not inside the kernel of f0"
    for i in range(1, r):
        gen = [0] * r
        gen[0], gen[i] = -tots[i], 1
        if not in_echelon_lattice(gen, bases[1]):
            return "I_1 misses a generator phi(d) - phi(d)(1)"
    for k in range(depth):
        if any(not in_echelon_lattice(row, bases[k]) for row in bases[k + 1]):
            return f"I_{k + 1} is not inside I_{k}"
    return None
