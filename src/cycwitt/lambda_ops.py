"""Exterior-power style operations on Witt elements.

lambda^k on a basis class is the k-th elementary symmetric function of
its roots; the generating series lambda_t extends multiplicatively to
arbitrary (virtual) elements.  The reindexed gamma operations come from
the polynomial identity (-1)^k gamma^k(x) = lambda^k(x + (k-1)*phi(1)),
avoiding any rational substitution; expanded, it reads
gamma^k(x) = (-1)^k sum_{j=1..k} C(k-1, k-j) lambda^j(x), so one series
lambda_t(x) yields every gamma^k(x).  On top of these, the module builds
the descending gamma filtration of the augmentation ideal (kernel of
the root-count map f0) as explicit integer lattices and checks the
graded eigenvalue behaviour of the operator families on it.

Trace coordinates.  The maps t_d = trace o F_d are ring maps to the
integers, with t_d(phi(n)) the Ramanujan sum c_n(d).  On the span of
phi(n), n | L, the t_d for d | L are a complete set of coordinates in
which products are pointwise, and the orthogonality of Ramanujan sums
inverts them:

    coeff of phi(n) = sum over d | L of euler_phi(L/d) c_n(d) t_d / (L euler_phi(n)).

Every such division is checked and a remainder raises ArithmeticError.
So lambda_t works coordinate by coordinate on truncated integer series:
coordinate d of lambda_t(phi(n)) is the product of (1 - z**d t) over the
primitive n-th roots z, the reversed cyclotomic polynomial of
m = n/gcd(n, d) to the power euler_phi(n)/euler_phi(m), and a product or
inverse of series is a product or inverse per coordinate.  The gamma
filtration takes its products there too.  The trace map is Z-linear and
injective, so the Hermite form of trace vectors spans the image of the
same lattice: its rows map back exactly, and a second Hermite form in
phi coordinates yields the unique basis the phi-coordinate products
would have given.  The tests cross-check all of it against Newton's
identities over Witt elements, the monomial walk and a second series
ring that convolves Witt coefficients through witt.mul; that ring is an
oracle only, so it lives in tests/oracles.py.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .arith import FrozenRecord, Record, divisors, euler_phi, factor, frobenius_basis, ramanujan_sum
from .linalg import hnf
from .poly import cyclotomic_binomials, times_binomial
from .witt import ONE, WittElement, frobenius, phi

__all__ = [
    "WittSeries",
    "lambda_basis",
    "lambda_series",
    "gamma_basis",
    "gamma_series",
    "gamma_filtration",
    "GammaFiltration",
    "graded_frobenius_check",
    "GradedReport",
]


class WittSeries(FrozenRecord):
    """Truncated power series in t with Witt-element coefficients.

    The truncation degree is explicit and indexing past it raises.
    Values of lambda_t / gamma_t have constant term phi(1).
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

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

    def __repr__(self):
        return f"WittSeries(degree={self.degree}, {list(self.coeffs)!r})"


class _TraceCoords:
    """The ring maps t_d = trace o F_d, d | L, on the span of phi(n), n | L.

    t_d(phi(n)) is the Ramanujan sum c_n(d), and the vector of all t_d
    determines an element of the span: orthogonality of Ramanujan sums
    over the z <= L, grouped by d = gcd(z, L), gives
    coeff of phi(n) = sum over d | L of euler_phi(L/d) c_n(d) t_d / (L euler_phi(n)).
    The numerators factor over the primes of L, since c_n(d) and
    euler_phi(L/d) are products of their prime-power parts, so they are
    summed one prime at a time: tau(L) * sum(e + 1) products for
    L = prod p**e, not tau(L)**2.
    """

    __slots__ = ("ds", "_slot", "_steps", "_dens", "_gain")

    def __init__(self, L: int):
        self.ds = divisors(L)
        radix = [1]  # the divisors with the exponent of the last prime running fastest
        self._steps = []
        stride = len(self.ds)
        for p, e in factor(L):
            radix = [d * p**j for d in radix for j in range(e + 1)]
            stride //= e + 1
            table = [[euler_phi(p ** (e - b)) * ramanujan_sum(p**a, p**b) for b in range(e + 1)]
                     for a in range(e + 1)]
            self._steps.append((stride, table))
        slot = {d: i for i, d in enumerate(radix)}
        self._slot = [slot[d] for d in self.ds]
        self._dens = [L * euler_phi(n) for n in self.ds]
        self._gain = math.prod(max(sum(map(abs, row)) for row in t) for _, t in self._steps)

    def solve(self, gs) -> list[list[int]]:
        """The phi-coordinates over ds of the element of each trace vector in gs.

        Kronecker substitution: value k of a coordinate sits in a signed
        w-bit slot at bit w*k of one int, the linear tables act on the packed
        ints once, and the slots are read back and divided.  |slot| <=
        max|value| * gain (the product of the tables' largest absolute row
        sums), and w is that bound's bit length plus 2: exact at any size.
        A remainder, which the callers never produce, raises ArithmeticError.
        """
        gs = [list(g) for g in gs]
        w = (max((max(max(g), -min(g)) for g in gs), default=0) * self._gain).bit_length() + 2
        v = [0] * len(self.ds)
        for i, col in zip(self._slot, zip(*gs)):
            v[i] = sum(x << w * k for k, x in enumerate(col))
        for stride, table in self._steps:
            span = stride * len(table)
            for base in (hi + lo for hi in range(0, len(v), span) for lo in range(stride)):
                vals = v[base:base + span:stride]
                for a, row in enumerate(table):
                    v[base + a * stride] = sum(map(operator.mul, row, vals))
        half, mask = 1 << (w - 1), (1 << w) - 1
        bias = half * (((1 << (w * len(gs))) - 1) // mask)  # half in every slot
        out = [[] for _ in gs]
        for n, i, den in zip(self.ds, self._slot, self._dens):
            u = v[i] + bias
            for g, row in zip(gs, out):
                q, r = divmod((u & mask) - half, den)
                if r:
                    raise ArithmeticError(f"trace vector {g} over divisors {self.ds} has no "
                                          f"integer coefficient at phi({n}): implementation bug")
                row.append(q)
                u >>= w
        return out


# Bounded, unlike the arith caches.  An entry is small: O(tau(L)) integers
# (ds, _slot, _dens) plus one (e + 1)**2 table per p**e || L.  But its key is
# the lcm of whatever support lambda_series meets, not one of a few levels,
# so an unbounded cache would keep every level a long session ever touched;
# 32 entries hold the levels a filtration or a lambda table revisits.
@lru_cache(maxsize=32)
def _trace_coords(L: int) -> _TraceCoords:
    return _TraceCoords(L)


def _trace_lambda(a: WittElement, degree: int, ds: tuple[int, ...]) -> list[list[int]]:
    """t_d(lambda_t(a)) for each d in ds, as integer series to degree.

    On phi(n) it is the product of (1 - z**d t) over the primitive n-th
    roots z; the z**d are the primitive m-th roots, each k times, for
    (m, k) = frobenius_basis(d, n), so it is the reversed m-th
    cyclotomic polynomial to that power.  t_d is a ring map, so a
    combination gives the product of these powers, exponents times
    coefficients.  Reversed Phi_m is the product of (1 - t**e)**mobius(m/e)
    over cyclotomic_binomials(m, degree), so the whole coordinate is a
    product of (1 - t**e)**k_e over e <= degree: one integer exponent per e.
    """
    cols = []
    for d in ds:
        exps: dict[int, int] = {}
        for n, c in a.items():
            m, k = frobenius_basis(d, n)  # uncached: lambda levels ask for many (d, n)
            for e, mu in cyclotomic_binomials(m, degree):
                exps[e] = exps.get(e, 0) + mu * c * k
        col = [1] + [0] * degree
        for e, k in exps.items():
            if k:
                col = times_binomial(col, e, k)
        cols.append(col)
    return cols


def _gamma_from_lambda(col: list[int], degree: int) -> list[int]:
    """The shift identity on one trace coordinate (see gamma_series)."""
    out = [1]
    for k in range(1, degree + 1):
        out.append(sum(math.comb(k - 1, k - j) * (-col[j] if j % 2 else col[j])
                       for j in range(1, k + 1)))
    return out


# Unbounded, like the arith caches: an entry is bound + 1 integers, and the
# keys a process meets are the (d/gcd(d, c), euler_phi(d)) pairs of the levels
# it filters, at a handful of bounds.
@lru_cache(maxsize=None)
def _atom_column(q: int, f: int, bound: int) -> tuple[int, ...]:
    """t_1 of gamma_t((f/euler_phi(q)) phi(q) - f) to degree bound.

    This is coordinate c of gamma_t(phi(d) - euler_phi(d)) for q = d/gcd(d, c)
    and f = euler_phi(d): t_c = t_1 o F_c, F_c commutes with gamma_t (it is a
    lambda-ring map), and F_c sends phi(d) - f to (f/euler_phi(q)) phi(q) - f,
    since frobenius_basis(c, d) = (q, f/euler_phi(q)).  So every level's gamma
    filtration reads the same column for the same key, computed once per
    process.
    """
    col = _trace_lambda(phi(q) * (f // euler_phi(q)) - ONE * f, bound, (1,))[0]
    return tuple(_gamma_from_lambda(col, bound))


def _gamma_atoms(ds: tuple[int, ...], bound: int) -> dict[int, list[list[int]]]:
    """The nonzero trace vectors of gamma^e(phi(d) - euler_phi(d)), d in ds[1:],
    for each degree 1 <= e <= bound: coordinate c read from _atom_column."""
    atoms: dict[int, list[list[int]]] = {e: [] for e in range(1, bound + 1)}
    for d in ds[1:]:
        f = euler_phi(d)
        cols = [_atom_column(d // math.gcd(d, c), f, bound) for c in ds]  # t_c(gamma_t(phi(d) - f))
        for e in atoms:
            v = [-col[e] if e % 2 else col[e] for col in cols]
            if any(v):
                atoms[e].append(v)
    return atoms


# Unbounded, like _atom_column: (N, t) -> the Hermite basis of S_t at level N
# in trace coordinates, at most tau(N) rows of tau(N) integers.  It does not
# depend on the depth (coefficient e of an atom column is the same at every
# truncation past e), so a filtration at N reuses the S_t of every earlier
# one there, and the keys grow only with the levels and depths filtered.
_SPANS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _series(cols: list[list[int]], coords: _TraceCoords) -> WittSeries:
    return WittSeries([_unvec(v, coords.ds) for v in coords.solve(zip(*cols))])


def _level(a: WittElement) -> int:
    return math.lcm(*a.support) if a else 1


def lambda_basis(n: int, k: int) -> WittElement:
    """lambda^k of the basis class phi(n); defined for 0 <= k <= euler_phi(n)."""
    if n < 1:
        raise ValueError(f"lambda_basis() requires n >= 1, got {n}")
    if not 0 <= k <= euler_phi(n):
        raise ValueError(f"lambda_basis() needs 0 <= k <= euler_phi({n}), got {k}")
    return lambda_series(phi(n), k).lam(k)


def lambda_series(a: WittElement, degree: int) -> WittSeries:
    """lambda_t(a) truncated, computed in the trace coordinates over the
    divisors of L = lcm(support): each coordinate is a truncated integer
    series, and each coefficient comes back by exact inversion."""
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    coords = _trace_coords(_level(a))
    return _series(_trace_lambda(a, degree, coords.ds), coords)


def gamma_basis(a: WittElement, k: int) -> WittElement:
    """gamma^k(a), via the shift identity: the t**k coefficient of
    lambda_t(a + (k-1)*phi(1))."""
    if k < 0:
        raise ValueError(f"gamma index must be >= 0, got {k}")
    if k == 0:
        return ONE
    return lambda_series(a + ONE * (k - 1), k)[k]


def gamma_series(a: WittElement, degree: int) -> WittSeries:
    """gamma_t(a) truncated; coefficient of t**k is (-1)**k gamma^k(a),
    read from the one series lambda_t(a) by the expanded shift identity."""
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")
    coords = _trace_coords(_level(a))
    cols = _trace_lambda(a, degree, coords.ds)
    return _series([_gamma_from_lambda(col, degree) for col in cols], coords)


def _vec(w: WittElement, ds: tuple[int, ...]) -> list[int]:
    idx = {d: i for i, d in enumerate(ds)}
    v = [0] * len(ds)
    for n, c in w.items():
        if n not in idx:
            raise ValueError(f"support {n} escapes the divisor span of {ds}")
        v[idx[n]] = c
    return v


def _unvec(v, ds: tuple[int, ...]) -> WittElement:
    return WittElement._of(dict(zip(ds, v)))


class GammaFiltration(Record):
    """Nested integer lattices I_0 >= I_1 >= ... inside the span of the
    divisor classes of N, in Hermite form over that basis."""

    _fields = ("N", "depth", "divisors", "lattices")

    def basis_elements(self, k: int) -> list[WittElement]:
        return [_unvec(row, self.divisors) for row in self.lattices[k].basis]


def gamma_filtration(N: int, depth: int) -> GammaFiltration:
    """Lattices I_0 (everything), I_1 (kernel of f0, spanned by
    phi(d) - euler_phi(d) for d | N, d > 1), and for k >= 2 the span of
    gamma-monomials gamma^{n_1}(a_1)...gamma^{n_l}(a_l) over the fixed
    I_1 basis with k <= n_1 + ... + n_l <= bound = depth + 2.  A larger
    bound could only grow the lattices, so downstream membership checks
    stay valid for sublattices.

    A dynamic program over gamma degree: S_t, the span of the monomials
    of degree exactly t, is spanned by s * gamma^e(b) for 1 <= e <= t and
    s in the Hermite basis of S_{t-e} (the product is bilinear and
    commutative), with S_0 = Z phi(1); then I_k = I_{k+1} + S_k, from
    I_{bound+1} = 0.  Every atom has degree e >= 1, so a monomial of
    degree <= bound has at most bound factors and needs no separate
    length bound.  Each S_t has rank <= tau(N), so the work is
    O(bound**2 tau(N)**2) products, not one per monomial (a count
    exponential in the bound).  S_t depends on N and t alone, not on the
    depth, so each one is formed once per process and kept in _SPANS:
    a later filtration at N, at any depth, and the filtration
    that graded_frobenius_check builds, form only the S_t past the
    highest t met there before, and read no atom when there are none.

    All of it runs in the trace coordinates over divisors(N), where a
    product is pointwise.  Coordinate c of gamma_t(phi(d) - euler_phi(d))
    depends only on d/gcd(d, c) and euler_phi(d), so every atom is read
    from _atom_column, which computes each distinct column once per
    process, whatever level first asks for it.  The trace map is injective
    and Z-linear, so a Hermite basis there spans the image of the same
    lattice; its rows map back exactly, and a second Hermite form in phi
    coordinates gives the unique basis.
    """
    if N < 1 or depth < 1:
        raise ValueError("gamma_filtration() requires N >= 1 and depth >= 1")
    bound = depth + 2
    ds = divisors(N)
    r = len(ds)
    lattices = [hnf([[int(i == j) for j in range(r)] for i in range(r)])]
    basis = [phi(d) - ONE * euler_phi(d) for d in ds if d > 1]
    lattices.append(hnf([_vec(b, ds) for b in basis], ambient=r))

    spans = [((1,) * r,)]  # spans[t]: Hermite basis of S_t, in trace coordinates
    atoms = None
    for t in range(1, bound + 1):
        if (N, t) not in _SPANS:
            atoms = atoms or _gamma_atoms(ds, bound)
            gens = [[x * y for x, y in zip(v, a)]
                    for e in range(1, t + 1) for a in atoms[e] for v in spans[t - e]]
            _SPANS[N, t] = hnf(gens, ambient=r).basis
        spans.append(_SPANS[N, t])

    coords = _trace_coords(N)
    ideal: tuple = ()  # Hermite basis of I_k in trace coordinates, from I_{k+1} + S_k
    upper = []  # the I_k with k <= depth, descending, in phi coordinates
    for k in range(bound, 1, -1):
        ideal = hnf(ideal + spans[k], ambient=r).basis
        if k <= depth:
            upper.append(hnf(coords.solve(ideal), ambient=r))
    lattices += upper[::-1]
    return GammaFiltration(N, depth, ds, lattices)


class GradedReport(Record):
    """Containment checks on the gamma filtration.

    For each Hermite basis vector x of I_n and each m <= m_max the
    power operator must satisfy F_m(x) - m**n * x in I_{n+1}; the
    analogous statement for (-1)**(m+1) lambda^m(x) - m**(n-1) * x is
    tracked separately (n >= 1) and reported rather than asserted.
    """

    _fields = ("N", "depth", "m_max", "frobenius_checked", "frobenius_failures",
               "lambda_checked", "lambda_failures")
    # frobenius_failures: (n, x, m) where F_m(x) - m**n * x leaves I_{n+1}
    _defaults = {"frobenius_checked": 0, "frobenius_failures": [], "lambda_checked": 0,
                 "lambda_failures": []}

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
            series = lambda_series(x, m_max) if n >= 1 else None
            for m in range(1, m_max + 1):
                y = frobenius(m, x) - x * m**n
                report.frobenius_checked += 1
                if not nxt.contains(_vec(y, ds)):
                    report.frobenius_failures.append((n, x, m))
                if n >= 1:
                    lam = series.lam(m)
                    z = (lam if (m + 1) % 2 == 0 else -lam) - x * m ** (n - 1)
                    report.lambda_checked += 1
                    if not nxt.contains(_vec(z, ds)):
                        report.lambda_failures.append((n, x, m))
    return report
