"""Exact integer matrix algebra.

Hermite-normal-form lattices with decidable membership, reversed
characteristic polynomials det(1 - x*A) by Berkowitz's division-free
algorithm, an exact rational test for operator norm <= 1, and
conversion of unit-spectrum integer matrices to Witt classes. By
Kronecker's theorem an integer matrix whose eigenvalues all lie in the
closed unit disc has characteristic polynomial x**a times a product of
cyclotomics, so the class is read off an exact factorization, and a
failed factorization proves an eigenvalue outside the disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .arith import IntPolynomial, cyclotomic_poly, euler_phi
from .witt import WittElement

__all__ = [
    "IntMatrix",
    "parse_matrix",
    "format_matrix",
    "HnfLattice",
    "hnf",
    "charpoly_rev",
    "contraction_le_one",
    "SpectrumVerdict",
    "spectrum_in_unit_disc",
    "NotUnitSpectrum",
    "witt_class",
    "companion",
    "companion_blocks",
]


class IntMatrix:
    """Dense rectangular integer matrix; immutable, elementwise equality."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int) -> "IntMatrix":
        return cls([[0] * m for _ in range(n)])

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.entries, self.cols))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[x * other for x in row] for row in self.entries])
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}")
        bt = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("powers need a square matrix")
        if m < 0:
            raise ValueError("negative matrix powers are not defined")
        out = IntMatrix.identity(self.rows)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries)) if self.entries else [])

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def direct_sum(self, other: "IntMatrix") -> "IntMatrix":
        top = [list(r) + [0] * other.cols for r in self.entries]
        bot = [[0] * self.cols + list(r) for r in other.entries]
        return IntMatrix(top + bot)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        out = []
        for r1 in self.entries:
            for r2 in other.entries:
                out.append([a * b for a in r1 for b in r2])
        return IntMatrix(out)

    def __repr__(self):
        return f"IntMatrix({format_matrix(self)!r})"


def parse_matrix(text: str) -> IntMatrix:
    """Rows separated by ';', entries by ',': e.g. '0,1;1,0'.

    A bad entry raises ValueError naming the entry, its row and the format.
    """
    rows = []
    for i, chunk in enumerate(text.strip().split(";"), 1):
        row = []
        for entry in chunk.split(","):
            try:
                row.append(int(entry))
            except ValueError:
                raise ValueError(
                    f"matrix entry {entry.strip()!r} in row {i} is not an integer "
                    f"(expected a matrix like a,b;c,d)"
                ) from None
        rows.append(row)
    return IntMatrix(rows)


def format_matrix(a: IntMatrix) -> str:
    return ";".join(",".join(str(x) for x in row) for row in a.entries)


class HnfLattice:
    """Sublattice of Z^ambient given by a row-style Hermite basis.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), so the basis is canonical and membership is decided by
    exact successive reduction.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))

    def __setattr__(self, name, value):
        raise AttributeError("HnfLattice is immutable")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, HnfLattice):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def contains(self, vec) -> bool:
        v = list(vec)
        if len(v) != self.ambient:
            raise ValueError("vector has wrong length")
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            if v[p] % row[p]:
                return False
            q = v[p] // row[p]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def includes(self, other: "HnfLattice") -> bool:
        return all(self.contains(r) for r in other.basis)

    def __repr__(self):
        return f"HnfLattice(ambient={self.ambient}, rank={self.rank})"


def hnf(generators, ambient: int | None = None) -> HnfLattice:
    """Row-style Hermite normal form of the lattice spanned by the generators."""
    gens = [list(g) for g in generators]
    if ambient is None:
        if not gens:
            raise ValueError("need either generators or an explicit ambient rank")
        ambient = len(gens[0])
    if any(len(g) != ambient for g in gens):
        raise ValueError("generators of mixed length")
    mat = [g for g in gens if any(g)]
    m = len(mat)
    pivot_row = 0
    for col in range(ambient):
        while True:
            nz = [i for i in range(pivot_row, m) if mat[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][col]))
            mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
            piv = mat[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, m):
                q = mat[i][col] // piv
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
                if mat[i][col]:
                    done = False
            if done:
                break
        if nz:
            if mat[pivot_row][col] < 0:
                mat[pivot_row] = [-x for x in mat[pivot_row]]
            piv = mat[pivot_row][col]
            for i in range(pivot_row):
                q = mat[i][col] // piv  # floor keeps entries in [0, piv)
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
            pivot_row += 1
            if pivot_row == m:
                break
    return HnfLattice(ambient, mat[:pivot_row])


# -- characteristic polynomial -----------------------------------------------

def charpoly_rev(a: IntMatrix) -> IntPolynomial:
    """det(1 - x*A) by Berkowitz's division-free algorithm.

    Constant term 1; degree equals the number of nonzero eigenvalues.
    Grows det(x*I - A_k) over the leading k x k blocks A_k: bordering
    A_k by a column c, a row r and a corner d multiplies by the Toeplitz
    matrix with first column (1, -d, -r c, -r A_k c, -r A_k^2 c, ...).
    The descending coefficients of det(x*I - A) are the ascending
    coefficients of det(1 - x*A).
    """
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    m = a.entries
    poly = [1]
    for k in range(a.rows):
        block = [row[:k] for row in m[:k]]
        r = m[k][:k]
        v = [row[k] for row in m[:k]]
        t = [1, -m[k][k]]
        for j in range(k):
            if j:
                v = [sum(x * y for x, y in zip(row, v)) for row in block]
            t.append(-sum(x * y for x, y in zip(r, v)))
        poly = [
            sum(t[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return IntPolynomial(poly)


def contraction_le_one(a: IntMatrix) -> bool:
    """Exact test for operator norm <= 1: is 1 - A^T A positive semidefinite?

    Decided over the rationals by symmetric pivoting; a negative pivot,
    or a zero pivot with a nonzero residual row, certifies failure.  A column
    of squared norm above 1 makes a diagonal entry negative: rejected in integers.
    """
    at = a.transpose()
    if any(sum(x * x for x in col) > 1 for col in at):
        return False
    n = a.cols
    g = [
        [Fraction((1 if i == j else 0) - sum(x * y for x, y in zip(at[i], at[j])))
         for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        d = g[i][i]
        if d < 0:
            return False
        if d == 0:
            if any(g[i][j] for j in range(i + 1, n)):
                return False
            continue
        for r in range(i + 1, n):
            f = g[r][i] / d
            if f:
                for c in range(i + 1, n):
                    g[r][c] -= f * g[i][c]
    return True


@dataclass(frozen=True)
class SpectrumVerdict:
    """Outcome of the unit-disc spectrum test, decided exactly.

    status is 'unit_roots' (char poly = x^a * cyclotomics, with the
    factorization as witness) or 'outside' (some eigenvalue has modulus
    > 1). An outside verdict carries witness (k, tr(A^k)) for the least
    k with |tr(A^k)| > dim A, which no spectrum in the closed unit disc
    allows.
    """

    status: str
    factors: tuple[tuple[int, int], ...] = ()
    nilpotent: int = 0
    witness: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "unit_roots"


@lru_cache(maxsize=None)
def _cyclo_candidates(deg: int) -> tuple[int, ...]:
    # euler_phi(d) >= sqrt(d/2), so d <= 2*deg**2 suffices
    return tuple(d for d in range(1, 2 * deg * deg + 2) if euler_phi(d) <= deg)


def _growth_witness(rev: IntPolynomial, dim: int) -> tuple[int, int]:
    # Newton's identity turns the coefficients c_i of det(1 - x*A) into the
    # power sums p_k = tr(A^k); an eigenvalue outside the disc makes them
    # unbounded, so the search ends.
    c = rev.coeffs
    p = [0]
    for k in count(1):
        pk = -k * (c[k] if k < len(c) else 0)
        pk -= sum(c[i] * p[k - i] for i in range(1, min(k, len(c))))
        if abs(pk) > dim:
            return k, pk
        p.append(pk)


def spectrum_in_unit_disc(a: IntMatrix) -> SpectrumVerdict:
    """Decide whether all eigenvalues are zero or roots of unity.

    Attempts the exact factorization char(A) = x^a * prod Phi_d by
    trial division. A remainder left after every Phi_d is divided out
    has an eigenvalue of modulus > 1 by Kronecker's theorem (a monic
    integer polynomial with nonzero constant term and all roots in the
    closed unit disc is a product of cyclotomics).
    """
    rev = charpoly_rev(a)
    nilpotent = a.rows - rev.degree
    mono = rev.reversed_coeffs()
    factors: dict[int, int] = {}
    for d in _cyclo_candidates(mono.degree):
        if mono.degree < 1:
            break
        phi_d = cyclotomic_poly(d)
        while mono.degree >= phi_d.degree:
            q, r = divmod(mono, phi_d)
            if not r.is_zero():
                break
            factors[d] = factors.get(d, 0) + 1
            mono = q
    if mono == IntPolynomial((1,)):
        return SpectrumVerdict("unit_roots", tuple(sorted(factors.items())), nilpotent)
    return SpectrumVerdict("outside", witness=_growth_witness(rev, a.rows))


class NotUnitSpectrum(ValueError):
    """Matrix spectrum is not contained in {0} union roots of unity."""


def witt_class(a: IntMatrix, allow_nilpotent: bool = True) -> WittElement:
    """Orbit-class decomposition of a unit-spectrum matrix.

    Zero eigenvalues are stabilization padding and are dropped by
    default; pass allow_nilpotent=False to insist on an invertible
    spectrum.
    """
    verdict = spectrum_in_unit_disc(a)
    if not verdict.ok:
        k, tr = verdict.witness
        raise NotUnitSpectrum(
            f"an eigenvalue lies outside the unit disc "
            f"(tr(A^{k}) = {tr} exceeds dim A = {a.rows} in modulus)"
        )
    if verdict.nilpotent and not allow_nilpotent:
        raise NotUnitSpectrum(f"nilpotent part of dimension {verdict.nilpotent}")
    return WittElement(dict(verdict.factors))


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
    out = mats[0]
    for m in mats[1:]:
        out = out.direct_sum(m)
    return out
