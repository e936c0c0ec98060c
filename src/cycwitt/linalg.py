"""Matrices over rigs, and exact integer matrix algebra.

Matrices live here: ``RigMatrix`` over any ``Rig``, with ``mat_compose``,
``direct_sum`` and ``kronecker`` written once, and ``IntMatrix``, the
``RigMatrix`` over the integers.  Each rig has one product kernel,
``Rig.compose``.  ``rigs`` imports this module, never the reverse.

Hermite-normal-form lattices with decidable membership, reversed
characteristic polynomials det(1 - x*A) by Berkowitz's division-free
algorithm (each Krylov product packed into one big integer by Kronecker
substitution whenever its entries provably fit 64-bit slots), an exact
integer test for operator norm <= 1, and
conversion of unit-spectrum integer matrices to Witt classes. By
Kronecker's theorem an integer matrix whose eigenvalues all lie in the
closed unit disc has characteristic polynomial x**a times a product of
cyclotomics, so the class is read off an exact factorization, by series
division through arith.times_cyclotomic, and a failed factorization
proves an eigenvalue outside the disc.
"""

from __future__ import annotations

import operator
import sys
from functools import lru_cache, reduce
from itertools import count

from .arith import (Frozen, FrozenRecord, IntPolynomial, NotUnitSpectrum, cyclotomic_poly, euler_phi,
                    times_cyclotomic)
from .witt import WittElement

__all__ = [
    "Rig",
    "IntRig",
    "RigMatrix",
    "mat_compose",
    "direct_sum",
    "kronecker",
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


class Rig:
    """A carrier with 0, 1, add and mul.

    Subclasses set ``finite`` and either enumerate the carrier or
    provide a sampler; law conformance is checked by
    ``rigs.check_rig_laws``, not assumed.  Two rigs are equal when their
    ``key()`` agrees; a key determines the name, so a rig hashes its name.
    """

    __slots__ = ()
    name = "rig"
    commutative = True
    finite = False
    zero = None
    one = None

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def compose(self, f_rows, g_rows, ncols: int) -> tuple:
        """Rows of the product of an n-by-k and a k-by-ncols matrix.  No law
        is assumed (the law checkers must expose a bad zero or one): each
        entry is the literal fold of its products, starting at zero.
        ``rigs.FiniteCRig`` and the two tropical carriers of ``rigs`` (on
        ``Fraction`` and ``INF`` entries, calling this fold for any other)
        override it and skip the zero entries of f, exact for them because
        a zero term cannot change their sums: the tables are proved to have
        an absorbing zero that is the additive unit, and max never lowers a
        sum that starts at zero.  ``FiniteCRig`` also takes a row's first
        term as its sum (A[zero][x] = x) and a term with coefficient one as
        g's row (M[one][x] = x), both proved at construction.  The tropical
        kernel keeps the largest term, comparing ``Fraction`` terms by
        integer cross-multiplication (exact: denominators are positive) and
        building only the winner.  ``IntRig``'s takes a row of int 0s and one
        int 1 as g's row when g holds only ints, the fold's value and type."""
        add, mul, zero = self.add, self.mul, self.zero
        g_cols = tuple(zip(*g_rows))
        return tuple(
            tuple([reduce(add, map(mul, f_row, col), zero) for col in g_cols])
            for f_row in f_rows
        )

    def elements(self):
        raise NotImplementedError(f"{self.name} has no enumerable carrier")

    def sample(self, rng, k: int) -> list:
        if self.finite:
            elems = list(self.elements())
            return [rng.choice(elems) for _ in range(k)]
        raise NotImplementedError(f"{self.name} has no sampler")

    def key(self):
        return self.name

    def __eq__(self, other):
        return self is other or (isinstance(other, Rig) and self.key() == other.key())

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<rig {self.name}>"


class IntRig(Rig):
    name = "int"
    zero = 0
    one = 1

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def compose(self, f_rows, g_rows, ncols):
        """Dot products, except that a row of f whose entries are int 0s and
        one int 1 is g's row at that 1, when every entry of g is an int:
        then that is the fold's value and type."""
        g_cols = tuple(zip(*g_rows))
        g_ints = None  # whether every entry of g is an int, found on first need
        out = []
        for row in f_rows:
            if row.count(0) == len(row) - 1 and 1 in row and set(map(type, row)) == {int}:
                if g_ints is None:
                    g_ints = all(type(b) is int for g_row in g_rows for b in g_row)
                if g_ints:
                    out.append(g_rows[row.index(1)])
                    continue
            out.append(tuple([sum(map(operator.mul, row, col)) for col in g_cols]))
        return tuple(out)

    def sample(self, rng, k):
        return [rng.randint(-9, 9) for _ in range(k)]


INT = IntRig()


class RigMatrix(Frozen):
    """Rectangular matrix with entries in a fixed rig; immutable."""

    __slots__ = ("rig", "entries", "rows", "cols")

    def __init__(self, rig: Rig, entries):
        rows = tuple(tuple(row) for row in entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        _set_rig(self, rig)
        _set_entries(self, rows)
        _set_rows(self, len(rows))
        _set_cols(self, ncols)

    @classmethod
    def _of(cls, rig: Rig, rows: tuple, ncols: int) -> "RigMatrix":
        """Trusted: rows is a tuple of tuples of length ncols (0 if empty)."""
        m = object.__new__(cls)
        _set_rig(m, rig)
        _set_entries(m, rows)
        _set_rows(m, len(rows))
        _set_cols(m, ncols)
        return m

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, RigMatrix):
            return NotImplemented
        return ((self.rig is other.rig or self.rig == other.rig)
                and self.entries == other.entries and self.cols == other.cols)

    def __hash__(self):
        return hash((self.rig, self.entries, self.cols))

    def __repr__(self):
        return f"RigMatrix({self.rig.name}, {self.entries!r})"


# RigMatrix's own slot setters, bound once: the Frozen guard refuses every
# assignment, and a subclass declares no slots of its own
_set_rig, _set_entries, _set_rows, _set_cols = (
    RigMatrix.__dict__[name].__set__ for name in RigMatrix.__slots__
)


def mat_compose(f: RigMatrix, g: RigMatrix) -> RigMatrix:
    """Matrix product; sums use rig addition, products rig multiplication,
    both through the rig's ``compose`` kernel."""
    if f.rig is not g.rig and f.rig != g.rig:
        raise ValueError("matrices over different rigs")
    if f.cols != g.rows:
        raise ValueError(f"inner dimensions differ: {f.rows}x{f.cols} o {g.rows}x{g.cols}")
    rows = f.rig.compose(f.entries, g.entries, g.cols)
    return type(f)._of(f.rig, rows, g.cols if rows else 0)


def direct_sum(f: RigMatrix, g: RigMatrix) -> RigMatrix:
    if f.rig is not g.rig and f.rig != g.rig:
        raise ValueError("matrices over different rigs")
    right, left = (f.rig.zero,) * g.cols, (f.rig.zero,) * f.cols
    rows = tuple([row + right for row in f.entries] + [left + row for row in g.entries])
    return type(f)._of(f.rig, rows, f.cols + g.cols)


def kronecker(f: RigMatrix, g: RigMatrix) -> RigMatrix:
    """Kronecker product; row (i, k) of the result is indexed i*g.rows + k,
    matching the interleaving permutation convention of rigs.sigma()."""
    if f.rig is not g.rig and f.rig != g.rig:
        raise ValueError("matrices over different rigs")
    mul = f.rig.mul
    rows = tuple(
        tuple([mul(a, b) for a in r1 for b in r2]) for r1 in f.entries for r2 in g.entries
    )
    return type(f)._of(f.rig, rows, f.cols * g.cols if rows else 0)


class IntMatrix(RigMatrix):
    """Dense rectangular integer matrix: the ``RigMatrix`` over ``INT``."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(INT, (map(int, row) for row in entries))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int) -> "IntMatrix":
        return cls([[0] * m for _ in range(n)])

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return mat_compose(self, other)

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

    direct_sum = direct_sum
    kron = kronecker

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


class HnfLattice(FrozenRecord):
    """Sublattice of Z^ambient given by a row-style Hermite basis.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), so the basis is canonical and membership is decided by
    exact successive reduction.
    """

    __slots__ = _fields = ("ambient", "basis")

    def __init__(self, ambient: int, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))

    @property
    def rank(self) -> int:
        return len(self.basis)

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
    """Row-style Hermite normal form of the lattice spanned by the generators.

    Distinct nonzero generators are kept once, in first-seen order.  Per
    column, Euclid runs among the rows nonzero there until one is left, the
    pivot; rows it zeroes wait for the next column, or leave if all zero.
    The Hermite form of a lattice is unique (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.2), so any elimination order gives this basis.
    """
    gens = [tuple(g) for g in generators]
    if ambient is None:
        if not gens:
            raise ValueError("need either generators or an explicit ambient rank")
        ambient = len(gens[0])
    if any(len(g) != ambient for g in gens):
        raise ValueError("generators of mixed length")
    live = list(dict.fromkeys(g for g in gens if any(g)))
    basis = []
    for col in range(ambient):
        nz = [row for row in live if row[col]]
        if not nz:
            continue
        live = [row for row in live if not row[col]]
        while len(nz) > 1:
            piv = min(nz, key=lambda row: abs(row[col]))
            p = piv[col]
            rest = [piv]
            for row in nz:
                if row is not piv:
                    q = row[col] // p
                    row = [a - q * b for a, b in zip(row, piv)]
                    if row[col]:
                        rest.append(row)
                    elif any(row):
                        live.append(row)
            nz = rest
        piv = nz[0] if nz[0][col] > 0 else [-x for x in nz[0]]
        for i, row in enumerate(basis):
            q = row[col] // piv[col]  # floor keeps entries in [0, pivot)
            if q:
                basis[i] = [a - q * b for a, b in zip(row, piv)]
        basis.append(piv)
    return HnfLattice(ambient, basis)


# -- characteristic polynomial -----------------------------------------------

def _direct_sum_blocks(m) -> list[list[int]]:
    # connected components of the graph with an edge i-j where m[i][j] or
    # m[j][i] is nonzero: no entry links two components, so a simultaneous
    # permutation makes m block diagonal with these index sets as blocks
    n = len(m)
    seen = [False] * n
    blocks = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        block = [s]
        for i in block:  # block grows while it is read: a breadth-first search
            row = m[i]
            for j in range(n):
                if not seen[j] and (row[j] or m[j][i]):
                    seen[j] = True
                    block.append(j)
        blocks.append(block)
    return blocks


# The largest |slot| a packed Krylov product may hold: the 'q' view reads
# native words from little-endian bytes, so elsewhere nothing packs
_SLOT_MAX = (1 << 63) - 1 if sys.byteorder == "little" else -1


def _berkowitz(m) -> list[int]:
    # det(1 - x*M) as ascending coefficients, trailing zeros kept
    mul = operator.mul
    # a slot of A_k v or r.v is at most max|v| * (the largest row sum of |m|)
    # in absolute value: below 2^63 when max|v| <= cap
    cap = _SLOT_MAX // max([sum(map(abs, row)) for row in m] + [1])
    cols = [0] * len(m)  # column i of rows 0..k, row j in 64-bit slot j
    mask = 0  # 2^63 in each of the k + 1 slots
    poly = [1]
    for k in range(len(m)):
        # map stops at the shorter operand, so the full rows m[i] (and the
        # packed columns) act as their leading k entries against a k-vector
        rows, r = m[:k], m[k]
        cols = [c + (x << 64 * k) for c, x in zip(cols, r)]
        mask |= 1 << 64 * k + 63
        v = [row[k] for row in rows]
        t = [1, -r[k]]
        for _ in range(1, k):
            if -cap <= min(v) and max(v) <= cap:
                # one sum gives A_k v in slots 0..k-1 and r.v in slot k; each
                # slot plus 2^63 lies in [0, 2^64), so no carry crosses a slot,
                # and the xor leaves each slot's 64-bit two's complement
                packed = (sum(map(mul, v, cols)) + mask) ^ mask
                v = memoryview(packed.to_bytes(8 * k + 8, "little")).cast("q").tolist()
                t.append(-v.pop())
            else:
                t.append(-sum(map(mul, r, v)))
                v = [sum(map(mul, row, v)) for row in rows]
        if k:  # the last r.v needs no A_k v
            t.append(-sum(map(mul, r, v)))
        t.reverse()
        # poly has k + 1 coefficients: entry i of the product pairs poly[j]
        # with t[i - j], which the reversed t holds at k + 1 - i + j
        poly = [sum(map(mul, t[k + 1 - i:], poly)) for i in range(k + 2)]
    return poly


def charpoly_rev(a: IntMatrix) -> IntPolynomial:
    """det(1 - x*A) by Berkowitz's division-free algorithm, block by block.

    Constant term 1; degree equals the number of nonzero eigenvalues.
    The determinant is multiplicative over direct sums, so the matrix is
    split into the blocks that no nonzero entry links and the results
    multiplied.  Berkowitz grows det(x*I - A_k) over the leading k x k
    blocks A_k: bordering A_k by a column c, a row r and a corner d
    multiplies by the Toeplitz matrix with first column (1, -d, -r c,
    -r A_k c, -r A_k^2 c, ...).  The descending coefficients of
    det(x*I - A) are the ascending coefficients of det(1 - x*A).

    Each Krylov step v -> A_k v, with the scalar r v, is one big-integer
    sum by Kronecker substitution: column i of A_k, with r_i below it, is
    kept packed as C_i = sum over j <= k of m[j][i] * 2^(64 j), so
    sum_i v_i C_i holds (A_k v)_j in slot j and r v in slot k.  If
    max|v| times the largest absolute row sum of the block is below
    2^63, every slot lies in (-2^63, 2^63): adding 2^63 to each slot
    leaves no carry between slots, and xor with the same mask leaves
    each slot's 64-bit two's complement, read back by a signed 64-bit
    view of the bytes.  A step whose vector fails that bound takes its
    k + 1 dot products instead, so every result is exact.
    """
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    m = a.entries
    out = IntPolynomial((1,))
    for block in _direct_sum_blocks(m):
        out = out * IntPolynomial(_berkowitz([[m[i][j] for j in block] for i in block]))
    return out


def contraction_le_one(a: IntMatrix) -> bool:
    """Exact test for operator norm <= 1: is G = 1 - A^T A positive semidefinite?

    A column of squared norm above 1 makes a diagonal entry of G negative:
    rejected.  Every other column is 0 or a signed unit vector, so a pivot
    G[i][i] is 1 for a zero column, whose row and column of G are otherwise
    zero, and 0 for a unit column: symmetric pivoting never eliminates.  G
    is positive semidefinite exactly when no zero pivot has a nonzero
    residual entry G[i][j] = -<a_i, a_j>, that is, when distinct columns
    are orthogonal.
    """
    at = a.transpose()
    if any(sum(x * x for x in col) > 1 for col in at):
        return False
    return not any(
        sum(map(operator.mul, at[i], at[j])) for i in range(a.cols) for j in range(i + 1, a.cols)
    )


class SpectrumVerdict(FrozenRecord):
    """Outcome of the unit-disc spectrum test, decided exactly.

    status is 'unit_roots' (char poly = x^a * cyclotomics, with the
    factorization as witness) or 'outside' (some eigenvalue has modulus
    > 1). An outside verdict carries witness (k, tr(A^k)) for the least
    k with |tr(A^k)| > dim A, which no spectrum in the closed unit disc
    allows.
    """

    __slots__ = _fields = ("status", "factors", "nilpotent", "witness")
    _defaults = {"factors": (), "nilpotent": 0, "witness": None}

    @property
    def ok(self) -> bool:
        return self.status == "unit_roots"


# Unbounded on purpose: one entry per matrix dimension asked about, and
# each entry lists the d with euler_phi(d) <= deg.
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

    Divides c = det(1 - x*A), c[0] = 1, by each reversed Phi_d as a series,
    q = times_cyclotomic(c, d, -1) to the length of c.  The division is
    exact exactly when the last euler_phi(d) entries of q are zero: then
    reversed Phi_d times the head of q has degree < len(c) and agrees with
    c mod x**len(c), so it is c; and an exact quotient is that series.  A
    factor left after every Phi_d has an eigenvalue of modulus > 1 by
    Kronecker's theorem (a monic integer polynomial with nonzero constant
    term and all roots in the closed unit disc is a product of cyclotomics).
    """
    rev = charpoly_rev(a)
    c = list(rev.coeffs)
    factors: dict[int, int] = {}
    for d in _cyclo_candidates(rev.degree):
        if len(c) == 1:
            break
        head = len(c) - euler_phi(d)
        while head >= 1 and not any((q := times_cyclotomic(c, d, -1))[head:]):
            factors[d] = factors.get(d, 0) + 1
            c, head = q[:head], head - euler_phi(d)
    if c == [1]:
        return SpectrumVerdict("unit_roots", tuple(sorted(factors.items())), a.rows - rev.degree)
    return SpectrumVerdict("outside", witness=_growth_witness(rev, a.rows))


def witt_class(a: IntMatrix) -> WittElement:
    """Orbit-class decomposition of a unit-spectrum matrix.

    Zero eigenvalues are stabilization padding and are dropped, so a
    nilpotent matrix has class 0.  Raises NotUnitSpectrum, with the
    trace witness, when an eigenvalue lies outside the unit disc.
    """
    verdict = spectrum_in_unit_disc(a)
    if not verdict.ok:
        k, tr = verdict.witness
        raise NotUnitSpectrum(
            f"an eigenvalue lies outside the unit disc "
            f"(tr(A^{k}) = {tr} exceeds dim A = {a.rows} in modulus)"
        )
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
    return reduce(direct_sum, mats)
