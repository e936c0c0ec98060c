"""Matrices over rigs: the core that every matrix caller shares.

``Rig`` is a carrier with 0, 1, add and mul, and one product kernel,
``Rig.compose``; ``IntRig`` (its instance ``INT``) is the integers.
``RigMatrix`` is an immutable matrix over any rig, with ``mat_compose``,
``direct_sum`` and ``kronecker`` written once, and ``IntMatrix`` is the
``RigMatrix`` over ``INT``, read and written as text by ``parse_matrix``
and ``format_matrix``.  ``contraction_le_one`` is an exact integer test
for operator norm <= 1, and ``global_sections`` enumerates the integer
norm-contractions of a shape and compares them with the signed
sub-permutation matrices.  The table rigs live in ``tables``; the
carriers, permutation matrices and law checkers in ``rigs``; integer
matrix algebra in ``linalg``.  This module imports none of them.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce

from .arith import BudgetExceeded, Frozen, Record

__all__ = [
    "Rig",
    "IntRig",
    "INT",
    "RigMatrix",
    "mat_compose",
    "direct_sum",
    "kronecker",
    "IntMatrix",
    "parse_matrix",
    "format_matrix",
    "contraction_le_one",
    "global_sections",
    "SectionsReport",
    "signed_subperm_matrices",
    "SECTIONS_BUDGET",
]


class Rig:
    """A carrier with 0, 1, add and mul.

    A finite subclass enumerates its carrier, which the law checkers list
    and draw from; any other provides a sampler.  Law conformance is checked
    by ``rigs.check_rig_laws``, not assumed.  Two rigs are equal when their
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
        ``tables.FiniteCRig`` and the two tropical carriers of ``rigs`` (on
        ``Fraction`` and ``INF`` entries, calling this fold for any other)
        override it and skip the zero entries of f, exact for them because
        a zero term cannot change their sums: the tables are proved to have
        an absorbing zero that is the additive unit, and max never lowers a
        sum that starts at zero.  ``FiniteCRig`` also takes a row's first
        term as its sum (A[zero][x] = x) and a term with coefficient one as
        g's row (M[one][x] = x), both proved at construction.  The tropical
        kernel keeps the largest term, comparing ``Fraction`` terms by
        integer cross-multiplication (exact: denominators are positive) and
        building only the winner."""
        add, mul, zero = self.add, self.mul, self.zero
        g_cols = tuple(zip(*g_rows))
        return tuple(
            tuple([reduce(add, map(mul, f_row, col), zero) for col in g_cols])
            for f_row in f_rows
        )

    def elements(self):
        raise NotImplementedError(f"{self.name} has no enumerable carrier")

    def sample(self, rng, k: int) -> list:
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
        """Dot products: the fold's value and type."""
        g_cols = tuple(zip(*g_rows))
        return tuple(tuple([sum(map(operator.mul, row, col)) for col in g_cols]) for row in f_rows)

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
        # a table rig (tables.FiniteCRig) and a matrix rig (rigs.SquareMatrixRig)
        # know their elements
        if hasattr(rig, "__contains__"):
            if bad := [x for row in rows for x in row if x not in rig]:
                raise ValueError(f"matrix entry {bad[0]!r} is not an element of {rig.name}")
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


def signed_subperm_matrices(n: int, m: int) -> list[IntMatrix]:
    """All n-by-m integer matrices with at most one nonzero entry, equal to
    +-1, in every row and every column."""
    out = []
    for k in range(min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                for signs in itertools.product((1, -1), repeat=k):
                    e = [[0] * m for _ in range(n)]
                    for r_, c_, s_ in zip(rows, cols, signs):
                        e[r_][c_] = s_
                    out.append(IntMatrix(e))
    return sorted(out, key=lambda a: a.entries)


# global_sections' candidate limit (2x3 at bound 3 has 7^6 = 117649)
SECTIONS_BUDGET = 150_000


class SectionsReport(Record):
    """Exhaustive enumeration of integer norm-contractions of a given shape."""

    _fields = ("rows", "cols", "bound", "matrices", "counterexample")
    _defaults = {"matrices": [], "counterexample": None}  # counterexample: an IntMatrix

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL (e.g. {self.counterexample!r})"
        return (
            f"sections {self.rows}x{self.cols}, entries in [-{self.bound}, {self.bound}]: "
            f"{len(self.matrices)} contraction matrices; "
            f"signed sub-permutation characterization: {verdict}"
        )


def global_sections(n: int, m: int, entry_bound: int = 1) -> SectionsReport:
    """Enumerate integer matrices with bounded entries passing the exact
    norm-contraction test and compare against the signed sub-permutation
    matrices of the same shape.  Raises BudgetExceeded if n, m or the
    (2*entry_bound + 1)^(n*m) candidates exceed SECTIONS_BUDGET, priced
    from bit lengths before any huge number or range is built."""
    if entry_bound < 1:
        raise ValueError("entry bound must be >= 1")
    for name, size in (("rows", n), ("cols", m)):
        if size < 0:
            raise ValueError(f"{name} must be >= 0, got {size}")
        if size > SECTIONS_BUDGET:
            raise BudgetExceeded(f"{size} {name}", SECTIONS_BUDGET)
    base = 2 * entry_bound + 1
    bits = (base.bit_length() - 1) * n * m  # base^(n*m) >= 2^bits
    if bits >= 2 * SECTIONS_BUDGET.bit_length():
        raise BudgetExceeded(f"(2*bound + 1)^({n}*{m}) candidate matrices", SECTIONS_BUDGET)
    count = base ** (n * m)  # under 2^(2*bits) < 2^72: cheap to form and print
    if count > SECTIONS_BUDGET:
        raise BudgetExceeded(f"{count} candidate matrices", SECTIONS_BUDGET)
    report = SectionsReport(n, m, entry_bound)
    rng = range(-entry_bound, entry_bound + 1)
    passed = []
    for flat in itertools.product(rng, repeat=n * m):
        a = IntMatrix([flat[i * m : (i + 1) * m] for i in range(n)])
        if contraction_le_one(a):
            passed.append(a)
    report.matrices = sorted(passed, key=lambda a: a.entries)
    expected = signed_subperm_matrices(n, m)
    if report.matrices != expected:
        got = set(report.matrices)
        want = set(expected)
        diff = (got - want) | (want - got)
        report.counterexample = sorted(diff, key=lambda a: a.entries)[0]
    return report
