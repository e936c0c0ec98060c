"""Commutative rigs (rings without negatives) and matrices over them.

A rig is either finite and given by its operation tables
(``FiniteCRig``: the two-element boolean rig, the integers mod n, a
four-element tropical rig, or tables from a file, validated at
construction over an additive generating set) or a carrier with callable
operations: the integers, the rationals, and the exact-rational tropical
carriers [0,1] and [0,inf] with max as addition and ordinary product.
``rig_by_name`` is the one registry of rig names.  Matrices over a rig
compose (over tables, skipping zeros), block-sum and Kronecker-multiply;
the law checkers verify the rig axioms and the matrix-category laws (symmetry
under block swap, centrality of scalars, the interleaving permutation
that exchanges the two Kronecker orders) either exhaustively or by
seeded sampling.  The module also enumerates unit groups of matrix
monoids, the hyperoctahedral signed-permutation groups, and the
integer matrices of operator norm at most one, which are exactly the
signed sub-permutation matrices.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .linalg import IntMatrix, contraction_le_one

__all__ = [
    "Rig", "FiniteCRig", "IntRig", "RationalRig",
    "TropicalUnitRig", "TropicalNonNegRig", "SquareMatrixRig", "INF",
    "RigMatrix", "identity", "zeros", "mat_compose", "direct_sum",
    "kronecker", "oplus", "perm_matrix", "tau", "sigma",
    "check_rig_laws", "LawReport",
    "check_prop_laws", "PropLawReport",
    "gl_enumerate", "global_sections", "SectionsReport",
    "signed_subperm_matrices", "signed_perm_group",
    "rig_by_name",
]


class _Inf:
    _one = None

    def __new__(cls):
        if cls._one is None:
            cls._one = super().__new__(cls)
        return cls._one

    def __repr__(self):
        return "inf"


INF = _Inf()


class Rig:
    """A carrier with 0, 1, add and mul.

    Subclasses set ``finite`` and either enumerate the carrier or
    provide a sampler; law conformance is checked by check_rig_laws,
    not assumed.  Two rigs are equal when their ``key()`` agrees.
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

    def elements(self):
        raise NotImplementedError(f"{self.name} has no enumerable carrier")

    def sample(self, rng: random.Random, k: int) -> list:
        if self.finite:
            elems = list(self.elements())
            return [rng.choice(elems) for _ in range(k)]
        raise NotImplementedError(f"{self.name} has no sampler")

    def key(self):
        return self.name

    def __eq__(self, other):
        return self is other or (isinstance(other, Rig) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<rig {self.name}>"


class FiniteCRig(Rig):
    """Finite commutative rig given by addition and multiplication tables.

    Elements are indices 0..size-1; ``names`` carries display strings.
    The tables are validated at construction (commutativity, associativity,
    units, distributivity, absorbing zero) and a bad table is rejected
    with a witness.  Two instances are equal when name, tables, zero and
    one agree.
    """

    __slots__ = ("size", "add_table", "mul_table", "zero", "one", "names", "name")
    finite = True

    def __init__(self, add_table, mul_table, zero=0, one=1, names=None, name="rig"):
        add_t = tuple(tuple(row) for row in add_table)
        mul_t = tuple(tuple(row) for row in mul_table)
        size = len(add_t)
        if any(len(r) != size for r in add_t) or len(mul_t) != size or any(
            len(r) != size for r in mul_t
        ):
            raise ValueError("tables must be square and equally sized")
        rng = range(size)
        if any(x not in rng for row in add_t + mul_t for x in row):
            raise ValueError("table entries must be element indices")
        if zero not in rng or one not in rng:
            raise ValueError(f"zero {zero} and one {one} must be element indices below {size}")
        if names and len(names) != size:
            raise ValueError(f"{len(names)} names for {size} elements")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "add_table", add_t)
        object.__setattr__(self, "mul_table", mul_t)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)
        object.__setattr__(
            self, "names", tuple(names) if names else tuple(str(i) for i in rng)
        )
        object.__setattr__(self, "name", name)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("FiniteCRig is immutable")

    def _validate(self):
        """Check the laws in O(n^2 * |G|) table reads.

        Units, zero and both commutativities are checked pointwise.  Every
        element is reached from 0 by adding generators from G, built
        greedily (G = {1} for zmod:N).  For g in G and all x, y, Light's
        test x + (g + y) = (x + g) + y proves + associative (the a that
        associate include 0 and G and are closed under +).  Then
        x(y + g) = xy + xg and (xy)g = x(yg), if they hold for w and g, hold
        for w + g: x(y + (w + g)) = (xy + xw) + xg and (xy)(w + g)
        = x(yw) + x(yg) = x(y(w + g)); by induction on w they hold for all.
        A failure falls back to the full scan, which raises the first witness.
        """
        rng = range(self.size)
        A, M = self.add_table, self.mul_table
        z, e = self.zero, self.one
        for x in rng:
            if A[x][z] != x:
                raise ValueError(f"additive unit fails at {x}")
            if M[x][e] != x:
                raise ValueError(f"multiplicative unit fails at {x}")
            if M[x][z] != z:
                raise ValueError(f"absorbing zero fails at {x}")
        if tuple(zip(*A)) != A or tuple(zip(*M)) != M:
            for x in rng:
                ax, mx = A[x], M[x]
                for y in rng:
                    if ax[y] != A[y][x]:
                        raise ValueError(f"addition not commutative at {x},{y}")
                    if mx[y] != M[y][x]:
                        raise ValueError(f"multiplication not commutative at {x},{y}")
        gens, reached = [], {z}
        for x in rng:
            if x not in reached:
                gens.append(x)
                layer = reached
                while layer:
                    layer = {A[s][g] for s in layer for g in gens} - reached
                    reached |= layer
        # through_a[y](row) is (row[y+w] for w); through_m[y](row) is (row[y*w] for w)
        through_a = [itemgetter(*row) for row in A]
        through_m = [itemgetter(*row) for row in M]
        # rows over y: x + (g + y), x(y + g), x(yg) against (x + g) + y, xy + xg, (xy)g
        if all(
            through_a[g](ax) == A[ax[g]]
            and through_a[g](mx) == through_m[x](A[mx[g]])
            and through_m[g](mx) == through_m[x](M[g])
            for g in gens
            for x, ax, mx in zip(rng, A, M)
        ):
            return
        # Full scan: a pair (x, y) whose rows over w differ is rescanned in the
        # order (x, y, w), checks as below, so the witness is the first failing
        # triple and check.  (For one element ``itemgetter`` returns a bare
        # entry, so every pair is rescanned; the rescan is exact.)
        for x in rng:
            ax, mx = A[x], M[x]
            for y in rng:
                # rows over w of (x+y)+w, (x*y)*w and x*y + x*w
                sum_then, prod_then, plus_xw = A[ax[y]], M[mx[y]], A[mx[y]]
                if (
                    sum_then == through_a[y](ax)
                    and prod_then == through_m[y](mx)
                    and through_a[y](mx) == through_m[x](plus_xw)
                ):
                    continue
                ay, my = A[y], M[y]
                for w in rng:
                    if sum_then[w] != ax[ay[w]]:
                        raise ValueError(f"addition not associative at {x},{y},{w}")
                    if prod_then[w] != mx[my[w]]:
                        raise ValueError(f"multiplication not associative at {x},{y},{w}")
                    if mx[ay[w]] != plus_xw[mx[w]]:
                        raise ValueError(f"distributivity fails at {x},{y},{w}")

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def elements(self) -> range:
        return range(self.size)

    def key(self):
        return (self.name, self.add_table, self.mul_table, self.zero, self.one)

    def element_by_name(self, s: str) -> int:
        if s in self.names:
            return self.names.index(s)
        raise ValueError(f"no element named {s!r} in {self.name}")

    def describe(self, subset) -> str:
        return "{" + ", ".join(self.names[x] for x in sorted(subset)) + "}"

    def __repr__(self):
        return f"FiniteCRig({self.name}, size={self.size})"

    @classmethod
    def zmod(cls, n: int) -> "FiniteCRig":
        if n < 1:
            raise ValueError("modulus must be >= 1")
        rng = range(n)
        return cls(
            [[(x + y) % n for y in rng] for x in rng],
            [[(x * y) % n for y in rng] for x in rng],
            zero=0,
            one=1 % n,
            name=f"zmod:{n}",
        )

    @classmethod
    def boolean(cls) -> "FiniteCRig":
        return cls(
            [[0, 1], [1, 1]],
            [[0, 0], [0, 1]],
            name="boolean",
        )

    @classmethod
    def tropical4(cls) -> "FiniteCRig":
        """Four tropical values 0 < eps < 1 < top with max as addition;
        eps*eps = 0, eps*top = eps, top*top = top."""
        order = [0, 1, 2, 3]  # 0, eps, one, top
        add = [[max(x, y) for y in order] for x in order]
        mul = [
            [0, 0, 0, 0],
            [0, 0, 1, 1],
            [0, 1, 2, 3],
            [0, 1, 3, 3],
        ]
        return cls(add, mul, zero=0, one=2, names=("0", "eps", "1", "top"), name="tropical4")

    @classmethod
    def from_text(cls, text: str) -> "FiniteCRig":
        """Parse the small table format::

            size 2
            zero 0
            one 1
            names 0 1
            add
            0 1
            1 1
            mul
            0 0
            0 1

        The ``names`` line is optional.
        """
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        header: dict[str, str] = {}
        i = 0
        while i < len(lines) and lines[i].split()[0] not in ("add", "mul"):
            key, _, val = lines[i].partition(" ")
            header[key] = val.strip()
            i += 1

        def header_int(key, default=None):
            if key not in header:
                if default is None:
                    raise ValueError(f"table file has no {key!r} line")
                return default
            try:
                return int(header[key])
            except ValueError:
                raise ValueError(f"{key!r} must be an integer, got {header[key]!r}") from None

        size = header_int("size")
        if size < 1:
            raise ValueError(f"'size' must be >= 1, got {size}")

        def read_table(idx):
            if idx >= len(lines) or lines[idx] not in ("add", "mul"):
                got = repr(lines[idx]) if idx < len(lines) else "end of file"
                raise ValueError(f"expected table marker 'add' or 'mul', got {got}")
            rows = lines[idx + 1 : idx + 1 + size]
            if len(rows) < size:
                raise ValueError(f"{lines[idx]} table has {len(rows)} of {size} rows")
            table = []
            for row in rows:
                try:
                    table.append([int(x) for x in row.split()])
                except ValueError:
                    raise ValueError(f"{lines[idx]} table row {row!r} is not all integers") from None
            return lines[idx], table, idx + 1 + size

        kind1, t1, i = read_table(i)
        kind2, t2, i = read_table(i)
        tables = {kind1: t1, kind2: t2}
        if set(tables) != {"add", "mul"}:
            raise ValueError("need exactly one add table and one mul table")
        names = tuple(header["names"].split()) if "names" in header else None
        return cls(
            tables["add"],
            tables["mul"],
            zero=header_int("zero", 0),
            one=header_int("one", 1),
            names=names,
            name=header.get("name", "custom"),
        )


# the boolean rig is a table like every finite rig; the old class name
# stays callable for existing callers
BooleanRig = FiniteCRig.boolean


class IntRig(Rig):
    name = "int"
    zero = 0
    one = 1

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def sample(self, rng, k):
        return [rng.randint(-9, 9) for _ in range(k)]


class RationalRig(Rig):
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        return x + y

    def mul(self, x, y):
        return x * y

    def sample(self, rng, k):
        return [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k)]


class TropicalUnitRig(Rig):
    """Rationals in [0, 1] with max as addition and ordinary product."""

    name = "tropical-unit"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        return x if x >= y else y

    def mul(self, x, y):
        return x * y if x and y else self.zero

    def sample(self, rng, k):
        out = []
        for _ in range(k):
            q = rng.randint(1, 8)
            out.append(Fraction(rng.randint(0, q), q))
        return out


class TropicalNonNegRig(Rig):
    """Rationals in [0, inf] with max as addition; 0 * inf = 0 keeps the
    absorbing law."""

    name = "tropical-nonneg"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        if x is INF or y is INF:
            return INF
        return x if x >= y else y

    def mul(self, x, y):
        if not x or not y:  # INF is truthy
            return self.zero
        if x is INF or y is INF:
            return INF
        return x * y

    def sample(self, rng, k):
        out = []
        for _ in range(k):
            r = rng.random()
            if r < 0.15:
                out.append(INF)
            elif r < 0.3:
                out.append(Fraction(0))
            else:
                out.append(Fraction(rng.randint(0, 24), rng.randint(1, 8)))
        return out


class SquareMatrixRig(Rig):
    """n-by-n matrices over a base rig; noncommutative for n >= 2.

    Used as the control case for laws that require commutativity.
    """

    commutative = False

    def __init__(self, base: Rig, n: int):
        self.base = base
        self.size = n
        self.name = f"mat{n}:{base.name}"
        self.finite = base.finite
        self.zero = tuple(tuple(base.zero for _ in range(n)) for _ in range(n))
        self.one = tuple(
            tuple(base.one if i == j else base.zero for j in range(n)) for i in range(n)
        )

    def key(self):
        # the name alone would equate matrices over two same-named tables
        return ("mat", self.size, self.base.key())

    def add(self, x, y):
        return tuple(
            tuple(self.base.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(x, y)
        )

    def mul(self, x, y):
        n = self.size
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.base.zero
                for k in range(n):
                    acc = self.base.add(acc, self.base.mul(x[i][k], y[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def elements(self):
        base = list(self.base.elements())
        n = self.size
        for flat in itertools.product(base, repeat=n * n):
            yield tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))


_RIGS = {
    "boolean": FiniteCRig.boolean,
    "tropical4": FiniteCRig.tropical4,
    "int": IntRig,
    "rational": RationalRig,
    "tropical-unit": TropicalUnitRig,
    "tropical-nonneg": TropicalNonNegRig,
}


def rig_by_name(name: str) -> Rig:
    """The rig of a name: ``boolean``, ``zmod:N`` and ``tropical4`` are
    tables (``FiniteCRig``); ``int``, ``rational``, ``tropical-unit`` and
    ``tropical-nonneg`` are carriers with callable operations."""
    if name.startswith("zmod:"):
        modulus = name[5:]
        if not modulus.isdecimal():
            raise ValueError(f"zmod:N needs a positive integer N, got {modulus!r}")
        return FiniteCRig.zmod(int(modulus))
    if name not in _RIGS:
        raise ValueError(f"unknown rig name {name!r} (use {' | '.join([*_RIGS, 'zmod:N'])})")
    return _RIGS[name]()


class RigMatrix:
    """Rectangular matrix with entries in a fixed rig."""

    __slots__ = ("rig", "entries", "rows", "cols")

    def __init__(self, rig: Rig, entries):
        object.__setattr__(self, "rig", rig)
        rows = tuple(tuple(row) for row in entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("RigMatrix is immutable")

    @classmethod
    def _of(cls, rig: Rig, rows: tuple, ncols: int) -> "RigMatrix":
        """Trusted: rows is a tuple of tuples of length ncols (0 if empty)."""
        m = object.__new__(cls)
        for name, value in zip(cls.__slots__, (rig, rows, len(rows), ncols)):
            object.__setattr__(m, name, value)
        return m

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, RigMatrix):
            return NotImplemented
        return self.rig == other.rig and self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.rig, self.entries, self.cols))

    def __repr__(self):
        return f"RigMatrix({self.rig.name}, {self.entries!r})"


def identity(rig: Rig, n: int) -> RigMatrix:
    return _scalar(rig, rig.one, n)


def zeros(rig: Rig, n: int, m: int) -> RigMatrix:
    return RigMatrix(rig, [[rig.zero] * m for _ in range(n)])


def mat_compose(f: RigMatrix, g: RigMatrix) -> RigMatrix:
    """Matrix product; sums use rig addition, products rig multiplication.

    Over a ``FiniteCRig`` the tables are read and zero entries of f are
    skipped, exactly: construction proved zero absorbing and the additive
    unit, so a permutation or block-diagonal factor costs one row of reads
    per nonzero entry.  Callable carriers are assumed to obey no law (the
    law checkers must expose a bad zero or one): each entry is the literal
    fold of the products, starting at zero.
    """
    if f.rig != g.rig:
        raise ValueError("matrices over different rigs")
    if f.cols != g.rows:
        raise ValueError(f"inner dimensions differ: {f.rows}x{f.cols} o {g.rows}x{g.cols}")
    r = f.rig
    if isinstance(r, FiniteCRig):
        A, M, z = r.add_table, r.mul_table, r.zero
        out = []
        for f_row in f.entries:
            acc = (z,) * g.cols
            for a, g_row in zip(f_row, g.entries):
                if a != z:
                    ma = M[a]
                    acc = tuple([A[s][ma[b]] for s, b in zip(acc, g_row)])
            out.append(acc)
    else:
        add, mul, zero = r.add, r.mul, r.zero
        g_cols = tuple(zip(*g.entries))
        out = [
            tuple(functools.reduce(add, map(mul, f_row, col), zero) for col in g_cols)
            for f_row in f.entries
        ]
    return RigMatrix._of(r, tuple(out), g.cols if out else 0)


def direct_sum(f: RigMatrix, g: RigMatrix) -> RigMatrix:
    if f.rig != g.rig:
        raise ValueError("matrices over different rigs")
    right, left = (f.rig.zero,) * g.cols, (f.rig.zero,) * f.cols
    rows = tuple([row + right for row in f.entries] + [left + row for row in g.entries])
    return RigMatrix._of(f.rig, rows, f.cols + g.cols)


def oplus(f: RigMatrix, k: int) -> RigMatrix:
    """k-fold block sum of f with itself (k = 0 gives the empty matrix)."""
    z, c = f.rig.zero, f.cols
    rows = tuple(
        (z,) * (b * c) + row + (z,) * ((k - 1 - b) * c) for b in range(k) for row in f.entries
    )
    return RigMatrix._of(f.rig, rows, k * c)


def kronecker(f: RigMatrix, g: RigMatrix) -> RigMatrix:
    """Kronecker product; row (i, k) of the result is indexed i*g.rows + k,
    matching the interleaving permutation convention of sigma()."""
    if f.rig != g.rig:
        raise ValueError("matrices over different rigs")
    r = f.rig
    out = []
    for r1 in f.entries:
        for r2 in g.entries:
            out.append([r.mul(a, b) for a in r1 for b in r2])
    return RigMatrix(r, out)


def tau(n: int, m: int) -> tuple[int, ...]:
    """Block-swap permutation on n + m strands: the last m move to the front."""
    return tuple(j + n if j < m else j - m for j in range(n + m))


def sigma(m: int, n: int) -> tuple[int, ...]:
    """Interleaving permutation on m*n strands: position j*m + i maps to
    i*n + j (0 <= i < m, 0 <= j < n)."""
    out = [0] * (m * n)
    for i in range(m):
        for j in range(n):
            out[j * m + i] = i * n + j
    return tuple(out)


def perm_matrix(rig: Rig, perm) -> RigMatrix:
    """Matrix with row i selecting strand perm[i] (entry one at column perm[i])."""
    n = len(perm)
    rows = []
    for j in perm:
        row = [rig.zero] * n
        row[j] = rig.one
        rows.append(tuple(row))
    return RigMatrix._of(rig, tuple(rows), n)


def all_matrices(rig: Rig, n: int, m: int):
    """Every n-by-m matrix over a finite rig, row-major lexicographic."""
    elems = list(rig.elements())
    for flat in itertools.product(elems, repeat=n * m):
        yield RigMatrix(rig, [flat[i * m : (i + 1) * m] for i in range(n)])


@dataclass
class LawReport:
    rig: str
    exhaustive: bool
    cases: int = 0
    failures: list = field(default_factory=list)  # (law, witness)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        mode = "exhaustive" if self.exhaustive else "sampled"
        verdict = "PASS" if self.ok else f"FAIL {self.failures[:3]}"
        return f"rig laws for {self.rig} ({mode}, {self.cases} triples): {verdict}"


def check_rig_laws(r: Rig, budget: int = 512, seed: int = 0) -> LawReport:
    """Verify associativity, units, commutative addition, distributivity and
    the absorbing zero over at most budget^2 triples: exhaustive on a small
    finite carrier, else over round(budget^(2/3)) sampled elements.  A finite
    carrier's sums and products are memoized unless it is a table already."""
    add, mul = r.add, r.mul
    if r.finite:
        elems = list(r.elements())
        exhaustive = len(elems) ** 3 <= budget**2
        if not exhaustive:
            elems = Rig.sample(r, random.Random(seed), round(budget ** (2 / 3)))
        if not isinstance(r, FiniteCRig):
            add, mul = functools.cache(add), functools.cache(mul)
    else:
        elems = r.sample(random.Random(seed), max(8, round(budget ** (1 / 3))))
        exhaustive = False
    report = LawReport(r.name, exhaustive)

    def fail(law, *witness):
        report.failures.append((law, witness))

    for x in elems:
        if add(x, r.zero) != x:
            fail("additive unit", x)
        if mul(x, r.one) != x or mul(r.one, x) != x:
            fail("multiplicative unit", x)
        if mul(x, r.zero) != r.zero or mul(r.zero, x) != r.zero:
            fail("absorbing zero", x)
    for x, y in itertools.product(elems, repeat=2):
        report.cases += 1
        if add(x, y) != add(y, x):
            fail("commutative addition", x, y)
        if r.commutative and mul(x, y) != mul(y, x):
            fail("commutative multiplication", x, y)
    for x, y, z in itertools.product(elems, repeat=3):
        report.cases += 1
        if add(add(x, y), z) != add(x, add(y, z)):
            fail("associative addition", x, y, z)
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            fail("associative multiplication", x, y, z)
        if mul(add(x, y), z) != add(mul(x, z), mul(y, z)):
            fail("right distributivity", x, y, z)
        if mul(z, add(x, y)) != add(mul(z, x), mul(z, y)):
            fail("left distributivity", x, y, z)
        if report.failures:
            break
    return report


@dataclass
class PropLawReport:
    rig: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL {sorted({f[0] for f in self.failures})}"
        return f"matrix-category laws over {self.rig} ({self.cases} cases): {verdict}"


def _random_matrix(rig: Rig, rng: random.Random, n: int, m: int) -> RigMatrix:
    vals = rig.sample(rng, n * m)
    return RigMatrix(rig, [vals[i * m : (i + 1) * m] for i in range(n)])


def check_prop_laws(
    r: Rig,
    max_rows: int = 2,
    max_cols: int = 2,
    pair_cap: int = 20000,
    quad_cap: int = 2500,
    samples: int = 6,
    seed: int = 0,
) -> PropLawReport:
    """Verify the matrix-category laws over a rig.

    Unary and pairwise laws (units, strict block sums, the block-swap
    symmetry, both Kronecker orders) run over every matrix of the given
    shapes for small finite carriers, up to pair_cap; the three- and
    four-matrix laws (composition associativity, block-sum
    functoriality) are capped at quad_cap combinations.  Infinite
    carriers are sampled with the seeded generator.  The centrality,
    interchange and Kronecker laws require a commutative carrier and
    are expected to fail on noncommutative control inputs.
    """
    rng = random.Random(seed)
    report = PropLawReport(r.name)
    exhaustive = r.finite and len(list(r.elements())) ** (max_rows * max_cols) <= 4096

    shapes = [
        (n, m) for n in range(1, max_rows + 1) for m in range(1, max_cols + 1)
    ]

    def mats(n, m):
        if exhaustive:
            return list(all_matrices(r, n, m))
        return [_random_matrix(r, rng, n, m) for _ in range(samples)]

    pool = {shape: mats(*shape) for shape in shapes}
    scalars = list(r.elements()) if r.finite else r.sample(rng, 4)

    def fail(law, *witness):
        report.failures.append((law, witness))

    # units and strict empty block
    empty = RigMatrix(r, [])
    for (n, m), ms in pool.items():
        for f in ms:
            report.cases += 1
            if mat_compose(identity(r, n), f) != f or mat_compose(f, identity(r, m)) != f:
                fail("identity unit", f)
            if direct_sum(f, empty) != f or direct_sum(empty, f) != f:
                fail("strict empty block", f)

    # composition associativity (triples, capped)
    chains = (
        (f, g, h)
        for (a, b) in shapes
        for f in pool[(a, b)]
        for (b2, c) in shapes
        if b2 == b
        for g in pool[(b2, c)]
        for (c2, d) in shapes
        if c2 == c
        for h in pool[(c2, d)]
    )
    for f, g, h in itertools.islice(chains, quad_cap):
        report.cases += 1
        if mat_compose(mat_compose(f, g), h) != mat_compose(f, mat_compose(g, h)):
            fail("composition associativity", f, g, h)

    # block-sum associativity (triples, capped)
    triples = (
        (f1, f2, f3)
        for s1 in shapes
        for f1 in pool[s1]
        for s2 in shapes
        for f2 in pool[s2]
        for s3 in shapes
        for f3 in pool[s3]
    )
    for f1, f2, f3 in itertools.islice(triples, quad_cap):
        report.cases += 1
        if direct_sum(direct_sum(f1, f2), f3) != direct_sum(f1, direct_sum(f2, f3)):
            fail("block sum associativity", f1, f2, f3)

    # block-swap symmetry (pairs, capped)
    pairs = (
        (s1, f1, s2, f2)
        for s1 in shapes
        for f1 in pool[s1]
        for s2 in shapes
        for f2 in pool[s2]
    )
    for (n1, m1), f1, (n2, m2), f2 in itertools.islice(pairs, pair_cap):
        report.cases += 1
        lhs = direct_sum(f2, f1)
        rhs = mat_compose(
            mat_compose(perm_matrix(r, tau(n1, n2)), direct_sum(f1, f2)),
            perm_matrix(r, tau(m2, m1)),
        )
        if lhs != rhs:
            fail("block swap symmetry", f1, f2)

    # block-sum functoriality (quadruples, capped)
    quads = (
        (f1, g1, f2, g2)
        for (n1, m1) in shapes
        for f1 in pool[(n1, m1)]
        for (m1b, l1) in shapes
        if m1b == m1
        for g1 in pool[(m1b, l1)]
        for (n2, m2) in shapes
        for f2 in pool[(n2, m2)]
        for (m2b, l2) in shapes
        if m2b == m2
        for g2 in pool[(m2b, l2)]
    )
    for f1, g1, f2, g2 in itertools.islice(quads, quad_cap):
        report.cases += 1
        lhs = mat_compose(direct_sum(f1, f2), direct_sum(g1, g2))
        rhs = direct_sum(mat_compose(f1, g1), mat_compose(f2, g2))
        if lhs != rhs:
            fail("block sum functoriality", f1, g1, f2, g2)

    # scalar centrality
    for (n, m), ms in pool.items():
        for p in ms:
            for a in scalars:
                report.cases += 1
                if mat_compose(_scalar(r, a, n), p) != mat_compose(p, _scalar(r, a, m)):
                    fail("scalar centrality", a, p)

    # scalar interchange through interleavings: a scalar produced as a
    # row-times-column composite acts on p through block sums conjugated
    # by the interleaving permutations (row-selector matrix convention)
    for (n, m), ms in pool.items():
        for k in range(1, max_rows + 1):
            rows_pool = pool.get((1, k)) or mats(1, k)
            cols_pool = pool.get((k, 1)) or mats(k, 1)
            for p in ms[: max(2, samples)]:
                for b, d in itertools.islice(
                    itertools.product(rows_pool, cols_pool), 16
                ):
                    report.cases += 1
                    scalar = mat_compose(b, d)[0][0]
                    lhs = RigMatrix(
                        r, [[r.mul(scalar, x) for x in row] for row in p.entries]
                    )
                    rhs = mat_compose(
                        mat_compose(
                            mat_compose(oplus(b, n), perm_matrix(r, sigma(k, n))),
                            oplus(p, k),
                        ),
                        mat_compose(perm_matrix(r, sigma(m, k)), oplus(d, m)),
                    )
                    if lhs != rhs:
                        fail("scalar interchange", scalar, p)

    # the two Kronecker orders agree up to interleavings
    for ((p0, p1), p), ((q0, q1), q) in itertools.islice(
        itertools.product(
            ((s, f) for s in shapes for f in pool[s]),
            repeat=2,
        ),
        pair_cap,
    ):
        report.cases += 1
        direct = kronecker(p, q)
        # block-sum composite produces rows ordered by q-copy first; the
        # sigma(q0, p0) row fix aligns it with the Kronecker order
        mixed = mat_compose(
            mat_compose(oplus(p, q0), perm_matrix(r, sigma(p1, q0))),
            oplus(q, p1),
        )
        composed = mat_compose(perm_matrix(r, sigma(q0, p0)), mixed)
        swapped = mat_compose(
            mat_compose(perm_matrix(r, sigma(q0, p0)), kronecker(q, p)),
            perm_matrix(r, sigma(p1, q1)),
        )
        if direct != composed:
            fail("kronecker composition order", p, q)
        if direct != swapped:
            fail("kronecker swapped order", p, q)
    return report


def _scalar(r: Rig, a, n: int) -> RigMatrix:
    rows = tuple(tuple(a if i == j else r.zero for j in range(n)) for i in range(n))
    return RigMatrix._of(r, rows, n)


def gl_enumerate(r: Rig, n: int, max_matrices: int = 8192) -> list[RigMatrix]:
    """All two-sided invertible n-by-n matrices over a finite rig.

    Raises if the carrier is too large for the budget; the returned
    group is verified closed under composition.
    """
    if not r.finite:
        raise ValueError("gl_enumerate() needs a finite rig")
    count = len(list(r.elements())) ** (n * n)
    if count > max_matrices:
        raise ValueError(f"budget exceeded: {count} matrices > {max_matrices}")
    mats = list(all_matrices(r, n, n))
    one = identity(r, n)
    units = []
    for f in mats:
        for g in mats:
            if mat_compose(f, g) == one and mat_compose(g, f) == one:
                units.append(f)
                break
    unit_set = set(units)
    for f, g in itertools.product(units, repeat=2):
        if mat_compose(f, g) not in unit_set:
            raise AssertionError("unit set is not closed under composition")
    return units


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


@dataclass
class SectionsReport:
    """Exhaustive enumeration of integer norm-contractions of a given shape."""

    rows: int
    cols: int
    bound: int
    matrices: list = field(default_factory=list)
    counterexample: IntMatrix | None = None

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
    matrices of the same shape."""
    if entry_bound < 1:
        raise ValueError("entry bound must be >= 1")
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


def signed_perm_group(n: int) -> list[IntMatrix]:
    """The group of n-by-n signed permutation matrices (order 2**n * n!).

    Verified closed under products; every member is an exact isometry
    (its transpose times itself is the identity).
    """
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            e = [[0] * n for _ in range(n)]
            for i, (j, s) in enumerate(zip(perm, signs)):
                e[i][j] = s
            out.append(IntMatrix(e))
    group = set(out)
    ident = IntMatrix.identity(n)
    for a in out:
        if a.transpose() * a != ident:
            raise AssertionError("signed permutation is not an isometry")
    for a, b in itertools.product(out[: min(len(out), 48)], repeat=2):
        if a * b not in group:
            raise AssertionError("signed permutations not closed under product")
    return sorted(out, key=lambda a: a.entries)
