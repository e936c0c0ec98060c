"""Commutative rigs (rings without negatives) and matrices over them.

A rig is either finite and given by its operation tables
(``FiniteCRig``: the two-element boolean rig, the integers mod n, a
four-element tropical rig, or tables from a file, validated at
construction over an additive generating set) or a carrier with callable
operations: the integers, the rationals, and the exact-rational tropical
carriers [0,1] and [0,inf] with max as addition and ordinary product.
``rig_by_name`` is the one registry of rig names.  ``Rig``, ``IntRig``,
``RigMatrix`` and the matrix operations ``mat_compose``, ``direct_sum``
and ``kronecker`` live in ``linalg`` and are re-exported here; each rig
has one product kernel, ``compose``.  Three kernels skip the zero entries
of the left factor: ``FiniteCRig``'s reads its tables, which construction
proved to have an absorbing zero that is the additive unit and a one that
is the multiplicative unit, so a row's first term is its sum as it stands
and a term with coefficient one is g's row unread (a permutation factor
moves rows); the one shared by ``TropicalUnitRig`` and
``TropicalNonNegRig`` takes the largest term, since max never lowers a sum
that starts at zero; it orders ``Fraction`` terms by integer
cross-multiplication, exact because their denominators are positive, and
builds only the winning product; entries of any other type take
``Rig.compose``, the literal fold.  ``IntRig``'s moves g's row for a row
of int 0s and one int 1 when g holds only ints.  Every other kernel folds
every term, so a bad zero or one still shows in the law checks.
``perm_matrix``, ``tau`` and ``sigma`` are memoized in bounded caches.
The law checkers verify the rig axioms, over tables of interned values
(exact for operations that depend only on the values), and the
matrix-category laws (symmetry under block swap, centrality of
scalars, the interleaving permutation that exchanges the two Kronecker
orders) either exhaustively or by seeded sampling.  The module also
enumerates unit groups of matrix monoids and the integer matrices of
operator norm at most one, which are exactly the signed sub-permutation
matrices.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from operator import index, itemgetter

from .arith import BudgetExceeded, Frozen, Record
from .linalg import (
    IntMatrix, IntRig, Rig, RigMatrix, contraction_le_one, direct_sum, kronecker,
    mat_compose,
)

__all__ = [
    "Rig", "FiniteCRig", "IntRig", "RationalRig",
    "TropicalUnitRig", "TropicalNonNegRig", "SquareMatrixRig", "INF",
    "RigMatrix", "identity", "mat_compose", "direct_sum",
    "kronecker", "oplus", "perm_matrix", "tau", "sigma",
    "check_rig_laws", "LawReport",
    "check_prop_laws", "PropLawReport",
    "gl_enumerate", "global_sections", "SectionsReport",
    "signed_subperm_matrices",
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


class FiniteCRig(Rig, Frozen):
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

    def compose(self, f_rows, g_rows, ncols):
        """Table reads that skip zero entries of f, exactly: construction
        proved zero absorbing and the additive unit and one the
        multiplicative unit, so a row's first term is its sum as it stands
        (A[zero][x] = x) and a term whose entry of f is one is g's row
        unread (M[one][x] = x).  A permutation or identity factor thus
        costs no reads; entries are element indices."""
        A, M, z, e = self.add_table, self.mul_table, self.zero, self.one
        out = []
        for f_row in f_rows:
            acc = None
            for a, g_row in zip(f_row, g_rows):
                if a == z:
                    continue
                term = g_row if a == e else tuple(map(M[a].__getitem__, g_row))
                acc = term if acc is None else tuple([A[s][t] for s, t in zip(acc, term)])
            out.append((z,) * ncols if acc is None else acc)
        return tuple(out)

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


class _TropicalRig(Rig):
    """Exact rationals with max as addition and ordinary product."""

    zero = Fraction(0)
    one = Fraction(1)
    _exact_types = frozenset({Fraction})  # entry types that compose reads as integers

    def compose(self, f_rows, g_rows, ncols):
        """Each entry is the largest term a*b, or zero when no term is
        positive, which is what the literal fold from zero gives: max keeps
        its larger argument, and mul(0, b) is zero, so the zero entries of f
        are skipped.  When every entry is a ``Fraction`` (or ``INF`` over
        [0, inf]) the terms are compared as integers, an*bn*cd > cn*ad*bd
        with positive denominators, and the winner becomes one ``Fraction``
        at most: none when a factor is one.  Over [0, inf] a nonzero term
        with an ``INF`` factor is ``INF`` and stays the leader, held as 1/0.
        Any other entry takes ``Rig.compose``, the literal fold, so values
        and errors stay."""
        kinds = set(map(type, itertools.chain(*f_rows, *g_rows)))
        if not kinds <= self._exact_types:
            return Rig.compose(self, f_rows, g_rows, ncols)
        zero = self.zero
        g_infs = [()] * len(g_rows)
        if _Inf in kinds:  # INF columns are set apart and read as zero below
            g_infs = [[j for j, b in enumerate(row) if b is INF] for row in g_rows]
            g_rows = [[zero if b is INF else b for b in row] for row in g_rows]
        out = []
        for f_row in f_rows:
            # the leading term of each column: its value top_n/top_d and either
            # itself or, while neither factor is one, its factors (a, b)
            lead, top_n, top_d, pending = [zero] * ncols, [0] * ncols, [1] * ncols, False
            for k, a in enumerate(f_row):
                if a is INF:
                    infs = [j for j, b in enumerate(g_rows[k]) if b] + g_infs[k]
                elif a._numerator:  # a Fraction's own slots: no property call
                    an, ad = a._numerator, a._denominator
                    for j, b in enumerate(g_rows[k]):
                        pn = an * b._numerator
                        if pn > 0:
                            pd = ad * b._denominator
                            if pn * top_d[j] > top_n[j] * pd:
                                top_n[j], top_d[j] = pn, pd
                                if an == ad:
                                    lead[j] = b
                                elif pn == an and pd == ad:
                                    lead[j] = a
                                else:
                                    lead[j], pending = (a, b), True
                    infs = g_infs[k]
                else:
                    continue
                for j in infs:
                    top_n[j], top_d[j], lead[j] = 1, 0, INF
            if pending:
                lead = [w[0] * w[1] if type(w) is tuple else w for w in lead]
            out.append(tuple(lead))
        return tuple(out)


class TropicalUnitRig(_TropicalRig):
    """Rationals in [0, 1] with max as addition and ordinary product."""

    name = "tropical-unit"

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


class TropicalNonNegRig(_TropicalRig):
    """Rationals in [0, inf] with max as addition; 0 * inf = 0 keeps the
    absorbing law."""

    name = "tropical-nonneg"
    _exact_types = frozenset({Fraction, _Inf})

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
        self.zero = _scalar(base, base.zero, n).entries
        self.one = identity(base, n).entries

    def key(self):
        # the name alone would equate matrices over two same-named tables
        return ("mat", self.size, self.base.key())

    def add(self, x, y):
        return tuple(
            tuple(self.base.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(x, y)
        )

    def mul(self, x, y):
        return self.base.compose(x, y, self.size)

    def elements(self):
        for m in all_matrices(self.base, self.size, self.size):
            yield m.entries


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
    ``tropical-nonneg`` are carriers with callable operations.  A
    ``zmod:N`` whose 2*N^2 table entries exceed ZMOD_BUDGET is refused
    before anything is built."""
    if name.startswith("zmod:"):
        modulus = name[5:]
        if not modulus.isdecimal():
            raise ValueError(f"zmod:N needs a positive integer N, got {modulus!r}")
        n = int(modulus)
        if 2 * n * n > ZMOD_BUDGET:
            raise BudgetExceeded(f"zmod:{n} has {2 * n * n} table entries", ZMOD_BUDGET)
        return FiniteCRig.zmod(n)
    if name not in _RIGS:
        raise ValueError(f"unknown rig name {name!r} (use {' | '.join([*_RIGS, 'zmod:N'])})")
    return _RIGS[name]()


def identity(rig: Rig, n: int) -> RigMatrix:
    return _scalar(rig, rig.one, n)


def oplus(f: RigMatrix, k: int) -> RigMatrix:
    """k-fold block sum of f with itself (k = 0 gives the empty matrix)."""
    if k < 0:
        raise ValueError(f"block sum needs k >= 0 copies, got {k}")
    z, c = f.rig.zero, f.cols
    rows = tuple(
        (z,) * (b * c) + row + (z,) * ((k - 1 - b) * c) for b in range(k) for row in f.entries
    )
    return type(f)._of(f.rig, rows, k * c)


# tau, sigma and perm_matrix each keep at most _CACHE_SIZE results.
# perm_matrix's cache, emptied when full, is keyed by (id(rig), perm): each
# entry's matrix holds its rig, so the id names no other rig while it lives
_CACHE_SIZE = 256
_PERM_MATRICES: dict = {}


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def tau(n: int, m: int) -> tuple[int, ...]:
    """Block-swap permutation on n + m strands: the last m move to the front."""
    return tuple(j + n if j < m else j - m for j in range(n + m))


@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def sigma(m: int, n: int) -> tuple[int, ...]:
    """Interleaving permutation on m*n strands: position j*m + i maps to
    i*n + j (0 <= i < m, 0 <= j < n)."""
    out = [0] * (m * n)
    for i in range(m):
        for j in range(n):
            out[j * m + i] = i * n + j
    return tuple(out)


def perm_matrix(rig: Rig, perm) -> RigMatrix:
    """Matrix with row i selecting strand perm[i] (entry one at column perm[i]);
    perm must be a permutation of range(len(perm)), given by integers.
    Memoized per rig object: a repeat is the matrix a fresh call builds."""
    perm = tuple(map(index, perm))
    m = _PERM_MATRICES.get((id(rig), perm))
    if m is None:
        n = len(perm)
        if set(perm) != set(range(n)):
            raise ValueError(f"{perm!r} is not a permutation of range({n})")
        rows = []
        for j in perm:
            row = [rig.zero] * n
            row[j] = rig.one
            rows.append(tuple(row))
        if len(_PERM_MATRICES) >= _CACHE_SIZE:
            _PERM_MATRICES.clear()
        m = _PERM_MATRICES[id(rig), perm] = RigMatrix._of(rig, tuple(rows), n)
    return m


def all_matrices(rig: Rig, n: int, m: int, elems=None):
    """Every n-by-m matrix over a finite rig, row-major lexicographic, with
    entries from elems (the listed carrier when elems is None)."""
    elems = list(rig.elements()) if elems is None else elems
    for flat in itertools.product(elems, repeat=n * m):
        yield RigMatrix(rig, [flat[i * m : (i + 1) * m] for i in range(n)])


class LawReport(Record):
    _fields = ("rig", "exhaustive", "cases", "failures")
    _defaults = {"cases": 0, "failures": []}  # failures: (law, witness)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        mode = "exhaustive" if self.exhaustive else "sampled"
        verdict = "PASS" if self.ok else f"FAIL {self.failures[:3]}"
        return f"rig laws for {self.rig} ({mode}, {self.cases} cases): {verdict}"


class _Table(dict):
    """A table that fills each missing key k with fill(k) on first read."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def check_rig_laws(r: Rig, budget: int = 512, seed: int = 0) -> LawReport:
    """Verify associativity, units, commutative addition, distributivity and
    the absorbing zero over at most budget^2 triples: exhaustive on a small
    finite carrier, else over round(budget^(2/3)) sampled elements (over
    max(8, round(budget^(1/3))) when the carrier cannot be listed).

    The laws run over index tables.  The elements, zero and one are interned
    once, equal values sharing an index, and A[x][y] and M[x][y] are the
    interned sum and product of the values at x and y, each computed on its
    first read.  That is exact for operations that depend only on the values
    (as for every carrier here, whose values hash as they compare): an
    equation between indices holds exactly when the literal equation between
    values does, so the cases, failures and their witnesses, mapped back to
    values, are the literal checker's."""
    if r.finite:
        elems = list(r.elements())
        exhaustive = len(elems) ** 3 <= budget**2
        if not exhaustive:
            elems = Rig.sample(r, random.Random(seed), round(budget ** (2 / 3)))
    else:
        elems = r.sample(random.Random(seed), max(8, round(budget ** (1 / 3))))
        exhaustive = False
    report = LawReport(r.name, exhaustive)
    vals, index = [], {}

    def intern(v):
        i = index.setdefault(v, len(vals))
        if i == len(vals):
            vals.append(v)
        return i

    def table(op):
        return _Table(lambda x: _Table(lambda y: intern(op(vals[x], vals[y]))))

    ids = [intern(x) for x in elems]
    zero, one = intern(r.zero), intern(r.one)
    A, M = table(r.add), table(r.mul)

    def fail(law, *witness):
        report.failures.append((law, tuple(vals[x] for x in witness)))

    for x in ids:
        if A[x][zero] != x:
            fail("additive unit", x)
        if M[x][one] != x or M[one][x] != x:
            fail("multiplicative unit", x)
        if M[x][zero] != zero or M[zero][x] != zero:
            fail("absorbing zero", x)
    for x, y in itertools.product(ids, repeat=2):
        report.cases += 1
        if A[x][y] != A[y][x]:
            fail("commutative addition", x, y)
        if r.commutative and M[x][y] != M[y][x]:
            fail("commutative multiplication", x, y)
    for x, y, z in itertools.product(ids, repeat=3):
        report.cases += 1
        if A[A[x][y]][z] != A[x][A[y][z]]:
            fail("associative addition", x, y, z)
        if M[M[x][y]][z] != M[x][M[y][z]]:
            fail("associative multiplication", x, y, z)
        if M[A[x][y]][z] != A[M[x][z]][M[y][z]]:
            fail("right distributivity", x, y, z)
        if M[z][A[x][y]] != A[M[z][x]][M[z][y]]:
            fail("left distributivity", x, y, z)
        if report.failures:
            break
    return report


class PropLawReport(Record):
    _fields = ("rig", "cases", "failures")
    _defaults = {"cases": 0, "failures": []}

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL {sorted({f[0] for f in self.failures})}"
        return f"matrix-category laws over {self.rig} ({self.cases} cases): {verdict}"


def check_prop_laws(
    r: Rig,
    max_rows: int = 2,
    max_cols: int = 2,
    pair_cap: int = 20000,
    quad_cap: int = 2500,
    samples: int = 6,
    seed: int = 0,
) -> PropLawReport:
    """Verify the matrix-category laws over a rig: one table of equations
    between two composites, each checked over cases from a pool of every
    matrix shape up to max_rows by max_cols (all matrices for small finite
    carriers, else `samples` per shape from the seeded generator).  Pairwise
    laws stop at pair_cap cases, three- and four-matrix laws at quad_cap; a
    failure is (law, case).  The centrality, interchange and Kronecker laws
    need a commutative carrier and fail on noncommutative control inputs.
    A finite carrier is listed once, and one of more than PROP_BUDGET
    elements is refused (BudgetExceeded) after listing PROP_BUDGET + 1."""
    rng = random.Random(seed)
    elems = list(itertools.islice(r.elements(), PROP_BUDGET + 1)) if r.finite else []
    if len(elems) > PROP_BUDGET:
        raise BudgetExceeded(f"|{r.name}| elements", PROP_BUDGET)
    exhaustive = r.finite and len(elems) ** (max_rows * max_cols) <= 4096

    def draw(k):  # a finite carrier is drawn from as Rig.sample does
        return [rng.choice(elems) for _ in range(k)] if r.finite else r.sample(rng, k)

    def mats(n, m):
        if exhaustive:
            return list(all_matrices(r, n, m, elems))
        return [RigMatrix(r, [vals[i * m : (i + 1) * m] for i in range(n)])
                for vals in (draw(n * m) for _ in range(samples))]

    pool = {(n, m): mats(n, m) for n in range(1, max_rows + 1) for m in range(1, max_cols + 1)}
    scalars = elems if r.finite else r.sample(rng, 4)
    every = [f for ms in pool.values() for f in ms]
    # after[k]: the pooled matrices with k rows, which compose after any k-column one
    after = {k: [f for f in every if f.rows == k] for k in range(1, max_cols + 1)}
    empty = RigMatrix(r, [])

    def interchange_cases():
        # rows and columns missing from the pool are drawn here, after every other case
        for (n, m), ms in pool.items():
            for k in range(1, max_rows + 1):
                rows_pool = pool.get((1, k)) or mats(1, k)
                cols_pool = pool.get((k, 1)) or mats(k, 1)
                for p in ms[: max(2, samples)]:
                    for b, d in itertools.islice(itertools.product(rows_pool, cols_pool), 16):
                        yield p, b, d

    def interchange(p, b, d):
        # a scalar made as a row-times-column composite acts on p through block
        # sums conjugated by interleavings (row-selector matrix convention)
        a, (n, m, k) = mat_compose(b, d)[0][0], (p.rows, p.cols, b.cols)
        lhs = RigMatrix(r, [[r.mul(a, x) for x in row] for row in p.entries])
        return lhs == mat_compose(
            mat_compose(mat_compose(oplus(b, n), perm_matrix(r, sigma(k, n))), oplus(p, k)),
            mat_compose(perm_matrix(r, sigma(m, k)), oplus(d, m)))

    def kron_by_blocks(p, q):
        # the block-sum composite orders rows by q-copy first; the
        # sigma(q.rows, p.rows) row fix aligns it with the Kronecker order
        mixed = mat_compose(mat_compose(oplus(p, q.rows), perm_matrix(r, sigma(p.cols, q.rows))),
                            oplus(q, p.cols))
        return mat_compose(perm_matrix(r, sigma(q.rows, p.rows)), mixed)

    laws = [  # (cap or None, cases, [(law, equation over a case)])
        (None, ((f,) for f in every), [
            ("identity unit", lambda f: mat_compose(identity(r, f.rows), f) == f
             and mat_compose(f, identity(r, f.cols)) == f),
            ("strict empty block", lambda f: direct_sum(f, empty) == f
             and direct_sum(empty, f) == f),
        ]),
        (quad_cap, ((f, g, h) for f in every for g in after[f.cols] for h in after[g.cols]), [
            ("composition associativity", lambda f, g, h:
             mat_compose(mat_compose(f, g), h) == mat_compose(f, mat_compose(g, h))),
        ]),
        (quad_cap, itertools.product(every, repeat=3), [
            ("block sum associativity", lambda f, g, h:
             direct_sum(direct_sum(f, g), h) == direct_sum(f, direct_sum(g, h))),
        ]),
        (pair_cap, itertools.product(every, repeat=2), [
            ("block swap symmetry", lambda f, g: direct_sum(g, f) == mat_compose(
                mat_compose(perm_matrix(r, tau(f.rows, g.rows)), direct_sum(f, g)),
                perm_matrix(r, tau(g.cols, f.cols)))),
        ]),
        (quad_cap, ((f1, g1, f2, g2) for f1 in every for g1 in after[f1.cols]
                    for f2 in every for g2 in after[f2.cols]), [
            ("block sum functoriality", lambda f1, g1, f2, g2:
             mat_compose(direct_sum(f1, f2), direct_sum(g1, g2))
             == direct_sum(mat_compose(f1, g1), mat_compose(f2, g2))),
        ]),
        (None, ((a, p) for p in every for a in scalars), [
            ("scalar centrality", lambda a, p:
             mat_compose(_scalar(r, a, p.rows), p) == mat_compose(p, _scalar(r, a, p.cols))),
        ]),
        (None, interchange_cases(), [("scalar interchange", interchange)]),
        (pair_cap, ((p, q, kronecker(p, q)) for p, q in itertools.product(every, repeat=2)), [
            ("kronecker composition order", lambda p, q, pq: pq == kron_by_blocks(p, q)),
            ("kronecker swapped order", lambda p, q, pq: pq == mat_compose(
                mat_compose(perm_matrix(r, sigma(q.rows, p.rows)), kronecker(q, p)),
                perm_matrix(r, sigma(p.cols, q.cols)))),
        ]),
    ]
    report = PropLawReport(r.name)
    for cap, cases, equations in laws:
        for case in itertools.islice(cases, cap):
            report.cases += 1
            report.failures += [(law, case) for law, holds in equations if not holds(*case)]
    return report


def _scalar(r: Rig, a, n: int) -> RigMatrix:
    rows = tuple(tuple(a if i == j else r.zero for j in range(n)) for i in range(n))
    return RigMatrix._of(r, rows, n)


def gl_enumerate(r: Rig, n: int) -> list[RigMatrix]:
    """All two-sided invertible n-by-n matrices over a finite rig.

    In a finite monoid f is a unit exactly when some power f^k is the
    identity (then f^(k-1) is its inverse), so each candidate's powers are
    chased until they reach the identity or repeat.  Raises BudgetExceeded
    when the |r|^(n*n) candidates exceed GL_BUDGET, after listing at most
    GL_BUDGET + 1 elements of r; the returned group is verified closed
    under composition.
    """
    if not r.finite:
        raise ValueError("gl_enumerate() needs a finite rig")
    elems = list(itertools.islice(r.elements(), GL_BUDGET + 1))
    size = len(elems)
    count = size ** (n * n)
    if count > GL_BUDGET:
        what = count if size <= GL_BUDGET else f"|{r.name}|^{n * n}"
        raise BudgetExceeded(f"{what} matrices", GL_BUDGET)
    one = identity(r, n)
    units = []
    for f in all_matrices(r, n, n, elems):
        # sets hold entries, the part of a matrix that varies here
        power, seen = f, set()
        while power != one and power.entries not in seen:
            seen.add(power.entries)
            power = mat_compose(power, f)
        if power == one:
            units.append(f)
    unit_set = {u.entries for u in units}
    for f, g in itertools.product(units, repeat=2):
        if mat_compose(f, g).entries not in unit_set:
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


# gl_enumerate's candidate limit: its closure check composes every pair of
# units, so zmod:1021 at n = 1 (1020 units) is the slowest accepted table,
# about 4 s (1x1 matrices over it, a slower product, about 15 s)
GL_BUDGET = 1024
# check_prop_laws' limit on a finite carrier, which it lists for its scalars
# and samples (zmod:1000, the largest rig_by_name builds, is accepted)
PROP_BUDGET = 1024
# global_sections' candidate limit (2x3 at bound 3 has 7^6 = 117649)
SECTIONS_BUDGET = 150_000
# rig_by_name's limit on the entries of a zmod:N table (zmod:1000 has 2*10^6)
ZMOD_BUDGET = 2_000_000


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
