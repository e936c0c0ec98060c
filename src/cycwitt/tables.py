"""Finite commutative rigs given by their operation tables.

``FiniteCRig`` is a ``Rig`` whose elements are the indices 0..size-1 of
its addition and multiplication tables: the two-element boolean rig, the
integers mod n, a four-element tropical rig, or tables read from a
file.  The tables are validated at construction over an additive
generating set, and the rig's product kernel, ``compose``, reads them
at the element indices and skips the zero entries of the left factor.
``rig_by_name`` is the one registry of rig names: it builds the tables
and ``IntRig`` here, and imports ``rigs`` only for the carriers with
rational values.  This module imports neither ``rigs`` nor ``linalg``
at load time, so the spectra of finite rigs load only the matrix core.
"""

from __future__ import annotations

from operator import itemgetter

from .arith import BudgetExceeded, Frozen
from .matrices import IntRig, Rig

__all__ = ["FiniteCRig", "rig_by_name", "ZMOD_BUDGET"]


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

    def __contains__(self, x) -> bool:
        return type(x) is int and 0 <= x < self.size

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


# rig_by_name's limit on the entries of a zmod:N table (zmod:1000 has 2*10^6)
ZMOD_BUDGET = 2_000_000
# each name's table constructor or class, or the name of its carrier class in rigs
_RIGS = {
    "boolean": FiniteCRig.boolean,
    "tropical4": FiniteCRig.tropical4,
    "int": IntRig,
    "rational": "RationalRig",
    "tropical-unit": "TropicalUnitRig",
    "tropical-nonneg": "TropicalNonNegRig",
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
    make = _RIGS[name]
    if type(make) is str:  # a carrier class of rigs, which loads fractions and random
        from . import rigs

        make = getattr(rigs, make)
    return make()
