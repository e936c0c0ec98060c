"""Prime spectra of finite commutative rigs.

The rigs are ``tables.FiniteCRig``: operation tables, validated at
construction, behind the same ``Rig`` interface and ``rig_by_name``
registry as every other carrier.  Ideals are subsets containing 0 and
closed under sums and arbitrary scaling; a proper ideal is prime when
its complement is multiplicatively closed.  At finite scale everything
in sight is enumerable, so radicals, localizations, the Zariski
topology and the structure-sheaf description of basic opens are all
checked literally rather than symbolically.
"""

from __future__ import annotations

import functools
import itertools

from .arith import FrozenRecord, Record
from .tables import FiniteCRig

__all__ = [
    "Ideal",
    "ideal_generated",
    "all_ideals",
    "SpecSpace",
    "spec",
    "radical",
    "RadicalMismatch",
    "multiplicative_closure",
    "Localization",
    "localize",
    "theorem1_check",
    "Theorem1Report",
]


class Ideal(FrozenRecord):
    """Subset containing 0, closed under sums and scaling by any element."""

    __slots__ = _fields = ("rig", "elements")

    def __repr__(self):
        return f"Ideal({self.rig.describe(self.elements)})"


def _grow(r: FiniteCRig, found: set, seed) -> set:
    """Grow the ideal ``found`` in place to the least ideal containing it
    and the seed, and return it.

    In a commutative rig this is the additive closure of ``found`` and the
    multiples c*g (c in r, g in seed), because construction has checked
    distributivity and associativity.  The closure grows one multiple m at
    a time: a set C closed under + becomes {c + k*m : c in C, k >= 0},
    whose layers C + m, C + 2m, ... are read off the row of m in the add
    table.  A multiple already in C adds nothing, and once the multiples
    of a seed element are in, C is an ideal again, so a seed element
    already in C is skipped.
    """
    add_t, mul_t = r.add_table, r.mul_table
    for g in seed:
        if g in found:
            continue
        for m in mul_t[g]:  # the row of g is every c*g
            if m in found:
                continue
            plus_m = add_t[m].__getitem__
            layer = found
            while layer:
                layer = set(map(plus_m, layer)) - found
                found |= layer
    return found


def ideal_generated(r: FiniteCRig, seed) -> Ideal:
    """Least ideal containing the seed set."""
    return Ideal(r, frozenset(_grow(r, {r.zero}, seed)))


def all_ideals(r: FiniteCRig) -> list[frozenset]:
    """Every ideal, by closure-lattice search from {0} (never by subset
    enumeration); sorted by size then contents.  The least ideal holding an
    ideal B and x is B + (x), so B grows by one generator of every distinct
    principal ideal not inside it."""
    generators = {}
    for x in r.elements():
        generators.setdefault(frozenset(_grow(r, {r.zero}, (x,))), x)
    start = frozenset((r.zero,))
    seen = {start}
    queue = [start]
    while queue:
        base = queue.pop()
        for x in generators.values():
            if x in base:
                continue
            nxt = frozenset(_grow(r, set(base), (x,)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


class SpecSpace(FrozenRecord):
    """The set of primes of a finite rig, with the closed/basic-open
    operators of the Zariski topology."""

    __slots__ = _fields = ("rig", "primes")

    def closed_set(self, ideal_elements) -> tuple:
        s = frozenset(ideal_elements)
        return tuple(p for p in self.primes if p >= s)

    def basic_open(self, f: int) -> tuple:
        return tuple(p for p in self.primes if f not in p)


@functools.lru_cache(maxsize=8)
def spec(r: FiniteCRig) -> SpecSpace:
    """All primes: proper ideals with multiplicatively closed complement;
    cached (rig and space are immutable) for the radicals and theorem1."""
    M = r.mul_table
    primes = []
    for cand in all_ideals(r):
        if r.one in cand:
            continue
        comp = [x for x in r.elements() if x not in cand]
        if all(cand.isdisjoint(map(M[x].__getitem__, comp)) for x in comp):
            primes.append(cand)
    return SpecSpace(r, tuple(primes))


class RadicalMismatch(RuntimeError):
    """The power test and the prime-intersection radical disagree (a bug)."""


def radical(r: FiniteCRig, a: Ideal) -> Ideal:
    """Elements with some power inside the ideal.

    Computed twice -- by chasing powers and as the intersection of the
    primes of the cached spec(r) containing the ideal -- and
    cross-checked; a mismatch raises RadicalMismatch loudly.
    """
    by_powers = set()
    for x, times_x in zip(r.elements(), r.mul_table):
        y, seen = x, set()
        while y not in seen:
            if y in a.elements:
                by_powers.add(x)
                break
            seen.add(y)
            y = times_x[y]
    containing = [p for p in spec(r).primes if p >= a.elements]
    by_primes = frozenset(r.elements()).intersection(*containing)
    if frozenset(by_powers) != by_primes:
        raise RadicalMismatch(
            f"power radical {r.describe(by_powers)} != prime intersection "
            f"{r.describe(by_primes)} over {r.name}"
        )
    return Ideal(r, frozenset(by_powers))


def multiplicative_closure(r: FiniteCRig, seed) -> frozenset:
    cur = set(seed) | {r.one}
    while True:
        nxt = cur | {r.mul_table[x][y] for x in cur for y in cur}
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


class Localization(FrozenRecord):
    """Finite localization: the class rig and the key map ``_keys`` =
    (inverse, key_class); class_of(x, s) is key_class[x*inverse[s]]."""

    __slots__ = _fields = ("source", "denominators", "rig", "_keys")

    def class_of(self, x: int, s: int | None = None) -> int:
        s = self.source.one if s is None else s
        if x not in range(self.source.size):
            raise ValueError(f"{x} is not an element of {self.source.name}")
        if s not in self.denominators:
            raise ValueError(f"{s} is not an admissible denominator")
        inverse, key_class = self._keys
        return key_class[self.source.mul_table[x][inverse[s]]]


def localize(r: FiniteCRig, s_set) -> Localization:
    """Fractions x/s over a multiplicative set, identifying (x, s) with
    (x', s') when u*s'*x == u*s*x' for some u in the set.

    Every u divides t = prod(S), so the relation holds exactly for u = f,
    the idempotent power of t: f*s'*x == f*s*x'.  Each f*s is a unit of
    the monoid f*r, whose identity is f; with i_s its inverse there, the
    key x*i_s names the class of (x, s), and the key map is the only class
    map.  Classes are numbered by first appearance among the pairs (x, s),
    x ascending, then s ascending, until the |f*r| keys (below) are all in.

    The keys are exactly f*r (x*i_1 = x*f), closed under both operations,
    and the class rig is f*r with r's own tables restricted to it.
    Inverses in the commutative monoid f*r are unique and s*i_s = f, so
    i_st = i_s*i_t; then (x*t + y*s)*i_s*i_t = x*i_s + y*i_t and
    (x*y)*i_s*i_t = (x*i_s)*(y*i_t): the key of a sum or product of
    fractions is the sum or product of their keys.  Only the laws that
    construction has already checked are used.
    """
    s_set = frozenset(s_set)
    add_t, mul_t = r.add_table, r.mul_table
    if r.one not in s_set or any(
        not s_set.issuperset(map(mul_t[a].__getitem__, s_set)) for a in s_set
    ):
        raise ValueError("denominator set must be multiplicative and contain 1")
    denoms = sorted(s_set)
    t = r.one
    for s in denoms:
        t = mul_t[t][s]
    f = t
    while mul_t[f][f] != f:
        f = mul_t[f][t]
    f_row = mul_t[f]
    monoid = set(f_row)
    inverse = {}
    for s in denoms:
        fs_row = mul_t[f_row[s]]
        inverse[s] = next((y for y in monoid if fs_row[y] == f), None)
        if inverse[s] is None:
            raise RuntimeError(
                f"f*s = {r.names[f_row[s]]} is not a unit of f*r "
                f"for f = {r.names[f]} over {r.name}"
            )

    key_class: dict[int, int] = {}
    order: list[tuple[int, int]] = []
    for x, s in itertools.product(r.elements(), denoms):
        key = mul_t[x][inverse[s]]
        if key not in key_class:
            key_class[key] = len(order)
            order.append((x, s))
            if len(order) == len(monoid):
                break

    keys = list(key_class)
    add_table = [[key_class[add_t[a][b]] for b in keys] for a in keys]
    mul_table = [[key_class[mul_t[a][b]] for b in keys] for a in keys]
    names = tuple(
        f"{r.names[x]}/{r.names[s]}" if s != r.one else r.names[x] for x, s in order
    )
    loc_rig = FiniteCRig(
        add_table,
        mul_table,
        zero=key_class[r.zero],
        one=key_class[f],
        names=names,
        name=f"{r.name} localized",
    )
    return Localization(r, s_set, loc_rig, (inverse, key_class))


class Theorem1Report(Record):
    """Literal check that fractions over s give exactly the families of
    stalk elements on the basic open of s that are locally fractions."""

    _fields = ("rig", "s", "opens", "loc_size", "families", "local_families", "failures")
    _defaults = {"opens": (), "loc_size": 0, "families": 0, "local_families": 0, "failures": []}

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL {self.failures[:2]}"
        if not self.opens:
            return (
                f"structure sheaf over {self.rig}, s={self.s}: empty basic open, "
                f"localization has {self.loc_size} element(s): {verdict}"
            )
        return (
            f"structure sheaf over {self.rig}, s={self.s}: {len(self.opens)} prime(s), "
            f"|fractions|={self.loc_size}, |local families|={self.local_families}: {verdict}"
        )


def theorem1_check(r: FiniteCRig, s: int) -> Theorem1Report:
    """Compare the localization of r at the powers of s with the families
    of stalk elements over the basic open D(s) that are locally fractions.

    Families are enumerated exhaustively over the product of the finite
    stalks; the locally-a-fraction condition quantifies over basic-open
    neighborhoods and global numerator/denominator pairs, all finite.  An
    empty D(s) needs no branch of its own: the product of no stalks has one
    family, the empty tuple, which is vacuously locally a fraction, so the
    check passes exactly when the fractions form one class.
    """
    sp = spec(r)
    opens = sp.basic_open(s)
    loc = localize(r, multiplicative_closure(r, {s}))
    k = loc.rig.size
    report = Theorem1Report(r.name, s, opens, k)
    stalks = [localize(r, frozenset(x for x in r.elements() if x not in p)) for p in opens]
    everywhere = range(len(opens))

    def family(x, w, points):  # w is admissible at every point asked for
        return tuple([stalks[i].class_of(x, w) for i in points])

    image = {}  # fraction class -> its family
    for x, w in itertools.product(r.elements(), loc.denominators):
        cls, fam = loc.class_of(x, w), family(x, w, everywhere)
        if image.setdefault(cls, fam) != fam:
            report.failures.append(("fraction maps to two families", x, w))
            image[cls] = fam

    # a family is locally a fraction when each point has a basic-open
    # neighborhood inside D(s) on which it is one global fraction
    neighborhoods = {  # points of the neighborhood -> its admissible denominators
        tuple(map(opens.index, nbhd)): [w for w in r.elements() if all(w not in q for q in nbhd)]
        for nbhd in map(sp.basic_open, r.elements())
        if nbhd and set(nbhd) <= set(opens)
    }

    def fits_near(fam, i):
        return any(
            family(num, w, points) == near
            for points, denoms in neighborhoods.items() if i in points
            for near in [tuple(fam[j] for j in points)]
            for w, num in itertools.product(denoms, r.elements())
        )

    # every fraction's family is local, witnessed on D(s) itself
    image_fams = set(image.values())
    missing = []
    for fam in itertools.product(*(range(st.rig.size) for st in stalks)):
        report.families += 1
        if all(fits_near(fam, i) for i in everywhere):
            report.local_families += 1
            if fam not in image_fams:
                missing.append(fam)
    if missing:
        report.failures.append(("families not hit by fractions", missing))
    if len(image_fams) < k:
        pair = next(c for c in itertools.combinations(range(k), 2) if image[c[0]] == image[c[1]])
        report.failures.append(("two fraction classes with one family", *pair))

    # operation preservation, checked through representatives
    loc_add, loc_mul = loc.rig.add_table, loc.rig.mul_table
    for c1, c2 in itertools.product(range(k), repeat=2):
        at = list(zip(stalks, image[c1], image[c2]))
        fam_sum = tuple(st.rig.add_table[a][b] for st, a, b in at)
        fam_prod = tuple(st.rig.mul_table[a][b] for st, a, b in at)
        if image[loc_add[c1][c2]] != fam_sum or image[loc_mul[c1][c2]] != fam_prod:
            report.failures.append(("operations disagree", c1, c2))
    return report
