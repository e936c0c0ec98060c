"""finite-rigs: spectra of finite rigs and the matrix-category laws.

Spec, ideals, radicals, localizations and the structure-sheaf check
(theorem1_check) over zmod:N for N up to 40, over tropical4 and over
boolean; then rig-law and prop-law checks over boolean, zmod, tropical
and int carriers and over the noncommutative SquareMatrixRig control.
FiniteCRig table validation (rerun for every localization), ideal
closure and rigs.mat_compose dominate; nothing from witt or linalg runs.

The seed draws the radical generators, the units that scale each
theorem1 denominator and the law-check samples; the levels and the
number of tasks of each kind are fixed.
"""

from __future__ import annotations

import math
import random

from cycwitt import rigs, spectra

from .. import oracle
from ..common import Task

LEVELS = (6, 8, 10, 12, 14, 15, 18, 20, 24, 28, 30, 36, 40)
LAW_RIGS = ("boolean", "zmod:6", "zmod:7", "tropical-unit", "tropical-nonneg", "int")
PROP_RIGS = ("boolean", "zmod:2", "tropical-unit", "tropical-nonneg", "int")
COMMUTATIVE_ONLY = {"scalar centrality", "scalar interchange",
                    "kronecker composition order", "kronecker swapped order"}


def _multiples(n, d):
    return frozenset(x for x in range(n) if x % d == 0)


def _rad(n):
    return math.prod(oracle.factorize(n)) if n > 1 else 1


def _coprime_part(n, s):
    """Largest divisor of n coprime to s."""
    return max(d for d in oracle.divisors_of(oracle.factorize(n)) if math.gcd(d, s) == 1)


def _loc_size(mul, denoms):
    """Classes of (x, s) under u*s'*x == u*s*x' for some u in denoms."""
    n = len(mul)
    pairs = [(x, s) for x in range(n) for s in denoms]
    classes: list[tuple[int, int]] = []
    for x, s in pairs:
        if not any(
            any(mul[u][mul[t][x]] == mul[u][mul[s][y]] for u in denoms) for y, t in classes
        ):
            classes.append((x, s))
    return len(classes)


def _positive_powers(mul, y):
    out = set()
    x = y
    while x not in out:
        out.add(x)
        x = mul[x][y]
    return out


def _powers(mul, s, one):
    return _positive_powers(mul, s) | {one}


def _zmod_tasks(n, rng, tasks):
    state = {}
    primes = list(oracle.factorize(n))
    prime_ideals = sorted((_multiples(n, p) for p in primes), key=sorted)
    divs = oracle.divisors_of(oracle.factorize(n))

    def build():
        state["r"] = spectra.FiniteCRig.zmod(n)
        return state["r"]

    def check_rig(r):
        ok = r.size == n and all(
            r.add_table[x][y] == (x + y) % n and r.mul_table[x][y] == x * y % n
            for x in range(n) for y in range(n)
        )
        return None if ok else "zmod tables are wrong"

    tasks.append(Task(f"zmod:{n} construct", build, check_rig))
    tasks.append(Task(
        f"zmod:{n} spec", lambda: spectra.spec(state["r"]),
        lambda sp: None if sorted(sp.primes, key=sorted) == prime_ideals
        else "primes are not the pZ/N for p | N",
    ))
    tasks.append(Task(
        f"zmod:{n} all_ideals", lambda: spectra.all_ideals(state["r"]),
        lambda ids: None if sorted(ids, key=sorted) == sorted(
            (_multiples(n, d) for d in divs), key=sorted)
        else f"ideals are not the dZ/N for the {len(divs)} divisors d",
    ))
    for g in (0, rng.randrange(1, n)):
        want = _multiples(n, _rad(math.gcd(g, n)))

        def radical(g=g):
            r = state["r"]
            return spectra.radical(r, spectra.ideal_generated(r, [g]))

        tasks.append(Task(
            f"zmod:{n} radical({g})", radical,
            lambda out, want=want, g=g: None if out.elements == want
            else f"radical of ({g}) is not rad(gcd) Z/N",
        ))
    for p in primes:
        size = p ** oracle.factorize(n)[p]

        def loc(p=p):
            return spectra.localize(state["r"], frozenset(x for x in range(n) if x % p))

        tasks.append(Task(
            f"zmod:{n} localize at ({p})", loc,
            lambda out, size=size, p=p: None if out.rig.size == size
            else f"localization at ({p}) has {out.rig.size} elements, not {size}",
        ))
    unit = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    s = primes[0] * unit % n
    fractions = _coprime_part(n, s)
    tasks.append(Task(
        f"zmod:{n} theorem1 s={s}", lambda: spectra.theorem1_check(state["r"], s),
        lambda rep: None if rep.ok and rep.loc_size == fractions
        else f"theorem1 ok={rep.ok} with {rep.loc_size} fractions, want {fractions}",
    ))


def _small_rig_tasks(name, make, add, mul, zero, one, tasks):
    n = len(add)
    state = {}
    primes = oracle.primes(add, mul, zero, one)

    def build():
        state["r"] = make()
        return state["r"]

    tasks.append(Task(
        f"{name} construct", build,
        lambda r: None if r.add_table == tuple(map(tuple, add))
        and r.mul_table == tuple(map(tuple, mul)) else "tables differ",
    ))
    tasks.append(Task(
        f"{name} spec", lambda: spectra.spec(state["r"]),
        lambda sp: None if sorted(sorted(p) for p in sp.primes) == primes else "wrong primes",
    ))
    for x in range(n):
        ideal = frozenset.intersection(*(s for s in oracle.ideals(add, mul, zero) if x in s))
        want = frozenset(y for y in range(n) if _positive_powers(mul, y) & ideal)

        def radical(x=x):
            r = state["r"]
            return spectra.radical(r, spectra.ideal_generated(r, [x]))

        tasks.append(Task(
            f"{name} radical({x})", radical,
            lambda out, want=want: None if out.elements == want else "wrong radical",
        ))
    for i, p in enumerate(primes):
        denoms = [x for x in range(n) if x not in p]
        size = _loc_size(mul, denoms)
        tasks.append(Task(
            f"{name} localize at prime {i}",
            lambda d=frozenset(denoms): spectra.localize(state["r"], d),
            lambda out, size=size: None if out.rig.size == size else "wrong localization size",
        ))
    for s in range(n):
        size = _loc_size(mul, sorted(_powers(mul, s, one)))
        tasks.append(Task(
            f"{name} theorem1 s={s}", lambda s=s: spectra.theorem1_check(state["r"], s),
            lambda rep, size=size: None if rep.ok and rep.loc_size == size
            else "theorem1 failed or wrong fraction count",
        ))


def _law_tasks(seed, tasks):
    for name in LAW_RIGS:
        tasks.append(Task(
            f"check_rig_laws({name})",
            lambda name=name: rigs.check_rig_laws(rigs.rig_by_name(name), seed=seed),
            lambda rep: None if rep.ok else f"rig laws fail: {rep.failures[:1]}",
        ))
    for name in PROP_RIGS:
        tasks.append(Task(
            f"check_prop_laws({name})",
            lambda name=name: rigs.check_prop_laws(
                rigs.rig_by_name(name), max_rows=2, max_cols=2, samples=3,
                pair_cap=150, quad_cap=150, seed=seed),
            lambda rep: None if rep.ok else f"prop laws fail: {sorted({f[0] for f in rep.failures})}",
        ))

    def control():
        return rigs.SquareMatrixRig(rigs.BooleanRig(), 2)

    tasks.append(Task(
        "check_rig_laws(control)", lambda: rigs.check_rig_laws(control(), budget=64, seed=seed),
        lambda rep: None if rep.ok else "the matrix control is a rig, its rig laws must hold",
    ))
    tasks.append(Task(
        "check_prop_laws(control)",
        lambda: rigs.check_prop_laws(control(), max_rows=1, max_cols=1, samples=3,
                                     pair_cap=60, quad_cap=60, seed=seed),
        lambda rep: "the noncommutative control passed the prop laws" if rep.ok
        else None if {f[0] for f in rep.failures} <= COMMUTATIVE_ONLY
        else f"control fails laws that need no commutativity: {rep.failures[:1]}",
    ))


def build(seed: int, ctx) -> list[Task]:
    rng = random.Random(seed)
    tasks: list[Task] = []
    for n in LEVELS:
        _zmod_tasks(n, rng, tasks)
    _small_rig_tasks(
        "boolean", lambda: spectra.FiniteCRig.boolean(),
        [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1, tasks)
    _small_rig_tasks(
        "tropical4", lambda: spectra.FiniteCRig.tropical4(),
        [[max(x, y) for y in range(4)] for x in range(4)],
        [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]], 0, 2, tasks)
    _law_tasks(seed, tasks)
    return tasks

