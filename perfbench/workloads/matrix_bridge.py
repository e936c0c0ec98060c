"""matrix-bridge: integer matrices up to conjugation, mapped to Witt classes.

Every input is a dense integer matrix of dimension 12 to 20, built by
conjugating a direct sum of cyclotomic companion blocks with a random
unimodular matrix, so its class is known by construction.  The list also
holds direct sums, Kronecker products and powers of such matrices, and
one matrix in ten has an eigenvalue outside the unit disc.  charpoly_rev
and the cyclotomic factorization dominate; hnf does not run.

The seed draws the blocks and the conjugators; the dimension schedule,
the power exponents and the number of tasks of each kind are fixed.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from cycwitt import linalg

from .. import oracle
from ..common import Task

DIMS = tuple(range(12, 19))
POWERS = (2, 3, 4, 5, 6)  # exponents by a fixed schedule: they set a power's cost
KRON_SHAPES = ((3, 4), (2, 7), (3, 5), (4, 4), (2, 9), (3, 6), (4, 5), (2, 10), (2, 8))
# companions of x^2 - 3x + 1 and x^3 - x - 1: one eigenvalue outside the disc
EXPANDING = ([[0, -1], [1, 3]], [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
CYCLO = tuple(d for d in range(1, 31) if oracle.totient(oracle.factorize(d)) <= 8)


def _phi(d):
    return oracle.totient(oracle.factorize(d))


def _blocks(rng, dim):
    out, total = [], 0
    while total < dim:
        d = rng.choice([x for x in CYCLO if _phi(x) <= dim - total])
        out.append(d)
        total += _phi(d)
    return out


def _block_sum(mats):
    out: list[list[int]] = []
    for m in mats:
        out = oracle.direct_sum(out, m)
    return out


def _conjugate(b, rng):
    # 5n/2 transvections leave most entries nonzero and small
    return oracle.conjugate(b, rng, 5 * len(b) // 2)


def _unit_matrix(rng, dim):
    blocks = _blocks(rng, dim)
    return _conjugate(_block_sum(oracle.companion(d) for d in blocks), rng), Counter(blocks)


def _level(cls):
    return math.lcm(*cls) if cls else 1


def _chars(cls, points):
    return {m: oracle.character(cls.items(), m) for m in points}


def _check_class(expected: Counter):
    want = sorted(expected.items())

    def check(out):
        return None if list(out.items()) == want else f"class {out.items()} != {want}"

    return check


def _check_by_characters(level, want_chars):
    """The output is the element supported on divisors of level with these characters."""
    points = oracle.divisors_of(oracle.factorize(level))

    def check(out):
        if not oracle.is_element(out.items(), points, want_chars):
            return f"class {out.items()} has the wrong characters"
        return None

    return check


def _check_charpoly(a):
    def check(out):
        if out[0] != 1 or out.degree > len(a):
            return "det(1 - xA) must have constant term 1 and degree <= dim"
        for k in (1, -1, 2):
            if out(k) != oracle.det_one_minus(a, k):
                return f"charpoly_rev(A)({k}) != det(I - {k}A)"
        return None

    return check


class Raised:
    """An expected exception, caught inside the timed region."""

    def __init__(self, exc: BaseException):
        self.type = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return f"Raised({self.type}: {self.message})"


def _witt_class_or_raised(mat):
    try:
        return linalg.witt_class(mat)
    except linalg.NotUnitSpectrum as exc:
        return Raised(exc)


def _check_outside(a):
    def check(out):
        if not isinstance(out, Raised) or out.type != "NotUnitSpectrum":
            return f"expected NotUnitSpectrum, got {out!r}"
        if oracle.growth_certificate(a) is None:
            return "no exact certificate |tr(A^j)| > dim A was found"
        return None

    return check


def build(seed: int, ctx) -> list[Task]:
    rng = random.Random(seed)
    tasks: list[Task] = []

    def add(name, a, check, fn="witt_class"):
        # the function is looked up at call time, so traced runs see the wrapper
        mat = linalg.IntMatrix(a)
        tasks.append(Task(f"{name} dim={len(a)}", lambda: getattr(linalg, fn)(mat), check))

    for dim in DIMS:
        for i in range(4):
            a, cls = _unit_matrix(rng, dim)
            add(f"class[{i}]", a, _check_class(cls))
        for i in range(2):
            a, _ = _unit_matrix(rng, dim)
            add(f"charpoly[{i}]", a, _check_charpoly(a), fn="charpoly_rev")
        for i in range(2):
            k = rng.randint(dim // 2 - 3, dim // 2)
            x, cx = _unit_matrix(rng, k)
            y, cy = _unit_matrix(rng, dim - k)
            add(f"sum[{i}]", oracle.direct_sum(x, y), _check_class(cx + cy))
        for i in range(2):
            a, cls = _unit_matrix(rng, dim)
            m = POWERS[(2 * dim + i) % len(POWERS)]
            p = a
            for _ in range(m - 1):
                p = oracle.matmul(p, a)
            level = _level(cls)
            points = oracle.divisors_of(oracle.factorize(level))
            want = {k: oracle.character(cls.items(), k * m) for k in points}
            add(f"power[{i}] m={m}", p, _check_by_characters(level, want))
    for i, (p, q) in enumerate(KRON_SHAPES * 2):
        x, cx = _unit_matrix(rng, p)
        y, cy = _unit_matrix(rng, q)
        level = math.lcm(_level(cx), _level(cy))
        points = oracle.divisors_of(oracle.factorize(level))
        chx, chy = _chars(cx, points), _chars(cy, points)
        want = {m: chx[m] * chy[m] for m in points}
        add(f"kron[{i}]", oracle.kron(x, y), _check_by_characters(level, want))
    for i, dim in enumerate(DIMS + DIMS[:5]):
        grow = EXPANDING[i % 2]
        blocks = _blocks(rng, dim - len(grow))
        a = _conjugate(_block_sum([grow] + [oracle.companion(d) for d in blocks]), rng)
        mat = linalg.IntMatrix(a)
        tasks.append(Task(
            f"outside[{i}] dim={dim}",
            lambda mat=mat: _witt_class_or_raised(mat),
            _check_outside(a),
        ))
    return tasks
