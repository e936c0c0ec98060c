"""witt-algebra: one in-process session on the cyclotomic Witt ring.

Products and power operators F_m on random sparse elements with indices
up to 300, the lambda_t series of phi(n) for n up to 60, and gamma
filtrations with their graded checks at levels with many divisors.
witt.mul, lambda_ops and linalg.hnf do nearly all the work while the
memo caches fill; charpoly_rev and spectra never run.

The seed draws the elements, the power indices and the order of the
lambda levels; the shape of the list (how many tasks of each kind, the
lambda levels and the filtration levels) is fixed, so every seed costs
about the same.
"""

from __future__ import annotations

import math
import random

from cycwitt import lambda_ops, roots, witt

from .. import oracle
from ..common import Task

N_MUL = 50
N_FROB = 40
N_FROB_PAIR = 10
N_ORACLE = 4  # products compared with the roots-multiset oracle
LAMBDA_LEVELS = (7, 9, 11, 14, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28, 30,
                 31, 33, 35, 36, 37, 40, 41, 42, 43, 44, 45, 47, 48, 50, 53, 54, 59, 60)
# levels with many divisors; level 60 at depth 2, since (60, 3) alone would take
# half the round and one task's reading would then set tasks_per_s
FILTRATIONS = ((12, 3), (18, 3), (20, 3), (24, 3), (30, 3), (36, 3), (40, 3), (42, 3),
               (48, 3), (60, 2))
GRADED = ((12, 2, 3), (20, 2, 3), (30, 1, 3))  # (level, depth, m_max)
CHAR_POINTS = 6  # random characters tested per product or power


def _element(rng, terms, top, positive=False):
    coeffs = {}
    while len(coeffs) < terms:
        c = rng.randint(1, 4) if positive else rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        coeffs[rng.randint(1, top)] = c
    return witt.WittElement(coeffs)


def _f0(pairs):
    return sum(c * oracle.totient(oracle.factorize(n)) for n, c in pairs)


def _support_ok(out_pairs, a_pairs, b_pairs):
    lcms = [math.lcm(n, m) for n, _ in a_pairs for m, _ in b_pairs]
    return all(any(L % d == 0 for L in lcms) for d, _ in out_pairs)


def _check_mul(a, b, points):
    ap, bp = a.items(), b.items()

    def check(out):
        op = out.items()
        if not _support_ok(op, ap, bp):
            return "product has a term outside the divisors of the index lcms"
        if _f0(op) != _f0(ap) * _f0(bp):
            return "f0 is not multiplicative on this product"
        for m in points:
            if oracle.character(op, m) != oracle.character(ap, m) * oracle.character(bp, m):
                return f"t_{m} is not multiplicative on this product"
        return None

    return check


def _check_oracle_mul(a, b):
    base = _check_mul(a, b, ())

    def check(out):
        msg = base(out)
        if msg:
            return msg
        ma = _multiset(a)
        mb = _multiset(b)
        if roots.to_witt(roots.product(ma, mb)) != out:
            return "product differs from the roots-multiset oracle"
        return None

    return check


def _multiset(a):
    acc = roots.RootMultiset(1)
    for n, c in a.items():
        acc = acc + roots.orbit(n).scale(c)
    return acc


def _check_frob(a, m, points):
    ap = a.items()

    def check(out):
        op = out.items()
        if not all(any(n % d == 0 for n, _ in ap) for d, _ in op):
            return "F_m output has an index dividing no input index"
        if _f0(op) != _f0(ap):
            return "F_m changes the root count"
        for k in points:
            if oracle.character(op, k) != oracle.character(ap, k * m):
                return f"t_{k}(F_{m} a) != t_{k * m}(a)"
        return None

    return check


def _check_frob_pair(a, m, k):
    single = _check_frob(a, k, (1, 2, 3))

    def check(out):
        fk, fm_fk, fmk = out
        msg = single(fk)
        if msg:
            return msg
        if fm_fk != fmk:
            return f"F_{m} F_{k} != F_{m * k}"
        return None

    return check


def _check_lambda(n, degree):
    def check(out):
        if out.degree != degree:
            return "wrong truncation degree"
        for m in oracle.divisors_of(oracle.factorize(n)):
            want = oracle.series_characters(n, m, degree)
            for k in range(degree + 1):
                pairs = out[k].items()
                if any(n % d for d, _ in pairs):
                    return f"coefficient {k} leaves the divisors of {n}"
                if oracle.character(pairs, m) != want[k]:
                    return f"t_{m} of coefficient {k} is wrong"
        if n <= 30:
            orb = roots.orbit(n)
            for k in range(degree + 1):
                if out.lam(k) != roots.elementary_symmetric(orb, k):
                    return f"lambda^{k}(phi({n})) != e_{k} of the orbit"
        return None

    return check


def _check_filtration(level, depth):
    def check(out):
        return oracle.filtration_problem(level, depth, out.divisors,
                                         [lat.basis for lat in out.lattices])

    return check


def _check_graded(level, depth, m_max):
    def check(out):
        if (out.N, out.depth, out.m_max) != (level, depth, m_max):
            return "report is for other parameters"
        if not out.frobenius_ok:
            return f"graded F_m containment fails: {out.frobenius_failures[:1]}"
        if out.frobenius_checked == 0:
            return "no graded case was checked"
        return None

    return check


def build(seed: int, ctx) -> list[Task]:
    rng = random.Random(seed)
    tasks: list[Task] = []

    def points():
        return sorted(rng.sample(range(1, 400), CHAR_POINTS))

    for i in range(N_MUL):
        if i < N_ORACLE:
            a = _element(rng, 3, 24, positive=True)
            b = _element(rng, 3, 24, positive=True)
            check = _check_oracle_mul(a, b)
        else:
            a = _element(rng, 16, 300)
            b = _element(rng, 16, 300)
            check = _check_mul(a, b, points())
        tasks.append(Task(f"mul[{i}]", lambda a=a, b=b: witt.mul(a, b), check))
    for i in range(N_FROB):
        a = _element(rng, 16, 300)
        m = rng.randint(2, 30)
        tasks.append(Task(f"frob[{i}] m={m}", lambda a=a, m=m: witt.frobenius(m, a),
                          _check_frob(a, m, points())))
    for i in range(N_FROB_PAIR):
        a = _element(rng, 16, 300)
        m, k = rng.randint(2, 12), rng.randint(2, 12)

        def run(a=a, m=m, k=k):
            fk = witt.frobenius(k, a)
            return fk, witt.frobenius(m, fk), witt.frobenius(m * k, a)

        tasks.append(Task(f"frob-pair[{i}] m={m} k={k}", run, _check_frob_pair(a, m, k)))
    levels = list(LAMBDA_LEVELS)
    rng.shuffle(levels)
    for n in levels:
        deg = oracle.totient(oracle.factorize(n))
        tasks.append(Task(f"lambda_t(phi({n}))",
                          lambda n=n, deg=deg: lambda_ops.lambda_series(witt.phi(n), deg),
                          _check_lambda(n, deg)))
    for level, depth in FILTRATIONS:
        tasks.append(Task(f"gamma_filtration({level}, {depth})",
                          lambda level=level, depth=depth: lambda_ops.gamma_filtration(level, depth),
                          _check_filtration(level, depth)))
    for level, depth, m_max in GRADED:
        tasks.append(Task(f"graded_frobenius_check({level}, {depth}, {m_max})",
                          lambda a=(level, depth, m_max): lambda_ops.graded_frobenius_check(*a),
                          _check_graded(level, depth, m_max)))
    return tasks
