"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets and tolerances are pinned here; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from cycwitt import characters, cli, lambda_ops, linalg, matrices, roots, spectra, tables, witt
from cycwitt.arith import (
    euler_phi,
    mobius,
    ramanujan_sum,
)
from cycwitt.witt import WittElement, ONE, basis_mul, f0, frobenius, inner, mul, phi, t_m, trace, verschiebung

from oracles import companion_blocks, ramanujan_sum_divisor_form

GOLDEN = Path(__file__).parent / "golden"


def _report(num, name, ok, detail=""):
    tail = f" {detail}" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def test_criterion_01_lambda_table(capsys):
    t0 = time.perf_counter()
    code = cli.main(["lambda-table", "10"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    expected = (GOLDEN / "lambda_table_10.txt").read_text()
    with capsys.disabled():
        _report(
            1,
            "lambda table reproduces the classical ten lines",
            code == 0 and out == expected and elapsed < 1.0,
            f"({elapsed:.3f}s)",
        )


def test_criterion_02_multiplication_oracle():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 61):
        on = roots.orbit(n)
        for m in range(n, 61):
            closed = basis_mul(n, m)
            literal = roots.to_witt(roots.product(on, roots.orbit(m)))
            if closed != literal:
                bad.append((n, m))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "closed-form product == root-multiset product for n, m <= 60",
        not bad and elapsed < 60.0,
        f"({elapsed:.1f}s, {len(bad)} mismatches)",
    )


def test_criterion_03_frobenius_and_lambda_oracle():
    bad = []
    for n in range(1, 61):
        on = roots.orbit(n)
        for m in range(1, 21):
            if frobenius(m, phi(n)) != roots.to_witt(roots.power_map(on, m)):
                bad.append(("frobenius", n, m))
    for n in range(1, 21):
        on = roots.orbit(n)
        for k in range(euler_phi(n) + 1):
            if lambda_ops.lambda_basis(n, k) != roots.elementary_symmetric(on, k):
                bad.append(("lambda", n, k))
    _report(3, "power and symmetric operators match the oracle", not bad, str(bad[:3]))


def test_criterion_04_ring_and_operator_laws():
    rng = random.Random(12345)

    def rand_elem():
        return WittElement(
            {rng.randint(1, 36): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
        )

    bad = []
    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        if mul(a, b) != mul(b, a):
            bad.append(("commutativity", a, b))
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            bad.append(("associativity", a, b, c))
        if mul(a, b + c) != mul(a, b) + mul(a, c):
            bad.append(("distributivity", a, b, c))
        if mul(ONE, a) != a:
            bad.append(("unit", a))
    for _ in range(200):
        a, b = rand_elem(), rand_elem()
        m = rng.randint(1, 30)
        if frobenius(m, mul(a, b)) != mul(frobenius(m, a), frobenius(m, b)):
            bad.append(("frobenius hom", m, a, b))
    for n in (1, 2, 6, 8, 12, 18, 35, 48):
        for m1 in range(1, 31):
            for m2 in (2, 3, 5):
                if frobenius(m1, frobenius(m2, phi(n))) != frobenius(m1 * m2, phi(n)):
                    bad.append(("complete multiplicativity", n, m1, m2))
    _report(4, "ring laws and operator family laws", not bad, str(bad[:2]))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated adjunction inner(F_m a, b) == inner(a, V_m b) is false for "
        "the pinned operators: inner(F_3 phi(4), phi(4)) = 2 but "
        "inner(phi(4), V_3 phi(4)) = inner(phi(4), phi(12)) = 0, confirmed by "
        "the literal root-multiset model; the true inner-product adjoint of "
        "F_3 sends phi(4) to phi(4) + phi(12).  V_m is pinned elsewhere as "
        "phi(n) -> phi(m*n), so this sub-criterion cannot hold as written."
    ),
)
def test_criterion_04b_verschiebung_adjunction_as_stated():
    rng = random.Random(12345)
    bad = []
    for _ in range(300):
        a, b = phi(rng.randint(1, 24)), phi(rng.randint(1, 24))
        m = rng.randint(1, 10)
        if inner(frobenius(m, a), b) != inner(a, verschiebung(m, b)):
            bad.append((m, a, b))
    # include the known counterexample class explicitly so the faithful
    # statement is exercised even if the sampler misses it
    if inner(frobenius(3, phi(4)), phi(4)) != inner(phi(4), verschiebung(3, phi(4))):
        bad.append((3, phi(4), phi(4)))
    _report(4, "Verschiebung adjunction as stated (known defect)", not bad, str(bad[:2]))


def test_criterion_05_trace_ramanujan_agreement():
    bad = []
    for n in range(1, 101):
        on = roots.orbit(n)
        for m in range(0, 101):
            closed = ramanujan_sum(n, m)
            if closed != ramanujan_sum_divisor_form(n, m):
                bad.append(("divisor form", n, m))
            if closed != roots.root_sum(roots.power_map(on, m)):
                bad.append(("literal root sum", n, m))
            if closed != t_m(m, phi(n)):
                bad.append(("operator trace", n, m))
    for n in range(1, 101):
        if trace(phi(n)) != mobius(n):
            bad.append(("trace", n))
        if f0(phi(n)) != euler_phi(n):
            bad.append(("root count", n))
    for n in range(1, 49):
        for k in range(1, 5):
            if frobenius(k * n, phi(n)) != euler_phi(n) * ONE:
                bad.append(("multiple collapse", n, k))
    _report(5, "Ramanujan sums agree three ways; projections exact", not bad, str(bad[:3]))


def test_criterion_06_finite_parseval():
    bad = []
    for big_n in range(1, 37):
        rep = witt.parseval_check(big_n)
        if not rep.ok:
            bad.append((big_n, rep.failures[:1]))
    _report(6, "finite Fourier orthogonality exact for N <= 36", not bad, str(bad[:2]))


def test_criterion_07_zeta_truncations():
    t0 = time.perf_counter()
    reports = [characters.zeta_partial_check(m, 3, 100_000, 1e-3) for m in (1, 6, 12)]
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in reports) and elapsed < 30.0
    detail = "; ".join(f"m={r.m} |diff|={r.difference:.2e}" for r in reports)
    _report(7, "zeta-series truncations within 1e-3", ok, f"({elapsed:.1f}s; {detail})")


def test_criterion_08_matrix_bridge():
    opts = [d for d in range(1, 31) if euler_phi(d) <= 8]
    multisets = []

    def gen(start, left, cur):
        for i in range(start, len(opts)):
            d = opts[i]
            if euler_phi(d) <= left:
                ms = cur + (d,)
                multisets.append(ms)
                gen(i, left - euler_phi(d), ms)

    gen(0, 8, ())
    deg = {ms: sum(euler_phi(d) for d in ms) for ms in multisets}
    mats = {ms: companion_blocks(ms) for ms in multisets}
    cls = {ms: linalg.witt_class(mats[ms]) for ms in multisets}

    bad = []
    for ms in multisets:
        expected = WittElement({})
        for d in ms:
            expected = expected + phi(d)
        if cls[ms] != expected:
            bad.append(("class", ms))
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(multisets, 2)
        if deg[a] + deg[b] <= 8
    ]
    for a, b in pairs:
        if linalg.witt_class(matrices.direct_sum(mats[a], mats[b])) != cls[a] + cls[b]:
            bad.append(("sum", a, b))
        if linalg.witt_class(matrices.kronecker(mats[a], mats[b])) != mul(cls[a], cls[b]):
            bad.append(("product", a, b))
    for ms in multisets:
        for m in range(1, 7):
            if linalg.witt_class(mats[ms] ** m) != frobenius(m, cls[ms]):
                bad.append(("power", ms, m))
    _report(
        8,
        "matrix model respects sum, product and powers",
        not bad,
        f"({len(multisets)} matrices, {len(pairs)} pairs) {bad[:2]}",
    )


def test_criterion_09_global_sections():
    bad = []
    counts = {}
    for shape in [(1, 1), (2, 1), (2, 2), (2, 3)]:
        rep = matrices.global_sections(*shape, entry_bound=2)
        counts[shape] = len(rep.matrices)
        if not rep.ok:
            bad.append((shape, rep.counterexample))
    ok = not bad and counts[(2, 2)] == 17
    _report(
        9,
        "norm contractions are exactly the signed sub-permutations",
        ok,
        f"counts={counts}",
    )


def test_criterion_10_spectrum_suite():
    bad = []
    for n in range(1, 31):
        r = tables.FiniteCRig.zmod(n)
        sp = spectra.spec(r)
        for elems in spectra.all_ideals(r):
            try:
                spectra.radical(r, spectra.Ideal(r, elems))
            except spectra.RadicalMismatch as exc:
                bad.append(("radical", n, str(exc)))
        for p in sp.primes:
            s_set = frozenset(x for x in r.elements() if x not in p)
            loc = spectra.localize(r, s_set)
            pulled = sorted(
                frozenset(x for x in r.elements() if loc.class_of(x) in q)
                for q in spectra.spec(loc.rig).primes
            )
            missing = sorted(q for q in sp.primes if not (q & s_set))
            if pulled != missing:
                bad.append(("homeomorphism", n, p))
    t4 = tables.FiniteCRig.tropical4()
    for elems in spectra.all_ideals(t4):
        try:
            spectra.radical(t4, spectra.Ideal(t4, elems))
        except spectra.RadicalMismatch as exc:
            bad.append(("radical", "tropical4", str(exc)))
    for n in (6, 12):
        r = tables.FiniteCRig.zmod(n)
        for s in r.elements():
            rep = spectra.theorem1_check(r, s)
            if not rep.ok:
                bad.append(("sheaf", n, s, rep.failures[:1]))
    _report(10, "radicals, localization, structure sheaf on finite rigs", not bad, str(bad[:2]))


def test_criterion_11_gamma_filtration():
    frob_bad = []
    lambda_findings = []
    for big_n in (4, 8, 12):
        rep = lambda_ops.graded_frobenius_check(big_n, 3, 5)
        if not rep.frobenius_ok:
            frob_bad.append((big_n, rep.frobenius_failures[:2]))
        if not rep.lambda_ok:
            lambda_findings.append((big_n, rep.lambda_failures[:2]))
    if lambda_findings:
        # reported as an open finding, not a build failure
        print(f"[criterion 11] open finding (lambda containment): {lambda_findings}")
    else:
        print("[criterion 11] lambda containment: no findings")
    _report(
        11,
        "graded power-operator containment F_m(x) - m^n x in I_(n+1)",
        not frob_bad,
        str(frob_bad[:2]),
    )


def test_criterion_12_hom_classification():
    bad = []
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            homs = characters.hom_classify(p**k)  # raises if a character breaks a product
            if len(homs) != k + 1:
                bad.append((p, k, len(homs)))
            expected = set()
            for i in range(k):
                expected.add(tuple(t_m(p**i, phi(p**j)) for j in range(k + 1)))
            expected.add(tuple(f0(phi(p**j)) for j in range(k + 1)))
            got = {tuple(h[p**i] for i in range(k + 1)) for h in homs}
            if got != expected:
                bad.append((p, k, "value table"))
    _report(12, "integer-valued ring maps are the k+1 known ones", not bad, str(bad[:2]))


def test_criterion_13_cli_golden_files(capsys):
    cases = [
        ("lambda_table_10.txt", ["lambda-table", "10"]),
        ("ramanujan_12x12.txt", ["ramanujan", "--n", "12", "--m-max", "12"]),
        ("parseval_12.txt", ["parseval", "12"]),
        ("sections_2x2_bound2.txt", ["sections", "--rows", "2", "--cols", "2", "--bound", "2"]),
        ("theorem1_zmod6_s2.txt", ["theorem1", "--rig", "zmod:6", "--s", "2"]),
    ]
    bad = []
    for golden, argv in cases:
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != 0 or out != (GOLDEN / golden).read_text():
            bad.append(golden)
    with capsys.disabled():
        _report(13, "CLI outputs are byte-identical to the golden files", not bad, str(bad))
