import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cycwitt import characters, roots, witt
from cycwitt.arith import euler_phi, factor, mobius, ramanujan_sum
from cycwitt.witt import (
    ONE,
    ZERO,
    WittElement,
    basis_mul,
    f0,
    frobenius,
    inner,
    integral,
    mul,
    parseval_check,
    phi,
    t_m,
    trace,
    verschiebung,
)
from cycwitt.characters import hom_classify, zeta_partial_check

elements = st.dictionaries(
    st.integers(min_value=1, max_value=36),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
).map(WittElement)


def test_element_canonical_form():
    assert WittElement({2: 0, 3: 1}) == phi(3)
    assert WittElement({}) == ZERO
    assert phi(2) - phi(2) == ZERO
    assert (2 * ONE + 3 * ONE).coeff(1) == 5
    assert (phi(6) + ONE) * -2 == -2 * phi(6) - 2 * ONE
    assert phi(2) + -phi(2) == ZERO
    with pytest.raises(ValueError):
        WittElement({0: 1})


def test_serialized_pairs_roundtrip():
    w = 3 * phi(6) - 2 * ONE + phi(4)
    assert w.to_pairs() == [[1, -2], [4, 1], [6, 3]]
    assert WittElement(dict(w.to_pairs())) == w


def test_basis_mul_examples():
    assert basis_mul(2, 3) == phi(6)
    assert basis_mul(2, 2) == ONE
    assert basis_mul(8, 4) == 2 * phi(8)
    assert basis_mul(6, 4) == phi(12)
    assert basis_mul(5, 5) == 3 * phi(5) + 4 * ONE


def _local_basis_mul(p, a, b):
    """phi(p^a) * phi(p^b) within the single-prime tower, as {p^j: coeff}."""
    if a < b:
        a, b = b, a
    if b == 0:
        return {p**a: 1}
    if a > b:
        return {p**a: euler_phi(p**b)}
    tot = euler_phi(p**a)
    out = {p**j: tot for j in range(a + 1)}
    out[p**a] = tot - p ** (a - 1)
    if out[p**a] == 0:
        del out[p**a]
    return out


def _prime_fold_basis_mul(n, m):
    """Reference product: the local products folded over every prime of n*m."""
    acc = {1: 1}
    for p, _ in factor(n * m):
        a = b = 0
        while n % p**(a + 1) == 0:
            a += 1
        while m % p**(b + 1) == 0:
            b += 1
        local = _local_basis_mul(p, a, b)
        acc = {u * q: cu * cq for u, cu in acc.items() for q, cq in local.items()}
    return WittElement(acc)


def test_gcd_first_basis_mul_matches_prime_fold():
    for n in range(1, 201):
        for m in range(n, 201):
            assert basis_mul(n, m) == basis_mul(m, n) == _prime_fold_basis_mul(n, m), (n, m)


def test_mul_examples():
    x = 4 * phi(9) - 2 * ONE
    assert mul(ONE, x) == x
    d = phi(2) - ONE
    assert mul(d, d) == 2 * ONE - 2 * phi(2)
    assert mul(phi(5), phi(5)) == 3 * phi(5) + 4 * ONE


@settings(max_examples=150)
@given(elements, elements, elements)
def test_ring_laws(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert mul(ONE, a) == a


def test_oracle_equivalence_small():
    for n in range(1, 25):
        on = roots.orbit(n)
        for m in range(n, 25):
            closed = basis_mul(n, m)
            literal = roots.to_witt(roots.product(on, roots.orbit(m)))
            assert closed == literal, (n, m)


def _uncached_product(n, m):
    g = math.gcd(n, m)
    return WittElement({n * m: 1} if g == 1 else witt._gcd_mul(n, m, g))


def test_cached_product_pattern_matches_the_uncached_expansion():
    witt._mul_pattern.cache_clear()
    rng = random.Random(33)
    # large shared prime powers, with equal and unequal exponents per prime
    big = [rng.choice((2, 3, 5, 7, 11)) ** rng.randint(1, 9) * rng.choice((1, 2, 3, 6, 35, 143))
           for _ in range(60)]
    pairs = [(n, m) for n in range(1, 301) for m in range(n, 301)]
    pairs += [(a * rng.choice((1, 2, 9, 25)), b) for a in big for b in rng.sample(big, 10)]
    for n, m in pairs:
        expected = _uncached_product(n, m)
        assert basis_mul(n, m) == basis_mul(m, n) == expected, (n, m)
        assert mul(phi(n), phi(m)) == expected, (n, m)
    small = [(n, m) for n in range(1, 25) for m in range(n, 25)]
    for n, m in small:
        literal = roots.to_witt(roots.product(roots.orbit(n), roots.orbit(m)))
        assert mul(phi(n), phi(m)) == basis_mul(n, m) == literal, (n, m)
    info = witt._mul_pattern.cache_info()
    # one entry per (g, h) shape, and every shape is read again
    assert 0 < info.currsize < len(pairs) and info.hits > info.misses
    for g, h in [(4, 2), (12, 1), (36, 6), (2**9, 2)]:
        pattern = witt._mul_pattern(g, h)
        # a cached list that a caller mutated would corrupt every later product
        assert type(pattern) is tuple and all(type(pair) is tuple for pair in pattern)
    # a coefficient times the pattern, summed over a combination
    a, b = 3 * phi(12) - phi(8) + 2 * ONE, phi(18) + 5 * phi(4)
    expected = WittElement()
    for n, cn in a.items():
        for m, cm in b.items():
            expected = expected + _uncached_product(n, m) * (cn * cm)
    assert mul(a, b) == expected


def test_products_stay_inside_divisor_span():
    # the span of the divisor classes of N is closed under multiplication
    from cycwitt.arith import divisors

    for big_n in (12, 36, 60):
        ds = divisors(big_n)
        for a in ds:
            for b in ds:
                assert set(basis_mul(a, b).support) <= set(ds), (big_n, a, b)


def test_frobenius_examples():
    assert frobenius(3, phi(4)) == phi(4)
    assert frobenius(2, phi(4)) == 2 * phi(2)
    assert frobenius(2, phi(2)) == ONE
    assert frobenius(6, phi(4)) == 2 * phi(2)


def test_frobenius_zero_routes_to_root_count():
    w = 2 * phi(12) - phi(3)
    assert frobenius(0, w) == f0(w) * ONE
    assert f0(w) == 2 * euler_phi(12) - euler_phi(3)


def test_frobenius_multiplicative_family():
    for n in (1, 2, 8, 12, 35, 48):
        for m1 in range(1, 13):
            for m2 in range(1, 13):
                lhs = frobenius(m1, frobenius(m2, phi(n)))
                assert lhs == frobenius(m1 * m2, phi(n))


@settings(max_examples=60)
@given(elements, elements, st.integers(min_value=1, max_value=30))
def test_frobenius_is_ring_map(a, b, m):
    assert frobenius(m, mul(a, b)) == mul(frobenius(m, a), frobenius(m, b))
    assert frobenius(m, a + b) == frobenius(m, a) + frobenius(m, b)


def test_frobenius_coefficient_against_totient_quotient():
    # F_m phi(n) = euler_phi(n)/euler_phi(n/g) * phi(n/g), g = gcd(m, n)
    for n in range(1, 121):
        for m in range(0, 61):
            g = math.gcd(m, n)
            expected = WittElement({n // g: euler_phi(n) // euler_phi(n // g)})
            assert frobenius(m, phi(n)) == expected, (m, n)


def test_frobenius_on_multiples_of_index():
    for n in range(1, 49):
        for k in range(1, 5):
            assert frobenius(k * n, phi(n)) == euler_phi(n) * ONE


def test_verschiebung_examples():
    w = phi(3) - 2 * ONE
    assert verschiebung(1, w) == w
    assert verschiebung(2, phi(3)) == phi(6)
    assert verschiebung(2, phi(2)) == phi(4)


def test_verschiebung_pairs_with_frobenius_on_image_pairs():
    # the adjunction identity holds against the image of V_m: pairing
    # phi(m*n) with phi(n) transports across the two operators
    for n in range(1, 25):
        for m in range(1, 9):
            assert inner(frobenius(m, phi(m * n)), phi(n)) == inner(
                phi(m * n), verschiebung(m, phi(n))
            )


def test_verschiebung_is_not_the_full_adjoint():
    # pinned counterexample: F_3 fixes phi(4), so the left side pairs
    # phi(4) with itself, while V_3 phi(4) = phi(12) is orthogonal to phi(4)
    assert inner(frobenius(3, phi(4)), phi(4)) == 2
    assert inner(phi(4), verschiebung(3, phi(4))) == 0
    # the defect vanishes exactly on the image pairs checked above; the
    # true adjoint of F_3 on phi(4) is phi(4) + phi(12):
    for k in (1, 2, 3, 4, 6, 12, 24):
        assert inner(frobenius(3, phi(k)), phi(4)) == inner(
            phi(k), phi(4) + phi(12)
        )


def test_trace_examples():
    assert trace(ONE) == 1
    assert trace(phi(6)) == 1
    assert trace(mul(phi(2), phi(2))) == 1


def test_trace_and_f0_are_ring_maps():
    rng = random.Random(11)
    for _ in range(50):
        a = WittElement({rng.randint(1, 20): rng.randint(-5, 5) for _ in range(3)})
        b = WittElement({rng.randint(1, 20): rng.randint(-5, 5) for _ in range(3)})
        assert trace(mul(a, b)) == trace(a) * trace(b)
        assert f0(mul(a, b)) == f0(a) * f0(b)


def test_t_m_examples():
    for n in range(1, 40):
        assert t_m(1, phi(n)) == mobius(n)
    assert t_m(2, phi(4)) == -2
    assert t_m(0, phi(12)) == 4
    for n in range(1, 30):
        for m in range(0, 30):
            assert t_m(m, phi(n)) == ramanujan_sum(n, m)


def test_integral_and_inner():
    assert integral(ONE) == 1
    assert integral(phi(5)) == 0
    assert integral(3 * ONE - 7 * phi(8)) == 3
    assert inner(phi(3), phi(3)) == 2
    assert inner(phi(3), phi(5)) == 0
    x = 5 * phi(7) - 2 * ONE
    assert inner(ONE, x) == integral(x)
    for n in range(1, 20):
        for m in range(1, 20):
            assert inner(phi(n), phi(m)) == (euler_phi(n) if n == m else 0)


def test_inner_matches_integral_of_the_product():
    # the product route is the oracle of the orthogonality sum
    rng = random.Random(28)
    kinds = set()
    for i in range(600):
        pool = range(1, rng.choice((6, 30, 120)) + 1)
        a = WittElement({n: rng.randint(-9, 9) for n in rng.sample(pool, rng.randint(0, 5))})
        if i % 3 == 0:  # b shares a's support, partly or wholly
            b = WittElement({n: rng.randint(-9, 9) for n in a.support if rng.random() < 0.7})
            b = b + WittElement({n: rng.randint(-9, 9) for n in rng.sample(pool, 2)})
        elif i % 3 == 1:  # b avoids a's support
            b = WittElement({n: rng.randint(-9, 9) for n in pool if n not in a.support
                             and rng.random() < 0.1})
        else:
            b = WittElement({n: rng.randint(-9, 9) for n in rng.sample(pool, rng.randint(0, 5))})
        shared = set(a.support) & set(b.support)
        kinds.add((bool(shared), 1 in shared))
        assert inner(a, b) == integral(mul(a, b)) == inner(b, a), (a, b)
    assert kinds == {(False, False), (True, False), (True, True)}


def test_inner_factors_only_shared_indices():
    big = 2**89 - 1  # factor refuses it
    assert inner(phi(6 * big), phi(2 * big)) == 0
    assert inner(3 * phi(2 * big) - ONE, 2 * phi(4 * big) + 5 * ONE) == -5
    assert inner(phi(12) + phi(big), 2 * phi(12)) == 8


def test_parseval_records_a_broken_sum_in_fractions(monkeypatch):
    from fractions import Fraction

    real = witt.ramanujan_sum
    monkeypatch.setattr(witt, "ramanujan_sum", lambda n, m: real(n, m) + (n == 6 and m == 1))
    rep = parseval_check(6)
    assert rep.pairs_checked == 16 and not rep.ok
    assert rep.failures == [
        (1, 6, 0, Fraction(1, 6)), (2, 6, 0, Fraction(-1, 6)), (3, 6, 0, Fraction(-1, 6)),
        (6, 1, 0, Fraction(1, 6)), (6, 2, 0, Fraction(-1, 6)), (6, 3, 0, Fraction(-1, 6)),
        (6, 6, 2, Fraction(5, 2)),
    ]
    assert all(type(x) is Fraction for *_, lhs, rhs in rep.failures for x in (lhs, rhs))
    assert rep.summary() == ("parseval N=6: 16 divisor pairs checked, orthogonality exact "
                             "in rationals: FAIL (7 mismatches)")


def test_averaged_traces_recover_integral():
    # over a full period the trace averages of the power operators
    # project onto the coefficient of phi(1)
    for big_n in (1, 6, 12, 20):
        rng = random.Random(big_n)
        from cycwitt.arith import divisors

        w = WittElement({d: rng.randint(-4, 4) for d in divisors(big_n)})
        total = sum(t_m(m, w) for m in range(1, big_n + 1))
        assert total == big_n * integral(w)


def test_parseval_examples():
    assert parseval_check(1).ok
    rep = parseval_check(6)
    assert rep.ok and rep.pairs_checked == 16
    assert sum(ramanujan_sum(6, z) ** 2 for z in range(1, 7)) == 12
    assert parseval_check(12).ok


def test_zeta_partial_check_against_pi():
    # classical value 6/pi^2 computed independently of the module's zeta
    rep = zeta_partial_check(1, 2, 30_000, 1e-2)
    assert rep.ok
    assert abs(rep.partial_sum - 6 / math.pi**2) < 1e-2
    assert rep.tail_bound < 1e-3


def test_zeta_partial_check_rejects_bad_input():
    with pytest.raises(ValueError):
        zeta_partial_check(1, 1, 100, 1.0)
    with pytest.raises(ValueError):
        zeta_partial_check(0, 3, 100, 1.0)


def test_zeta_report_carries_both_values_on_failure():
    rep = zeta_partial_check(1, 3, 50, 1e-15)
    assert not rep.ok
    assert rep.partial_sum != rep.reference


def test_hom_classify_small():
    homs = hom_classify(2)
    assert sorted(h[2] for h in homs) == [-1, 1]
    homs = hom_classify(3)
    assert sorted(h[3] for h in homs) == [-1, 2]
    for p in (2, 3):
        for k in (1, 2):
            assert len(hom_classify(p**k)) == k + 1


def test_hom_classify_values_match_trace_family():
    for p in (2, 3):
        k = 2
        homs = {tuple(h[p**i] for i in range(k + 1)) for h in hom_classify(p**k)}
        fam = set()
        for i in range(k):
            fam.add(tuple(t_m(p**i, phi(p**j)) for j in range(k + 1)))
        fam.add(tuple(f0(phi(p**j)) for j in range(k + 1)))
        assert homs == fam


def _hand_hom_table(p, k):
    """Value tables of the k+1 maps on phi(p^0)..phi(p^k), derived by hand:
    trace of F_{p^i} for i < k, then f0.  Independent of ramanujan_sum."""
    out = set()
    for i in range(k):
        vals = [1]
        for m in range(1, k + 1):
            if m <= i:
                vals.append(p**m - p ** (m - 1))
            elif m == i + 1:
                vals.append(-(p**i))
            else:
                vals.append(0)
        out.add(tuple(vals))
    out.add(tuple(euler_phi(p**m) for m in range(k + 1)))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hom_classify_matches_hand_table(p):
    for k in range(1, 6):
        homs = {tuple(h[p**i] for i in range(k + 1)) for h in hom_classify(p**k)}
        assert homs == _hand_hom_table(p, k)


def test_hom_classify_raises_on_a_solution_that_breaks_a_product(monkeypatch):
    # a wrong phi(9)*phi(9) makes every solution a non-homomorphism, as a
    # solver fault would make one; the check names it instead of dropping it
    real = characters.basis_mul
    monkeypatch.setattr(
        characters, "basis_mul", lambda n, m: real(n, m) + ONE if n == m == 9 else real(n, m)
    )
    with pytest.raises(
        ArithmeticError,
        match=r"certificate fault at N=9: character \(1, -1, 0\) breaks phi\(9\)\*phi\(9\)",
    ):
        hom_classify(9)


def test_hom_classify_raises_on_a_product_outside_the_level_or_equal_characters(monkeypatch):
    real_mul, real_sum = characters.basis_mul, characters.ramanujan_sum
    with monkeypatch.context() as m:
        m.setattr(characters, "basis_mul", lambda n, k: phi(5) if n == k == 2 else real_mul(n, k))
        leaves = r"N=4: phi\(2\)\*phi\(2\) = .* leaves the level"
        with pytest.raises(ArithmeticError, match=leaves):
            hom_classify(4)
    # every t_d read as t_1: each respects every product, but they coincide
    monkeypatch.setattr(characters, "ramanujan_sum", lambda n, d: real_sum(n, 1))
    with pytest.raises(ArithmeticError, match=r"N=4: .* are not 3 distinct unital maps"):
        hom_classify(4)


def test_hom_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        hom_classify(0)
    with pytest.raises(ValueError):
        hom_classify(-3)


@pytest.mark.parametrize("N", range(1, 61))
def test_hom_classify_matches_the_root_model(N):
    # the value of t_d on phi(n) is the literal sum of the d-th powers of the
    # primitive n-th roots: independent of ramanujan_sum
    ds = [d for d in range(1, N + 1) if N % d == 0]
    homs = hom_classify(N)
    assert len(homs) == len(ds)
    model = {tuple(roots.root_sum(roots.power_map(roots.orbit(n), d)) for n in ds) for d in ds}
    # in descending order of the value tuples, as at the prime towers
    assert [tuple(h[n] for n in ds) for h in homs] == sorted(model, reverse=True)


def test_hom_classify_raises_on_a_wrong_ramanujan_sum(monkeypatch):
    # c_4(2) = -2; with 5 instead, t_2 first breaks phi(3)*phi(4) = phi(12):
    # c_3(2)*5 = -5, but c_12(2) = 2
    real = characters.ramanujan_sum
    monkeypatch.setattr(
        characters, "ramanujan_sum", lambda n, d: 5 if (n, d) == (4, 2) else real(n, d)
    )
    broken = r"N=12: character \(1, 1, -1, 5, -1, 2\) breaks phi\(3\)\*phi\(4\)$"
    with pytest.raises(ArithmeticError, match=broken):
        hom_classify(12)
