import math

import pytest
from hypothesis import given, strategies as st

from cycwitt.arith import (
    FACTOR_BUDGET,
    BudgetExceeded,
    IntPolynomial,
    cyclotomic_poly,
    divisors,
    euler_phi,
    factor,
    mobius,
    phi_mu_tables,
    ramanujan_sum,
    ramanujan_sum_divisor_form,
)


def naive_factor(n):
    out = []
    d = 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out)


def test_factor_examples():
    assert factor(1) == ()
    assert factor(12) == ((2, 2), (3, 1))
    assert factor(60) == ((2, 2), (3, 1), (5, 1))


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_refuses_past_its_trial_budget():
    p, q = 3999971, 4000037  # the primes either side of FACTOR_BUDGET
    assert p < FACTOR_BUDGET < q
    assert factor(p * q) == ((p, 1), (q, 1))  # the cofactor q is below the budget squared
    with pytest.raises(BudgetExceeded, match=f"factor\\({q * q}\\) > {FACTOR_BUDGET}"):
        factor(q * q)


@pytest.mark.parametrize("n", list(range(1, 200)) + [720720, 999983])
def test_factor_reconstructs(n):
    fs = factor(n)
    assert fs == naive_factor(n)
    prod = 1
    for p, e in fs:
        prod *= p**e
    assert prod == n
    assert list(fs) == sorted(fs)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    with pytest.raises(ValueError):
        mobius(0)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(8) == 4
    assert euler_phi(12) == 4
    with pytest.raises(ValueError):
        euler_phi(0)


@pytest.mark.parametrize("n", range(1, 101))
def test_euler_phi_direct_count(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_divisor_sums_up_to_200():
    for n in range(1, 201):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_phi_mu_tables_agree_with_pointwise():
    phi, mu = phi_mu_tables(300)
    for n in range(1, 301):
        assert phi[n] == euler_phi(n)
        assert mu[n] == mobius(n)


def test_ramanujan_examples():
    assert all(ramanujan_sum(1, m) == 1 for m in range(6))
    for n in range(1, 50):
        assert ramanujan_sum(n, 1) == mobius(n)
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum(6, 0) == euler_phi(6)


def test_ramanujan_closed_form_vs_divisor_sum():
    for n in range(1, 60):
        for m in range(0, 60):
            assert ramanujan_sum(n, m) == ramanujan_sum_divisor_form(n, m)


def test_ramanujan_depends_only_on_gcd_class():
    for n in range(1, 41):
        for m in range(0, 81):
            assert ramanujan_sum(n, m) == ramanujan_sum(n, math.gcd(n, m))


def test_cyclotomic_examples():
    assert cyclotomic_poly(2).reversed_coeffs() == IntPolynomial((1, 1))
    assert cyclotomic_poly(4) == IntPolynomial((1, 0, 1))
    assert cyclotomic_poly(6) == IntPolynomial((1, -1, 1))
    assert cyclotomic_poly(1) == IntPolynomial((-1, 1))


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_product_over_divisors(n):
    prod = IntPolynomial((1,))
    for d in divisors(n):
        prod = prod * cyclotomic_poly(d)
    assert prod == IntPolynomial((-1,) + (0,) * (n - 1) + (1,))


@pytest.mark.parametrize("n", range(1, 40))
def test_cyclotomic_reversal(n):
    plain = cyclotomic_poly(n)
    rev = cyclotomic_poly(n).reversed_coeffs()
    assert plain.degree == rev.degree == euler_phi(n)
    assert rev.coeffs == tuple(reversed(plain.coeffs))
    assert rev[0] == 1


ints = st.integers(min_value=-30, max_value=30)
polys = st.lists(ints, max_size=6).map(IntPolynomial)


@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_poly_divmod_roundtrip(a, b):
    prod = a * b
    if not b.is_zero():
        assert prod.divexact(b) == a or a.is_zero()


def test_poly_divexact_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        IntPolynomial((1, 1, 1)).divexact(IntPolynomial((1, 1)))


def test_poly_pretty():
    assert IntPolynomial((1, -1, 1)).pretty() == "1 - t + t^2"
    assert IntPolynomial(()).pretty() == "0"
    assert IntPolynomial((0, 2)).pretty("x") == "2*x"
