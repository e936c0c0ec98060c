import random

import pytest

from cycwitt.arith import cyclotomic_poly, euler_phi, mobius
from cycwitt.roots import (
    NotGaloisStable,
    RootMultiset,
    elementary_symmetric,
    orbit,
    power_map,
    product,
    root_sum,
    to_witt,
)
from cycwitt.witt import ONE, phi, trace


def test_orbit_examples():
    assert orbit(1) == RootMultiset(1, {0: 1})
    assert orbit(4) == RootMultiset(4, {1: 1, 3: 1})
    assert orbit(6) == RootMultiset(6, {1: 1, 5: 1})


@pytest.mark.parametrize("n", range(1, 201))
def test_orbit_counts_and_decomposition(n):
    o = orbit(n)
    assert o.total() == euler_phi(n)
    assert to_witt(o) == phi(n)


def test_level_reduction_is_canonical():
    assert RootMultiset(8, {4: 3}) == RootMultiset(2, {1: 3})
    assert RootMultiset(12, {}).level == 1
    assert RootMultiset(10, {0: 2}).level == 1


def test_product_examples():
    assert product(orbit(2), orbit(2)) == orbit(1)
    assert product(orbit(2), orbit(4)) == orbit(4)
    expected = orbit(1).scale(4) + orbit(5).scale(3)
    assert product(orbit(5), orbit(5)) == expected


def test_product_commutative_associative_sampled():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (orbit(rng.randint(1, 24)) for _ in range(3))
        assert product(a, b) == product(b, a)
        assert product(product(a, b), c) == product(a, product(b, c))


def test_power_map_examples():
    assert power_map(orbit(4), 1) == orbit(4)
    assert power_map(orbit(4), 2) == orbit(2).scale(2)
    assert power_map(orbit(3), 3) == orbit(1).scale(2)


def test_power_map_composes():
    rng = random.Random(3)
    for _ in range(60):
        a = orbit(rng.randint(1, 30))
        m1, m2 = rng.randint(0, 9), rng.randint(0, 9)
        assert power_map(a, m1 * m2) == power_map(power_map(a, m1), m2)


def test_to_witt_rejects_unstable():
    with pytest.raises(NotGaloisStable):
        to_witt(RootMultiset(4, {1: 1}))
    with pytest.raises(NotGaloisStable):
        to_witt(RootMultiset(5, {1: 2, 2: 1, 3: 1, 4: 1}))


def test_elementary_symmetric_examples():
    assert elementary_symmetric(orbit(9), 0) == ONE
    assert elementary_symmetric(orbit(5), 2) == phi(5) + 2 * ONE
    assert elementary_symmetric(orbit(3), 2) == ONE


def test_elementary_symmetric_bounds():
    with pytest.raises(ValueError):
        elementary_symmetric(orbit(5), 5)


@pytest.mark.parametrize("n", range(1, 21))
def test_symmetric_functions_give_reversed_cyclotomic(n):
    # the alternating trace of the elementary symmetric classes recovers
    # the coefficient list of prod(1 - z*t) over the primitive roots
    rev = cyclotomic_poly(n).reversed_coeffs()
    o = orbit(n)
    coeffs = [
        (-1) ** k * trace(elementary_symmetric(o, k))
        for k in range(euler_phi(n) + 1)
    ]
    assert coeffs == [rev[k] for k in range(rev.degree + 1)]


def test_root_sum_examples():
    assert root_sum(orbit(1)) == 1
    assert root_sum(orbit(4)) == 0
    assert root_sum(RootMultiset(3, {1: 1, 2: 1})) == -1
    with pytest.raises(ValueError):
        root_sum(RootMultiset(4, {1: 1}))


@pytest.mark.parametrize("n", range(1, 61))
def test_root_sum_matches_mobius(n):
    assert root_sum(orbit(n)) == mobius(n)


def test_root_sum_linear_on_unions():
    a = orbit(6) + orbit(4).scale(2)
    assert root_sum(a) == mobius(6) + 2 * mobius(4)
