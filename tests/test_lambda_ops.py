import math
import operator
import random

import pytest

from cycwitt import roots
from cycwitt.arith import IntPolynomial, Record, cyclotomic_poly, divisors, euler_phi
from cycwitt.lambda_ops import (
    GammaFiltration,
    WittSeries,
    _gamma_from_lambda,
    _level,
    _trace_coords,
    _trace_lambda,
    gamma_basis,
    gamma_filtration,
    gamma_series,
    graded_frobenius_check,
    lambda_basis,
    lambda_series,
)
from cycwitt.linalg import hnf
from cycwitt.witt import ONE, WittElement, f0, frobenius, mul, phi, t_m, trace

# the ten classical expansions, frozen as coefficient data
# (index -> list of lambda_t coefficients as (basis index, value) pairs)
CLASSICAL_TABLE = {
    1: [{1: 1}, {1: -1}],
    2: [{1: 1}, {2: -1}],
    3: [{1: 1}, {3: -1}, {1: 1}],
    4: [{1: 1}, {4: -1}, {1: 1}],
    5: [{1: 1}, {5: -1}, {5: 1, 1: 2}, {5: -1}, {1: 1}],
    6: [{1: 1}, {6: -1}, {1: 1}],
    7: [
        {1: 1},
        {7: -1},
        {7: 2, 1: 3},
        {7: -3, 1: -2},
        {7: 2, 1: 3},
        {7: -1},
        {1: 1},
    ],
    8: [{1: 1}, {8: -1}, {4: 1, 2: 2, 1: 2}, {8: -1}, {1: 1}],
    9: [
        {1: 1},
        {9: -1},
        {9: 1, 3: 3, 1: 3},
        {9: -3, 3: -1},
        {9: 1, 3: 3, 1: 3},
        {9: -1},
        {1: 1},
    ],
    10: [{1: 1}, {10: -1}, {5: 1, 1: 2}, {10: -1}, {1: 1}],
}


@pytest.mark.parametrize("n", sorted(CLASSICAL_TABLE))
def test_classical_table_reproduction(n):
    series = lambda_series(phi(n), euler_phi(n))
    expected = [WittElement(c) for c in CLASSICAL_TABLE[n]]
    assert list(series.coeffs) == expected


def test_lambda_basis_examples():
    assert lambda_basis(5, 2) == phi(5) + 2 * ONE
    assert lambda_basis(7, 3) == 3 * phi(7) + 2 * ONE
    assert lambda_basis(8, 2) == phi(4) + 2 * phi(2) + 2 * ONE
    assert lambda_basis(11, 0) == ONE
    assert lambda_basis(9, 1) == phi(9)


def test_lambda_basis_bounds():
    with pytest.raises(ValueError):
        lambda_basis(5, 5)
    with pytest.raises(ValueError):
        lambda_basis(5, -1)


@pytest.mark.parametrize("n", range(1, 21))
def test_lambda_matches_symmetric_oracle(n):
    o = roots.orbit(n)
    for k in range(euler_phi(n) + 1):
        assert lambda_basis(n, k) == roots.elementary_symmetric(o, k)


@pytest.mark.parametrize("n", range(3, 31))
def test_lambda_palindrome(n):
    top = euler_phi(n)
    for k in range(top + 1):
        assert lambda_basis(n, k) == lambda_basis(n, top - k)


@pytest.mark.parametrize("n", range(1, 31))
def test_lambda_trace_gives_reversed_cyclotomic(n):
    series = lambda_series(phi(n), euler_phi(n))
    rev = cyclotomic_poly(n).reversed_coeffs()
    assert [trace(series[k]) for k in range(series.degree + 1)] == list(rev.coeffs)


@pytest.mark.parametrize("n", range(1, 31))
def test_lambda_f0_gives_binomial_expansion(n):
    series = lambda_series(phi(n), euler_phi(n))
    top = euler_phi(n)
    expected = [(-1) ** k * math.comb(top, k) for k in range(top + 1)]
    assert [f0(series[k]) for k in range(series.degree + 1)] == expected


def _newton_row(n, top):
    """Reference row (e_0, ..., e_top) for the roots of phi(n), by Newton's
    identities over Witt elements from the power sums F_i phi(n); every
    division by k must be exact."""
    powers = [None] + [frobenius(i, phi(n)) for i in range(1, top + 1)]
    es = [ONE]
    for k in range(1, top + 1):
        acc = WittElement()
        for i in range(1, k + 1):
            term = mul(es[k - i], powers[i])
            acc = acc + (term if i % 2 else -term)
        es.append(acc.divexact(k))
    return es


def test_newton_divisions_exact_up_to_60():
    for n in range(1, 61):
        top = euler_phi(n)
        series = lambda_series(phi(n), top)
        assert _newton_row(n, top) == [series.lam(k) for k in range(top + 1)], n


@pytest.mark.parametrize("n", range(1, 31))
def test_lambda_support_stays_inside_divisors(n):
    for k in range(euler_phi(n) + 1):
        assert set(lambda_basis(n, k).support) <= set(divisors(n))


def test_lambda_binomials_on_unit_multiples():
    for k in (1, 2, 5):
        series = lambda_series(k * ONE, 6)
        for j in range(7):
            assert series.lam(j) == math.comb(k, j) * ONE
        inv = lambda_series(-k * ONE, 6)
        for j in range(7):
            assert inv[j] == math.comb(k + j - 1, j) * ONE


def test_lambda_sum_rule_degree_two():
    series = lambda_series(phi(2) + phi(3), 2)
    assert series[2] == phi(6) + ONE


def test_lambda_series_multiplicative():
    rng = random.Random(9)
    for _ in range(25):
        a = WittElement({rng.randint(1, 12): rng.randint(-3, 3) for _ in range(2)})
        b = WittElement({rng.randint(1, 12): rng.randint(-3, 3) for _ in range(2)})
        assert lambda_series(a + b, 5) == lambda_series(a, 5) * lambda_series(b, 5)


def test_series_inverse_roundtrip():
    s = lambda_series(phi(6) - 2 * ONE, 6)
    assert s * s.inverse() == WittSeries.one(6)


def test_gamma_examples():
    x = phi(6) - 2 * ONE
    assert gamma_basis(x, 0) == ONE
    assert gamma_basis(x, 1) == -x
    series = gamma_series(phi(2) - ONE, 5)
    assert series[0] == ONE
    assert series[1] == phi(2) - ONE
    for k in range(2, 6):
        assert series[k] == WittElement()


def test_gamma_binomial_identity():
    for k in (1, 3):
        for n in range(4):
            g = gamma_basis(k * ONE, n)
            sign = 1 if n % 2 == 0 else -1
            assert sign * g == math.comb(k + n - 1, n) * ONE


class GammaUnitsReport(Record):
    """gamma_t on phi(n) - euler_phi(n)*phi(1) versus the literal expansion
    of prod(1 - (1 - [root])*t) over the primitive n-th roots."""

    _fields = ("n", "degree", "mismatches")
    _defaults = {"mismatches": []}  # (k, got, expected)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def gamma_positive_check(n: int) -> GammaUnitsReport:
    """Check gamma_t(phi(n) - euler_phi(n)) against the root-multiset oracle.

    The oracle expands the k-th elementary symmetric function of the
    elements 1 - [root] by inclusion-exclusion over elementary
    symmetric functions of the roots themselves:
    e_k(1-z) = sum over j of (-1)**j C(N-j, k-j) e_j(z), N = count.
    """
    if n <= 1:
        raise ValueError(f"requires n > 1, got {n}")
    big_n = euler_phi(n)
    degree = big_n + 2  # two degrees past the last nonzero one must vanish
    lhs = gamma_series(phi(n) - ONE * big_n, degree)
    orb = roots.orbit(n)
    e_of_roots = [roots.elementary_symmetric(orb, j) for j in range(big_n + 1)]
    report = GammaUnitsReport(n, degree)
    for k in range(degree + 1):
        if k <= big_n:
            acc = WittElement()
            for j in range(k + 1):
                term = e_of_roots[j] * math.comb(big_n - j, k - j)
                acc = acc + (term if j % 2 == 0 else -term)
            expected = acc if k % 2 == 0 else -acc
        else:
            expected = WittElement()
        if lhs[k] != expected:
            report.mismatches.append((k, lhs[k], expected))
    return report


@pytest.mark.parametrize("n", range(2, 11))
def test_gamma_units_oracle(n):
    report = gamma_positive_check(n)
    assert report.ok, report.mismatches
    assert GammaUnitsReport(n, 0).mismatches is not report.mismatches


def test_gamma_filtration_levels():
    filt = gamma_filtration(6, 2)
    assert [lat.rank for lat in filt.lattices] == [4, 3, 3]
    expected_i1 = hnf(
        [[-1, 1, 0, 0], [-2, 0, 1, 0], [-2, 0, 0, 1]]
    )  # phi2 - phi1, phi3 - 2, phi6 - 2 over divisors (1, 2, 3, 6)
    assert filt.lattices[1] == expected_i1
    with pytest.raises(ValueError, match="monomial_bound"):
        gamma_filtration(6, 2, -1)


def test_gamma_filtration_nested():
    filt = gamma_filtration(12, 4)
    for k in range(filt.depth):
        assert filt.lattices[k].includes(filt.lattices[k + 1])


def test_gamma_filtration_degree_two_generators_suffice_at_4():
    filt = gamma_filtration(4, 2)
    ds = filt.divisors
    basis = [phi(d) - euler_phi(d) * ONE for d in ds if d > 1]
    gens = []
    for a in basis:
        for b in basis:
            gens.append(mul(gamma_basis(a, 1), gamma_basis(b, 1)))
    for a in basis:
        gens.append(gamma_basis(a, 2))

    def vec(w):
        return [w.coeff(d) for d in ds]

    assert filt.lattices[2] == hnf([vec(g) for g in gens], ambient=len(ds))


@pytest.mark.parametrize("big_n", (4, 8))
def test_graded_check_small(big_n):
    report = graded_frobenius_check(big_n, 2, 3)
    assert report.frobenius_ok, report.frobenius_failures
    # the lambda-side containment is reported, not asserted; record it
    if not report.lambda_ok:
        print(report.summary())


def _graded_lambda_reference(N, depth, m_max):
    """The lambda side of graded_frobenius_check, one series per (x, m)."""
    filt = gamma_filtration(N, depth + 1)
    ds = filt.divisors
    checked, failures = 0, []
    for n in range(1, depth + 1):
        for x in filt.basis_elements(n):
            for m in range(1, m_max + 1):
                lam = lambda_series(x, m).lam(m)
                z = (lam if (m + 1) % 2 == 0 else -lam) - x * m ** (n - 1)
                checked += 1
                if not filt.lattices[n + 1].contains([z.coeff(d) for d in ds]):
                    failures.append((n, x, m))
    return checked, failures


@pytest.mark.parametrize("big_n", (4, 8, 12))
def test_graded_check_matches_per_degree_series(big_n):
    # the levels of acceptance criterion 11
    report = graded_frobenius_check(big_n, 3, 5)
    assert (report.lambda_checked, report.lambda_failures) == _graded_lambda_reference(big_n, 3, 5)
    assert report.frobenius_ok


def _walk_gamma_filtration(N, depth, monomial_bound=None):
    """Reference filtration: lists every gamma-monomial up to total
    degree and length monomial_bound, atoms from gamma_basis one exponent
    at a time, and puts them all through hnf."""
    bound = monomial_bound if monomial_bound is not None else depth + 2
    ds = divisors(N)
    r = len(ds)

    def vec(w):
        return [w.coeff(d) for d in ds]

    lattices = [hnf([[int(i == j) for j in range(r)] for i in range(r)])]
    basis = [phi(d) - ONE * euler_phi(d) for d in ds if d > 1]
    lattices.append(hnf([vec(b) for b in basis], ambient=r))
    gam = {(e, i): gamma_basis(b, e) for e in range(1, bound + 1) for i, b in enumerate(basis)}
    atoms = sorted(gam)
    monomials = []  # (total gamma degree, value)

    def walk(start, total, length, value):
        for a in range(start, len(atoms)):
            e, i = atoms[a]
            if total + e > bound or length + 1 > bound:
                continue
            v = mul(value, gam[(e, i)])
            monomials.append((total + e, v))
            walk(a, total + e, length + 1, v)

    walk(0, 0, 0, ONE)
    for k in range(2, depth + 1):
        lattices.append(hnf([vec(v) for s, v in monomials if s >= k], ambient=r))
    return GammaFiltration(N, depth, ds, lattices)


@pytest.mark.parametrize(
    "args",
    [(n, 2) for n in range(1, 61)]
    + [(n, 3) for n in (12, 24, 30, 36, 48, 60)]
    + [(8, 3, 7), (12, 2, 6), (30, 3, 5), (997, 2)],
)
def test_gamma_filtration_matches_monomial_walk(args):
    assert gamma_filtration(*args) == _walk_gamma_filtration(*args)


def _virtual_elements():
    out = [phi(d) - euler_phi(d) * ONE for d in range(1, 61)]
    rng = random.Random(6)
    for _ in range(60):
        terms = rng.randint(1, 3)
        out.append(WittElement({rng.randint(1, 60): rng.randint(-3, 3) for _ in range(terms)}))
    return out


def test_gamma_series_matches_shift_identity():
    for x in _virtual_elements():
        series = gamma_series(x, 6)
        assert [series.lam(k) for k in range(7)] == [gamma_basis(x, k) for k in range(7)], x


@pytest.mark.parametrize("n", range(1, 61))
def test_truncated_lambda_row_is_prefix(n):
    top = euler_phi(n)
    full = lambda_series(phi(n), top + 2).coeffs
    assert full[top + 1:] == (WittElement(), WittElement())
    for k in sorted({0, 1, 2, top // 2, top - 1} & set(range(top + 1))):
        assert lambda_series(phi(n), k).coeffs == full[: k + 1]


def _mixed_sign_elements():
    rng = random.Random(19)
    out = [phi(12) - 3 * ONE + phi(5), 2 * phi(9) - phi(3) - 4 * ONE, -phi(8) - phi(4)]
    for _ in range(30):
        out.append(WittElement({rng.randint(1, 30): rng.choice((-3, -2, -1, 1, 2, 3))
                                for _ in range(rng.randint(2, 4))}))
    return out


def test_series_ring_operations_match_trace_coordinates():
    # WittSeries products, inverses and powers work on Witt coefficients
    # through witt.mul; lambda_series works pointwise in trace coordinates
    for x in _mixed_sign_elements():
        expected = WittSeries.one(6)
        for n, c in x.items():
            expected = expected * lambda_series(phi(n), 6).pow(c)
        assert lambda_series(x, 6) == expected, x
        assert lambda_series(-x, 6) == lambda_series(x, 6).inverse(), x
        assert lambda_series(3 * x, 6) == lambda_series(x, 6).pow(3), x


@pytest.mark.parametrize("n", range(1, 37))
def test_trace_coordinate_is_cyclotomic_power(n):
    # coordinate d of lambda_t(phi(n)) is the reversed Phi_m to the power
    # euler_phi(n)/euler_phi(m), m = n/gcd(n, d)
    top = euler_phi(n)
    ds = divisors(n)
    for d, col in zip(ds, _trace_lambda(phi(n), top, ds)):
        m = n // math.gcd(n, d)
        expected = IntPolynomial((1,))
        for _ in range(top // euler_phi(m)):
            expected = expected * cyclotomic_poly(m).reversed_coeffs()
        assert col == [expected[k] for k in range(top + 1)], (n, d)


@pytest.mark.parametrize("level", (1, 2, 12, 30, 60, 97, 360, 30030))
def test_trace_coordinates_invert_exactly(level):
    coords = _trace_coords(level)
    rng = random.Random(level)
    for _ in range(20):
        w = WittElement({d: rng.randint(-9, 9) for d in rng.sample(coords.ds, min(3, len(coords.ds)))})
        assert coords.element([t_m(d, w) for d in coords.ds]) == w


def test_corrupted_trace_vector_raises():
    coords = _trace_coords(12)
    g = [t_m(d, phi(4) - 2 * ONE) for d in coords.ds]
    g[2] += 1
    with pytest.raises(ArithmeticError, match="implementation bug"):
        coords.coeffs(g)


def _per_vector_coeffs(coords, g):
    """The inversion of one trace vector at a time, as _TraceCoords.coeffs
    ran before the vectors were packed.  The oracle for the batched one."""
    v = [0] * len(g)
    for i, x in zip(coords._slot, g):
        v[i] = x
    for stride, table in coords._steps:
        span = stride * len(table)
        for base in (hi + lo for hi in range(0, len(v), span) for lo in range(stride)):
            vals = v[base:base + span:stride]
            for a, row in enumerate(table):
                v[base + a * stride] = sum(map(operator.mul, row, vals))
    out = []
    for n, i, den in zip(coords.ds, coords._slot, coords._dens):
        q, r = divmod(v[i], den)
        if r:
            raise ArithmeticError(
                f"trace vector {list(g)} over divisors {coords.ds} has no integer "
                f"coefficient at phi({n}): implementation bug"
            )
        out.append(q)
    return out


def _per_vector_series(cols, coords):
    return WittSeries([WittElement(dict(zip(coords.ds, _per_vector_coeffs(coords, g))))
                       for g in zip(*cols)])


def _slot_bits(cols, coords):
    # the slot width solve() picks for these columns
    return (max(abs(x) for col in cols for x in col) * coords._gain).bit_length() + 2


def _check_batched_series(a, degree):
    """lambda_t(a) and gamma_t(a) against the per-vector inversion; returns
    the slot widths the two batched inversions used."""
    coords = _trace_coords(_level(a))
    cols = _trace_lambda(a, degree, coords.ds)
    gammas = [_gamma_from_lambda(col, degree) for col in cols]
    assert lambda_series(a, degree) == _per_vector_series(cols, coords), a
    assert gamma_series(a, degree) == _per_vector_series(gammas, coords), a
    return _slot_bits(cols, coords), _slot_bits(gammas, coords)


NINE_PRIMES = sum((phi(p) for p in (3, 5, 7, 11, 13, 17, 19, 23)), phi(2))


@pytest.mark.parametrize("n", range(1, 61))
def test_batched_inversion_matches_per_vector_at_full_degree(n):
    _check_batched_series(phi(n), euler_phi(n))


def test_batched_inversion_matches_per_vector_on_virtual_elements():
    for x in _virtual_elements() + _mixed_sign_elements():
        _check_batched_series(x, 6)
    _check_batched_series(NINE_PRIMES, 3)
    _check_batched_series(WittElement(), 4)


@pytest.mark.parametrize(
    "a,degree,bits",
    [(phi(41), 40, (46, 84)), (25 * phi(1) + phi(30), 30, (39, 67)),
     (phi(30) - 60 * ONE, 40, (105, 70))],
)
def test_batched_inversion_with_slots_above_64_bits(a, degree, bits):
    assert _check_batched_series(a, degree) == bits


@pytest.mark.parametrize("level", (1, 12, 60, 97, 360, 2 * 3 * 5 * 7 * 11 * 13))
def test_batched_solve_matches_per_vector_on_random_vectors(level):
    coords = _trace_coords(level)
    rng = random.Random(level)
    for count in (0, 1, 2, 7, 40):
        elements = [WittElement({d: rng.randint(-10**rng.randint(1, 30), 10**30)
                                 for d in rng.sample(coords.ds, min(4, len(coords.ds)))})
                    for _ in range(count)]
        gs = [[t_m(d, w) for d in coords.ds] for w in elements]
        assert coords.solve(gs) == [_per_vector_coeffs(coords, g) for g in gs]
        assert [coords.element(g) for g in gs] == elements


def test_batched_solve_names_the_corrupted_vector():
    coords = _trace_coords(12)
    gs = [[t_m(d, w) for d in coords.ds] for w in (phi(4) - 2 * ONE, phi(6), 3 * phi(12))]
    gs[1][2] += 1
    with pytest.raises(ArithmeticError) as batched:
        coords.solve(gs)
    with pytest.raises(ArithmeticError) as single:
        _per_vector_coeffs(coords, gs[1])
    assert str(batched.value) == str(single.value)


def test_series_pow_is_repeated_product():
    s = lambda_series(phi(12) - 3 * ONE + phi(5), 6)
    for e in range(-6, 7):
        expected = WittSeries.one(6)
        for _ in range(abs(e)):
            expected = expected * (s if e > 0 else s.inverse())
        assert s.pow(e) == expected, e
