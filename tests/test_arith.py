import ast
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cycwitt import characters, lambda_ops, linalg, matrices, rigs, spectra, tables, witt
from cycwitt.arith import (
    TRIAL_LIMIT,
    BudgetExceeded,
    FrozenRecord,
    Record,
    cyclotomic_poly,
    divisors,
    euler_phi,
    factor,
    frobenius_basis,
    mobius,
    ramanujan_sum,
)
from cycwitt.characters import phi_mu_tables
from cycwitt.bigfactor import _BASES, _root, PROVEN_BOUND, RHO_BUDGET
from cycwitt.poly import IntPolynomial, cyclotomic_binomials, times_binomial, times_cyclotomic

from oracles import ramanujan_sum_divisor_form


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


def is_prime_by_trial(p):
    """Trial division up to isqrt(p): the oracle for primes too large for
    naive_factor, which divides up to p itself."""
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_factor_below_1e5_is_the_oracle():
    # naive_factor of every n < 10^5 would divide about 4.5*10^8 times: it runs
    # on a seeded sample, and every n is checked as a product of ascending
    # primes, which is unique
    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 10**5, p)))
    for n in range(1, 10**5):
        fs = factor(n)
        assert math.prod(p**e for p, e in fs) == n
        assert all(sieve[p] and e >= 1 for p, e in fs) and [p for p, _ in fs] == sorted({p for p, _ in fs})
    for n in random.Random(27).sample(range(1, 10**5), 300):
        assert factor(n) == naive_factor(n)


def test_factor_of_products_of_large_prime_powers():
    rng = random.Random(2027)
    primes = set()
    while len(primes) < 40:
        p = rng.randrange(10**5, 10**7) | 1
        while not is_prime_by_trial(p):
            p += 2
        primes.add(p)
    primes = sorted(primes)
    for _ in range(200):
        fs = dict.fromkeys(rng.sample(primes, rng.randint(1, 3)), 0)
        for p in fs:
            fs[p] = rng.randint(1, 3)
        small = rng.choice([1, 2, 12, 997, 30030])
        want = tuple(sorted(naive_factor(small) + tuple(fs.items())))
        assert factor(small * math.prod(p**e for p, e in fs.items())) == want


@pytest.mark.parametrize("p", [1009, 1093, 3511, 65537, 999983, 1000003, 4000037])
def test_factor_of_squares_and_cubes_above_the_trial_limit(p):
    # 1093 and 3511 are the Wieferich primes: their squares are strong
    # pseudoprimes to base 2
    assert p > TRIAL_LIMIT and is_prime_by_trial(p)
    assert factor(p * p) == ((p, 2),)
    assert factor(p**3) == ((p, 3),)
    assert factor(6 * p**2 * 1000033) == tuple(sorted({2: 1, 3: 1, p: 2, 1000033: 1}.items()))


def test_factor_of_long_smooth_numbers():
    # trial division up to 4*10^6 answered each of these at once; rho splits
    # off a prime power in one step, and a long n gets trial divisors past
    # TRIAL_LIMIT
    assert factor(1009**300) == ((1009, 300),)
    assert factor(65537**150) == ((65537, 150),)
    assert factor(1000003**60 * 4000037**40) == ((1000003, 60), (4000037, 40))
    n = 1009**300 * 65537**20 * 1000003**7 * (10**18 + 3)
    assert factor(n) == ((1009, 300), (65537, 20), (1000003, 7), (10**18 + 3, 1))
    for top in (3000, 10000):
        n = math.prod(p for p in range(TRIAL_LIMIT + 1, top) if is_prime_by_trial(p))
        assert factor(n) == naive_factor(n)
    # rho peels these off without a primality test of the long cofactor
    # between splits
    primes = [p for p in range(10**5, 102_234) if is_prime_by_trial(p)]
    assert len(primes) == 200 and factor(math.prod(primes)) == tuple((p, 1) for p in primes)


def test_factor_names_a_long_refused_input_by_its_length():
    # str() refuses an int past 4300 digits, so the refusal gives the length
    n = (10**13 + 37) ** 340
    assert n > 10**4300
    message = f"^budget exceeded: modular squarings for factor\\(<{n.bit_length()}-bit n>\\) > {RHO_BUDGET}$"
    with pytest.raises(BudgetExceeded, match=message):
        factor(n)


@pytest.mark.parametrize(
    "n, primes",
    [
        (561, (3, 11, 17)),  # Carmichael numbers
        (41041, (7, 11, 13, 41)),
        (825265, (5, 7, 17, 19, 73)),
        (3215031751, (151, 751, 28351)),  # strong pseudoprime to bases 2, 3, 5, 7
        (25326001, (2251, 11251)),  # to bases 2, 3, 5; from here every prime > TRIAL_LIMIT
        (2152302898747, (6763, 10627, 29947)),  # 2 to 11
        (3474749660383, (1303, 16927, 157543)),  # 2 to 13
        (341550071728321, (10670053, 32010157)),  # 2 to 17
        (3825123056546413051, (149491, 747451, 34233211)),  # 2 to 23
        (318665857834031151167461, (399165290221, 798330580441)),  # 2 to 37
    ],
)
def test_factor_splits_pseudoprimes(n, primes):
    assert math.prod(primes) == n and all(map(is_prime_by_trial, primes))
    assert factor(n) == tuple((p, 1) for p in primes)


def test_factor_of_primes_up_to_the_proven_bound():
    assert _BASES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in _BASES:
        assert factor(a) == ((a, 1),)
    for p in (2**31 - 1, 2**61 - 1, 10**18 + 3):
        assert factor(p) == ((p, 1),)
    assert factor(2 * (10**18 + 3)) == ((2, 1), (10**18 + 3, 1))
    # the least strong pseudoprime to all 13 bases, 1287836182261 *
    # 2575672364521, is the bound: at or above it a probable prime is refused
    assert PROVEN_BOUND == 3317044064679887385961981 == 1287836182261 * 2575672364521
    with pytest.raises(BudgetExceeded, match=f"^budget exceeded: probable prime {PROVEN_BOUND} "):
        factor(PROVEN_BOUND)


def test_factor_refuses_past_its_rho_budget():
    # 3999971 * 4000037 and 4000037^2 needed trial divisors past 4*10^6
    p, q = 3999971, 4000037
    assert factor(p * q) == ((p, 1), (q, 1)) and factor(q * q) == ((q, 2),)
    # 2^89 - 1 is prime, above the proven bound, so it is refused as unproven
    m89 = 2**89 - 1
    with pytest.raises(BudgetExceeded, match=f"^budget exceeded: probable prime {m89} of factor\\({m89}\\) >"):
        factor(m89)
    with pytest.raises(BudgetExceeded, match=f"probable prime {m89} of factor\\({6 * m89}\\)"):
        factor(6 * m89)
    # both primes near 10^13: rho would need some sqrt(10^13) > RHO_BUDGET squarings
    p, q = 10**13 + 37, 2 * 10**13 + 21
    assert is_prime_by_trial(p) and is_prime_by_trial(q)
    message = f"^budget exceeded: modular squarings for factor\\({p * q}\\) > {RHO_BUDGET}$"
    with pytest.raises(BudgetExceeded, match=message):
        factor(p * q)


def test_factor_refuses_a_refused_n_again_at_once():
    n = (10**13 + 37) * (2 * 10**13 + 21)
    with pytest.raises(BudgetExceeded) as first:
        factor(n)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as again:
        factor(n)
    assert time.perf_counter() - start < 0.01
    assert str(again.value) == str(first.value)
    assert str(again.value) == f"budget exceeded: modular squarings for factor({n}) > {RHO_BUDGET}"
    # the answers stay in the lru_cache, which the benchmark reads
    assert factor.cache_info().maxsize is None


@pytest.mark.parametrize(
    "base, k",
    [(10**18 + 3, 3), (10**18 + 3, 6), (10**13 + 37, 2), (2**61 - 1, 5), (1000003, 31),
     (1009 * 10**18 + 3027, 2)],
)
def test_factor_splits_perfect_powers(base, k):
    # rho would need about sqrt(p) squarings modulo p**k for the prime p
    # near 10^13 or 10^18; an exact k-th root takes no budget
    want = dict(factor(base))
    start = time.perf_counter()
    got = factor(base**k * 6)
    assert time.perf_counter() - start < 0.5
    assert got == tuple(sorted({2: 1, 3: 1, **{p: e * k for p, e in want.items()}}.items()))
    assert factor(base**k) == tuple((p, e * k) for p, e in want.items())


def test_factor_power_test_bounds_k_by_the_trial_limit():
    # a piece's primes exceed TRIAL_LIMIT >= 2**9, so a piece of b bits is at
    # most a (b // 9)-th power; the smallest such prime at the largest k
    p = next(q for q in range(TRIAL_LIMIT + 1, 2 * TRIAL_LIMIT) if is_prime_by_trial(q))
    for k in (2, 3, 5, 7, 31, 101):
        assert (p**k).bit_length() // 9 >= k and _root(p**k) == p
    q = next(q for q in range(p + 1, 2 * p) if is_prime_by_trial(q))
    assert _root(p * q) is None and _root(p**2 * q) is None


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


def test_frobenius_basis_is_the_totient_quotient():
    # (n/g, euler_phi(n)/euler_phi(n/g)) with g = gcd(m, n), m = 0 included
    for n in range(1, 201):
        for m in range(0, 61):
            g = math.gcd(m, n)
            assert frobenius_basis(m, n) == (n // g, euler_phi(n) // euler_phi(n // g)), (m, n)


def test_frobenius_basis_factors_only_the_gcd():
    # 2^89 - 1 is refused by factor, so any factoring of n or n/g would raise
    big = 2**89 - 1
    with pytest.raises(BudgetExceeded):
        factor(big)
    assert frobenius_basis(2, 2 * big) == (big, 1)
    assert frobenius_basis(12, 8 * big) == (2 * big, 4)
    assert frobenius_basis(5, big) == (big, 1)


def test_an_inexact_frobenius_quotient_raises_under_every_caller(monkeypatch):
    # with euler_phi(2) made 3, F_6 of phi(12 p) divides euler_phi(6) * 2 by 3;
    # the guard is a raise, so python -O cannot remove it
    from cycwitt import arith

    real = arith.euler_phi
    monkeypatch.setattr(arith, "euler_phi", lambda n: 3 if n == 2 else real(n))
    n = 12 * 1_000_003
    for call in (lambda: frobenius_basis(6, n), lambda: ramanujan_sum(n, 6),
                 lambda: witt.frobenius(6, witt.phi(n)), lambda: witt.t_m(6, witt.phi(n))):
        with pytest.raises(ArithmeticError, match=f"inexact F_6 coefficient of phi[(]{n}[)]"):
            call()


@pytest.mark.parametrize("n", [*range(1, 61), 105, 210, 385, 2310])
def test_cyclotomic_binomials_are_the_mobius_divisors(n):
    for top in (0, 1, 2, 5, n - 1, n, n + 3):
        want = [(d, mobius(n // d)) for d in divisors(n) if d <= top and mobius(n // d)]
        assert list(cyclotomic_binomials(n, top)) == want, (n, top)


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no check in the library may be one
    src = Path(witt.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(list(src.glob("*.py"))) >= 9 and found == []


def test_cyclotomic_examples():
    assert cyclotomic_poly(2).reversed_coeffs() == IntPolynomial((1, 1))
    assert cyclotomic_poly(4) == IntPolynomial((1, 0, 1))
    assert cyclotomic_poly(6) == IntPolynomial((1, -1, 1))
    assert cyclotomic_poly(1) == IntPolynomial((-1, 1))


# Phi_105 has a coefficient -2; Phi_385 and Phi_1155 have +-3
@pytest.mark.parametrize("n", [*range(1, 61), 105, 385, 840, 1155, 2310])
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


def _truncated(p, length):
    return [p[i] for i in range(length)]


def _binomial_power(col, e, k):
    # col * (1 - t**e)**k by literal products, with the truncated geometric
    # series 1 + t**e + t**2e + ... as the inverse of 1 - t**e when k < 0
    n = len(col)
    base = IntPolynomial((1,) + (0,) * (e - 1) + (-1,)) if k >= 0 else IntPolynomial(
        [int(i % e == 0) for i in range(n)])
    out = IntPolynomial(col)
    for _ in range(abs(k)):
        out = IntPolynomial(_truncated(out * base, n))
    return _truncated(out, n)


def test_times_binomial_matches_literal_powers():
    rng = random.Random(25)
    branches = set()
    for _ in range(600):
        col = [rng.randint(-9, 9) for _ in range(rng.randint(1, 20))]
        e, k = rng.randint(1, 6), rng.randint(-12, 12)
        branches.add(abs(k) < (len(col) - 1) // e + 1)
        assert times_binomial(col, e, k) == _binomial_power(col, e, k), (col, e, k)
    assert branches == {True, False}


def test_times_cyclotomic_inverts_and_expands_reversed_phi():
    rng = random.Random(26)
    for n in [*range(1, 41), 105, 210, 385]:
        length = euler_phi(n) + 6
        rev = cyclotomic_poly(n).reversed_coeffs()
        assert times_cyclotomic([1] + [0] * (length - 1), n, 1) == _truncated(rev, length)
        for _ in range(3):
            col = [rng.randint(-9, 9) for _ in range(rng.randint(1, 20))]
            k = rng.randint(-12, 12)
            assert times_cyclotomic(times_cyclotomic(col, n, k), n, -k) == col, (col, n, k)


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
        assert divmod(prod, b) == (a, IntPolynomial())


def test_poly_divexact_raises_on_remainder():
    q, r = divmod(IntPolynomial((1, 1, 1)), IntPolynomial((1, 1)))
    assert (q, r) == (IntPolynomial((0, 1)), IntPolynomial((1,)))
    assert q * IntPolynomial((1, 1)) + r == IntPolynomial((1, 1, 1))
    with pytest.raises(ArithmeticError):
        divmod(IntPolynomial((1, 1)), IntPolynomial((1, 2)))


def test_poly_pretty():
    assert IntPolynomial((1, -1, 1)).pretty() == "1 - t + t^2"
    assert IntPolynomial(()).pretty() == "0"
    assert IntPolynomial((0, 2)).pretty("x") == "2*x"


_Z6 = tables.FiniteCRig.zmod(6)
# every result class: constructor arguments, then a field and another value for it
_RECORDS = [
    (witt.ParsevalReport, (12,), "pairs_checked", 1),
    (characters.ZetaReport, (2, 3, 100, 1e-6, 0.5, 0.5, 1e-4), "tol", 1e-9),
    (linalg.SpectrumVerdict, ("unit_roots", ((1, 2),), 1), "witness", (1, 3)),
    (lambda_ops.GammaFiltration, (6, 2, (1, 2, 3, 6), []), "depth", 3),
    (lambda_ops.GradedReport, (6, 2, 3), "lambda_checked", 1),
    (rigs.LawReport, ("boolean", True), "cases", 5),
    (rigs.PropLawReport, ("boolean",), "failures", [("law", ())]),
    (matrices.SectionsReport, (2, 2, 1), "counterexample", matrices.IntMatrix([[2]])),
    (spectra.Ideal, (_Z6, frozenset({0})), "elements", frozenset({0, 3})),
    (spectra.SpecSpace, (_Z6, ()), "primes", (frozenset({0, 2, 4}),)),
    (spectra.Localization, (_Z6, frozenset({1}), _Z6, {}), "denominators", frozenset({1, 5})),
    (spectra.Theorem1Report, ("zmod:6", 2), "local_families", 1),
]
_RECORD_IDS = [cls.__name__ for cls, *_ in _RECORDS]


@pytest.mark.parametrize("cls,args,name,other", _RECORDS, ids=_RECORD_IDS)
def test_record_compares_field_by_field(cls, args, name, other):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    fields = {f: getattr(a, f) for f in cls._fields}
    assert cls(**fields) == a  # every field is a keyword of the constructor
    assert cls(**{**fields, name: other}) != a
    assert a != type("Copy", (cls,), {})(*args)
    assert a != tuple(fields.values())
    assert repr(a).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls,args,name,other", _RECORDS, ids=_RECORD_IDS)
def test_record_hashing_and_mutability(cls, args, name, other):
    a, b = cls(*args), cls(*args)
    if issubclass(cls, FrozenRecord):
        with pytest.raises(AttributeError):
            setattr(a, name, other)
        with pytest.raises(AttributeError):
            delattr(a, name)
        if cls is spectra.Localization:  # its class table is a dict
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, name, other)
        assert getattr(a, name) == other and a != b
    for f in cls._fields[len(args):]:  # a default list is fresh for each instance
        if isinstance(getattr(b, f), list):
            assert getattr(b, f) is not getattr(cls(*args), f)


@pytest.mark.parametrize("cls,args,name,other", _RECORDS, ids=_RECORD_IDS)
def test_record_constructor_refusals(cls, args, name, other):
    fields = {f: getattr(cls(*args), f) for f in cls._fields}
    first = cls._fields[0]  # required in every record
    with pytest.raises(TypeError):
        cls(*fields.values(), other)  # one positional argument too many
    with pytest.raises(TypeError):
        cls(*args, no_such_field=other)
    with pytest.raises(TypeError):
        cls(*args, **{first: args[0]})  # given positionally and by keyword
    with pytest.raises(TypeError):
        cls(**{f: v for f, v in fields.items() if f != first})
    with pytest.raises(TypeError):
        cls()


_LIBRARY_RECORDS = [
    cls for mod in (witt, characters, linalg, lambda_ops, matrices, rigs, tables, spectra)
    for cls in vars(mod).values()
    if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == mod.__name__
]


def test_record_defaults_name_fields():
    assert {cls for cls, *_ in _RECORDS} <= set(_LIBRARY_RECORDS)
    for cls in _LIBRARY_RECORDS:
        assert set(cls._defaults) <= set(cls._fields), cls


@pytest.mark.parametrize("cls,args,name,other", _RECORDS, ids=_RECORD_IDS)
def test_record_fields_without_defaults_are_required(cls, args, name, other):
    fields = {f: getattr(cls(*args), f) for f in cls._fields}
    for f in cls._fields:
        rest = {g: v for g, v in fields.items() if g != f}
        if f in cls._defaults:
            assert getattr(cls(**rest), f) == cls._defaults[f]
        else:
            with pytest.raises(TypeError, match=f"missing required argument '{f}'"):
                cls(**rest)


def test_record_defaults_and_repr():
    verdict = linalg.SpectrumVerdict("outside", witness=(1, 3))
    assert (verdict.factors, verdict.nilpotent, verdict.witness) == ((), 0, (1, 3))
    assert not verdict.ok
    report = spectra.Theorem1Report("zmod:6", 0)
    assert report.opens == () and report.failures == [] and report.ok
    assert not spectra.Theorem1Report("zmod:6", 0, failures=[("operations disagree", 0, 0)]).ok
    assert repr(witt.ParsevalReport(12)) == "ParsevalReport(N=12, pairs_checked=0, failures=[])"
    assert repr(verdict) == (
        "SpectrumVerdict(status='outside', factors=(), nilpotent=0, witness=(1, 3))"
    )

