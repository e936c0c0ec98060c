import math

import pytest
from hypothesis import given, strategies as st

from cycwitt import lambda_ops, linalg, rigs, spectra, witt
from cycwitt.arith import (
    FACTOR_BUDGET,
    BudgetExceeded,
    FrozenRecord,
    IntPolynomial,
    Record,
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


_Z6 = rigs.FiniteCRig.zmod(6)
# every result class: constructor arguments, then a field and another value for it
_RECORDS = [
    (witt.ParsevalReport, (12,), "pairs_checked", 1),
    (witt.ZetaReport, (2, 3, 100, 1e-6, 0.5, 0.5, 1e-4), "tol", 1e-9),
    (linalg.SpectrumVerdict, ("unit_roots", ((1, 2),), 1), "witness", (1, 3)),
    (lambda_ops.GammaFiltration, (6, 2, (1, 2, 3, 6), []), "depth", 3),
    (lambda_ops.GradedReport, (6, 2, 3), "lambda_checked", 1),
    (rigs.LawReport, ("boolean", True), "cases", 5),
    (rigs.PropLawReport, ("boolean",), "failures", [("law", ())]),
    (rigs.SectionsReport, (2, 2, 1), "counterexample", linalg.IntMatrix([[2]])),
    (spectra.Ideal, (_Z6, frozenset({0})), "elements", frozenset({0, 3})),
    (spectra.SpecSpace, (_Z6, ()), "primes", (frozenset({0, 2, 4}),)),
    (spectra.Localization, (_Z6, frozenset({1}), _Z6, {}), "denominators", frozenset({1, 5})),
    (spectra.Theorem1Report, ("zmod:6", 2), "empty_case", True),
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
    cls for mod in (witt, linalg, lambda_ops, rigs, spectra) for cls in vars(mod).values()
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
    report = spectra.Theorem1Report("zmod:6", 0, empty_case=True)
    assert report.empty_case and report.failures == [] and not report.ok
    assert repr(witt.ParsevalReport(12)) == "ParsevalReport(N=12, pairs_checked=0, failures=[])"
    assert repr(verdict) == (
        "SpectrumVerdict(status='outside', factors=(), nilpotent=0, witness=(1, 3))"
    )

