import itertools
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

import cycwitt
from cycwitt import linalg
from cycwitt.arith import NotUnitSpectrum, cyclotomic_poly, euler_phi
from cycwitt.linalg import (
    charpoly_rev,
    companion,
    hnf,
    SpectrumVerdict,
    spectrum_in_unit_disc,
    witt_class,
)
from cycwitt.matrices import (
    IntMatrix,
    IntRig,
    RigMatrix,
    contraction_le_one,
    direct_sum,
    format_matrix,
    kronecker,
    mat_compose,
    parse_matrix,
)
from cycwitt.poly import IntPolynomial
from cycwitt.witt import ONE, frobenius, mul, phi, trace

from oracles import companion_blocks

SRC = str(Path(cycwitt.__file__).resolve().parent.parent)


def test_matrix_parse_format_roundtrip():
    a = parse_matrix("0,-1;1,1")
    assert a.entries == ((0, -1), (1, 1))
    assert format_matrix(a) == "0,-1;1,1"
    with pytest.raises(ValueError):
        parse_matrix("1,2;3")


def test_hnf_examples():
    ident = hnf([[1, 0], [0, 1]])
    assert ident.basis == ((1, 0), (0, 1))
    assert hnf([[2, 0], [0, 3]]).basis == ((2, 0), (0, 3))
    assert hnf([[2, 4], [4, 2]]).basis == ((2, 4), (0, 6))


def test_hnf_idempotent_and_inclusion_antisymmetric():
    rng = random.Random(2)
    for _ in range(30):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        lat = hnf(rows, ambient=5)
        assert hnf(lat.basis, ambient=5) == lat
        other = hnf(rows + [[rng.randint(-9, 9) for _ in range(5)]], ambient=5)
        if all(map(lat.contains, other.basis)) and all(map(other.contains, lat.basis)):
            assert lat == other


def test_hnf_membership():
    lat = hnf([[2, 4], [4, 2]])
    assert lat.contains([2, 4])
    assert lat.contains([6, 6])
    assert not lat.contains([1, 1])
    assert not lat.contains([2, 3])
    assert lat.contains([0, 0])


def _oneshot_hnf(generators, ambient: int | None = None) -> linalg.HnfLattice:
    """The elimination hnf ran before it kept only live rows, verbatim:
    every row below the pivot is reduced on every pass.  The oracle."""
    gens = [list(g) for g in generators]
    if ambient is None:
        if not gens:
            raise ValueError("need either generators or an explicit ambient rank")
        ambient = len(gens[0])
    if any(len(g) != ambient for g in gens):
        raise ValueError("generators of mixed length")
    mat = [g for g in gens if any(g)]
    m = len(mat)
    pivot_row = 0
    for col in range(ambient):
        while True:
            nz = [i for i in range(pivot_row, m) if mat[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][col]))
            mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
            piv = mat[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, m):
                q = mat[i][col] // piv
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
                if mat[i][col]:
                    done = False
            if done:
                break
        if nz:
            if mat[pivot_row][col] < 0:
                mat[pivot_row] = [-x for x in mat[pivot_row]]
            piv = mat[pivot_row][col]
            for i in range(pivot_row):
                q = mat[i][col] // piv  # floor keeps entries in [0, piv)
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
            pivot_row += 1
            if pivot_row == m:
                break
    return linalg.HnfLattice(ambient, mat[:pivot_row])


def _hnf_generator_sets():
    # duplicates, zero rows, negated rows, entries above 2**64, rank-deficient
    # sets (combinations of fewer rows than columns), up to 12 columns and
    # 300 or more rows
    rng = random.Random(19)
    for i in range(240):
        cols = rng.randint(1, 12)
        size = rng.choice((1, 9, 2**70))
        rank = rng.randint(1, cols) if i % 3 else rng.randint(1, max(1, cols - 1))
        base = [[rng.randint(-size, size) if rng.random() < 0.7 else 0 for _ in range(cols)]
                for _ in range(rank)]
        count = 300 + rng.randint(0, 40) if i % 40 == 0 else rng.randint(0, 30)
        rows = [[sum(rng.randint(-3, 3) * b[j] for b in base) for j in range(cols)]
                for _ in range(count)]
        for _ in range(rng.randint(0, 4)):
            if rows:
                row = rng.choice(rows)
                rows.insert(rng.randint(0, len(rows)), rng.choice((row, [-x for x in row])))
            rows.insert(rng.randint(0, len(rows)), [0] * cols)
        yield rows, cols


def test_hnf_matches_oneshot_elimination():
    sets = list(_hnf_generator_sets())
    assert len(sets) >= 200 and sum(len(rows) >= 300 for rows, _ in sets) >= 5
    assert any(abs(x) > 2**64 for rows, _ in sets for row in rows for x in row)
    deficient = 0
    for rows, cols in sets:
        lat = hnf(rows, ambient=cols)
        assert lat == _oneshot_hnf(rows, ambient=cols), rows
        deficient += lat.rank < cols
        if rows:
            assert hnf(rows) == lat
    assert deficient >= 50
    for r in range(1, 13):
        assert hnf([], ambient=r) == _oneshot_hnf([], ambient=r) == linalg.HnfLattice(r, [])
    for bad in ([], [[1, 2], [3]]):
        with pytest.raises(ValueError) as old:
            _oneshot_hnf(bad)
        with pytest.raises(ValueError) as new:
            hnf(bad)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("level,depth", [(60, 2), (48, 3)])
def test_hnf_matches_oneshot_on_gamma_filtration_spans(level, depth, monkeypatch):
    from cycwitt import lambda_ops, poly

    inputs = []

    def recording(generators, ambient=None):
        gens = [list(g) for g in generators]
        inputs.append((gens, ambient))
        return hnf(gens, ambient)

    monkeypatch.setattr(lambda_ops, "hnf", recording)
    lambda_ops._atom_column.cache_clear()
    poly._cyclotomic_factors.cache_clear()
    lambda_ops._SPANS.clear()
    lambda_ops.gamma_filtration(level, depth)
    assert len(inputs) > depth
    for gens, ambient in inputs:
        assert hnf(gens, ambient) == _oneshot_hnf(gens, ambient)
    # the same hnf work once filtrations at other levels have filled the
    # column and factor caches: every column of the level is one of 2*level
    cold = inputs[:]
    for other in (12, 2 * level):
        lambda_ops.gamma_filtration(other, depth)
    misses = lambda_ops._atom_column.cache_info().misses
    inputs.clear()
    lambda_ops._SPANS.clear()  # else the level's S_t forms are read, not formed again
    lambda_ops.gamma_filtration(level, depth)
    assert lambda_ops._atom_column.cache_info().misses == misses and inputs == cold


def _laplace_det(cells):
    # independent reference determinant over polynomial entries
    n = len(cells)
    if n == 0:
        return IntPolynomial((1,))
    if n == 1:
        return cells[0][0]
    out = IntPolynomial()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in cells[1:]]
        term = cells[0][j] * _laplace_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def test_charpoly_examples():
    assert charpoly_rev(IntMatrix([[0] * 3] * 3)) == IntPolynomial((1,))
    assert charpoly_rev(IntMatrix([[0, 1], [1, 0]])) == IntPolynomial((1, 0, -1))
    c6 = companion(cyclotomic_poly(6))
    assert c6 == IntMatrix([[0, -1], [1, 1]])
    assert charpoly_rev(c6) == IntPolynomial((1, -1, 1))


def _singular_matrices(rng):
    # det(1 - x*A) has degree < n for these: nilpotent, rank-deficient
    yield IntMatrix([[rng.randint(-4, 4) if j > i else 0 for j in range(5)] for i in range(5)])
    u = [rng.randint(-3, 3) for _ in range(6)]
    w = [rng.randint(-3, 3) for _ in range(6)]
    yield IntMatrix([[x * y for y in w] for x in u])
    for n in (3, 4, 5, 6):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        yield IntMatrix(rows + [[x + y for x, y in zip(rows[0], rows[-1])]])
        cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        yield IntMatrix([row[:-1] + [0] for row in cols])
    yield IntMatrix([[0] * 4] * 4)


def test_charpoly_against_laplace_expansion():
    rng = random.Random(4)
    mats = []
    for _ in range(40):
        n = rng.randint(1, 6)
        mats.append(IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]))
    mats += list(_singular_matrices(rng))
    for a in mats:
        n = a.rows
        cells = [
            [
                IntPolynomial(((1 if i == j else 0), -a[i][j]))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert charpoly_rev(a) == _laplace_det(cells)
    assert any(charpoly_rev(a).degree < a.rows for a in mats)


def _permuted(rng, a):
    # P A P^-1 for a random permutation P: same determinant, blocks scattered
    p = list(range(a.rows))
    rng.shuffle(p)
    return IntMatrix([[a[i][j] for j in p] for i in p])


def _conjugated(rng, a):
    # E A E^-1 over 5n/2 random transvections E = 1 + c*e_ij: dense, small entries
    m = [list(row) for row in a.entries]
    for _ in range(5 * len(m) // 2):
        i, j = rng.sample(range(len(m)), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return IntMatrix(m)


def _unit(rng, n):
    indices, total = [], 0
    while total < n:
        d = rng.choice([d for d in range(1, 31) if euler_phi(d) <= n - total])
        indices.append(d)
        total += euler_phi(d)
    return _conjugated(rng, companion_blocks(indices))


def _dense(rng, n):
    return IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def _nilpotent(rng, n):
    strict = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
    return _conjugated(rng, IntMatrix(strict))


def _block_triangular(rng):
    x, z = _dense(rng, 7), _unit(rng, 8)
    top = [list(row) + [rng.randint(-2, 2) for _ in range(8)] for row in x.entries]
    return _permuted(rng, IntMatrix(top + [[0] * 7 + list(row) for row in z.entries]))


def _zero_lines(rng):
    m = [list(row) for row in _dense(rng, 14).entries]
    for i in rng.sample(range(14), 3):
        m[i] = [0] * 14
    for j in rng.sample(range(14), 3):
        for row in m:
            row[j] = 0
    return IntMatrix(m)


# Inputs of the benchmark's dimensions (12 to 20), each built from a seed.
_BENCHMARK_SIZES = {
    "conjugated": lambda rng: _unit(rng, 16),
    "dense": lambda rng: _dense(rng, 20),
    "hidden-sum": lambda rng: _permuted(
        rng, reduce(direct_sum, [_unit(rng, 5), _dense(rng, 4), _unit(rng, 7), _nilpotent(rng, 3)])
    ),
    "block-triangular": _block_triangular,
    "zero-rows-and-columns": _zero_lines,
    "nilpotent-blocks": lambda rng: _permuted(
        rng, reduce(direct_sum, [_nilpotent(rng, 6), _unit(rng, 6), _nilpotent(rng, 4)])
    ),
    "sixth-power": lambda rng: _dense(rng, 12) ** 6,
}


def _fraction_det(rows):
    # independent reference: Gaussian elimination over the rationals
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@pytest.mark.parametrize("kind", list(_BENCHMARK_SIZES))
def test_charpoly_against_fraction_elimination_at_benchmark_sizes(kind):
    a = _BENCHMARK_SIZES[kind](random.Random(list(_BENCHMARK_SIZES).index(kind)))
    n = a.rows
    assert 12 <= n <= 20
    p = charpoly_rev(a)
    assert p.degree <= n
    # n + 1 points pin a polynomial of degree <= n
    for k in range(n + 1):
        one_minus_ka = [
            [int(i == j) - k * x for j, x in enumerate(row)] for i, row in enumerate(a.entries)
        ]
        assert p(k) == _fraction_det(one_minus_ka), (kind, k)


def test_charpoly_multiplicative_on_blocks():
    # the blocks are scattered by a permutation, so the split has to find them
    rng = random.Random(8)
    for _ in range(15):
        a = _dense(rng, 2)
        b = _dense(rng, 3)
        c = _nilpotent(rng, 3)
        hidden = _permuted(rng, direct_sum(direct_sum(a, b), c))
        assert charpoly_rev(hidden) == charpoly_rev(a) * charpoly_rev(b)
        assert charpoly_rev(_permuted(rng, direct_sum(b, a))) == charpoly_rev(a) * charpoly_rev(b)


def _parent_berkowitz(m) -> list[int]:
    # the dot-product kernel that the packed Krylov steps replaced, kept verbatim
    mul = operator.mul
    poly = [1]
    for k in range(len(m)):
        # map stops at the shorter operand, so the full rows m[i] act as
        # their leading k entries against a k-vector
        rows, r = m[:k], m[k]
        v = [row[k] for row in rows]
        t = [1, -r[k]]
        for j in range(k):
            if j:
                v = [sum(map(mul, row, v)) for row in rows]
            t.append(-sum(map(mul, r, v)))
        t.reverse()
        # poly has k + 1 coefficients: entry i of the product pairs poly[j]
        # with t[i - j], which the reversed t holds at k + 1 - i + j
        poly = [sum(map(mul, t[k + 1 - i:], poly)) for i in range(k + 2)]
    return poly


def _count_packed_steps(monkeypatch) -> list:
    # every packed Krylov step unpacks its product through one memoryview
    views = []

    def counted(obj):
        views.append(obj)
        return memoryview(obj)

    monkeypatch.setattr(linalg, "memoryview", counted, raising=False)
    return views


def _krylov_steps(n):
    # step k of an n x n block forms k - 1 products A_k v
    return sum(range(n - 1))


def test_packed_berkowitz_matches_dot_products_on_dense_matrices(monkeypatch):
    views = _count_packed_steps(monkeypatch)
    rng = random.Random(17)
    for n in list(range(25)) * 2:
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert linalg._berkowitz(m) == _parent_berkowitz(m), m
    # small entries keep the early products of every step inside 64-bit slots
    assert len(views) > 2 * _krylov_steps(12)


def _expanding(rng, n):
    # a conjugated companion of x^n - 40x^(n-1) - 1, whose root near 40 makes
    # the Krylov vectors grow about 40-fold per product
    return _conjugated(rng, companion(IntPolynomial((-1,) + (0,) * (n - 2) + (-40, 1))))


def test_packed_berkowitz_falls_back_when_a_slot_could_overflow(monkeypatch):
    views = _count_packed_steps(monkeypatch)
    a = _expanding(random.Random(3), 20)
    m = [list(row) for row in a.entries]
    p = linalg._berkowitz(m)
    # the guard trips midway: the early steps pack, the late products do not
    assert 0 < len(views) < _krylov_steps(20)
    assert p == _parent_berkowitz(m)
    # n + 1 points pin a polynomial of degree <= n
    p = IntPolynomial(p)
    for k in range(21):
        one_minus_ka = [[int(i == j) - k * x for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert p(k) == _fraction_det(one_minus_ka), k
    assert charpoly_rev(a) == p


def test_packed_berkowitz_never_packs_entries_of_2_to_the_62(monkeypatch):
    views = _count_packed_steps(monkeypatch)
    rng = random.Random(5)
    for n in (2, 3, 6, 9):
        m = [[rng.choice((-1, 1)) * (2**62 + rng.randint(0, 99)) for _ in range(n)]
             for _ in range(n)]
        assert linalg._berkowitz(m) == _parent_berkowitz(m)
    assert views == []


def test_packed_berkowitz_edge_shapes():
    rng = random.Random(6)
    cases = [[], [[5]], [[0]], [[0] * 4 for _ in range(4)]]
    for _ in range(10):
        blocks = [_dense(rng, 3), _unit(rng, 5), _nilpotent(rng, 4), _expanding(rng, 6)]
        cases.append(_permuted(rng, reduce(direct_sum, blocks)).entries)
    for m in cases:
        m = [list(row) for row in m]
        want = _parent_berkowitz(m)
        assert linalg._berkowitz(m) == want
        assert charpoly_rev(IntMatrix(m)) == IntPolynomial(want)


def test_contraction_examples():
    assert contraction_le_one(IntMatrix([[1, 0], [0, 0]]))
    assert not contraction_le_one(IntMatrix([[1, 1]]))
    assert not contraction_le_one(IntMatrix([[1], [1]]))
    assert contraction_le_one(IntMatrix([[0, 1], [-1, 0]]))
    assert contraction_le_one(IntMatrix([[0] * 3] * 2))
    assert not contraction_le_one(IntMatrix([[2]]))


def _psd_by_pivoting(a):
    """Reference: the rational pivoting test of 1 - A^T A alone."""
    n = a.cols
    g = [[Fraction(int(i == j) - sum(a[k][i] * a[k][j] for k in range(a.rows)))
          for j in range(n)] for i in range(n)]
    for i in range(n):
        d = g[i][i]
        if d < 0 or (d == 0 and any(g[i][j] for j in range(i + 1, n))):
            return False
        for r in range(i + 1, n):
            if d:
                f = g[r][i] / d
                for c in range(i + 1, n):
                    g[r][c] -= f * g[i][c]
    return True


def test_contraction_matches_pivoting_alone():
    shapes = [(2, 2, 2), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)]
    for n, m, bound in shapes:
        for flat in itertools.product(range(-bound, bound + 1), repeat=n * m):
            a = IntMatrix([flat[i * m : (i + 1) * m] for i in range(n)])
            assert contraction_le_one(a) == _psd_by_pivoting(a), a


def test_spectrum_examples():
    v = spectrum_in_unit_disc(IntMatrix([[0, 1], [1, 0]]))
    assert v.ok and v.factors == ((1, 1), (2, 1)) and v.nilpotent == 0
    v = spectrum_in_unit_disc(IntMatrix([[2]]))
    assert v.status == "outside" and v.witness == (1, 2)
    v = spectrum_in_unit_disc(IntMatrix([[0, 1], [0, 0]]))
    assert v.ok and v.factors == () and v.nilpotent == 2


def test_cyclo_candidates_match_the_totient_scan():
    # every d with euler_phi(d) <= deg lies below 2*deg**2 + 2, since
    # euler_phi(d) >= sqrt(d/2): the scan that the inverse totient replaces
    for deg in range(61):
        scan = tuple((d, euler_phi(d)) for d in range(1, 2 * deg * deg + 2) if euler_phi(d) <= deg)
        assert linalg._cyclo_candidates(deg) == scan, deg
    assert linalg._cyclo_candidates(0) == ()
    assert linalg._cyclo_candidates(2) == ((1, 1), (2, 1), (3, 2), (4, 2), (6, 2))


LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


@pytest.mark.parametrize(
    "a",
    [
        IntMatrix([[2]]),
        IntMatrix([[-3, 0], [0, 1]]),
        IntMatrix([[0, -1], [1, 3]]),
        IntMatrix([[1, 1], [1, 0]]),
        companion(LEHMER),
        direct_sum(companion(LEHMER), companion_blocks((3, 4))),
        companion(IntPolynomial((-1, -1, 0, 1))),  # x^3 - x - 1, smallest Pisot root
        direct_sum(IntMatrix([[0, 1], [0, 0]]), IntMatrix([[2, 1], [1, 1]])),
    ],
)
def test_outside_witness_is_least_growing_trace(a):
    v = spectrum_in_unit_disc(a)
    assert v.status == "outside" and not v.ok
    k, tr = v.witness
    assert (a**k).trace() == tr and abs(tr) > a.rows
    assert all(abs((a**j).trace()) <= a.rows for j in range(1, k))


def test_lehmer_witness():
    assert spectrum_in_unit_disc(companion(LEHMER)).witness == (13, 12)


def _spectrum_by_long_division(a):
    """The unit-disc verdict by IntPolynomial long division of the monic
    char(A) by each candidate Phi_d: the oracle for the series division."""
    rev = charpoly_rev(a)
    mono = rev.reversed_coeffs()
    factors = {}
    for d, _ in linalg._cyclo_candidates(mono.degree):
        if mono.degree < 1:
            break
        phi_d = cyclotomic_poly(d)
        while mono.degree >= phi_d.degree:
            q, r = divmod(mono, phi_d)
            if not r.is_zero():
                break
            factors[d] = factors.get(d, 0) + 1
            mono = q
    if mono == IntPolynomial((1,)):
        return SpectrumVerdict("unit_roots", tuple(sorted(factors.items())), a.rows - rev.degree)
    return SpectrumVerdict("outside", witness=linalg._growth_witness(rev, a.rows))


# the expanding companions of x^2 - 3x + 1 and x^3 - x - 1
_EXPANDING = (companion(IntPolynomial((1, -3, 1))), companion(IntPolynomial((-1, -1, 0, 1))))


def _block_sum(rng, n):
    # companion blocks of Phi_d, d < 300, filling dimension n
    indices, total = [], 0
    while total < n:
        indices.append(rng.choice([d for d in range(1, 300) if euler_phi(d) <= n - total]))
        total += euler_phi(indices[-1])
    return companion_blocks(indices)


_SPECTRUM_CASES = {
    "block-sum": lambda rng: _block_sum(rng, rng.randint(1, 100)),
    "conjugate": lambda rng: _conjugated(rng, _block_sum(rng, rng.choice((8, 16, 30, 45)))),
    # conjugated by a unimodular matrix of two dense 50 x 50 blocks, then permuted
    "conjugate-100": lambda rng: _permuted(rng, direct_sum(
        _conjugated(rng, _block_sum(rng, 50)), _conjugated(rng, _block_sum(rng, 50)))),
    "expanding": lambda rng: _permuted(
        rng, direct_sum(_block_sum(rng, rng.randint(1, 90)), rng.choice(_EXPANDING))
    ),
    "expanding-conjugate": lambda rng: _conjugated(
        rng, direct_sum(_block_sum(rng, rng.randint(1, 20)), rng.choice(_EXPANDING))
    ),
    "nilpotent-padding": lambda rng: _permuted(
        rng, direct_sum(_block_sum(rng, rng.randint(1, 90)), _nilpotent(rng, rng.randint(2, 10)))
    ),
    "expanding-nilpotent-conjugate": lambda rng: _conjugated(rng, reduce(direct_sum, [
        _block_sum(rng, 12), rng.choice(_EXPANDING), _nilpotent(rng, 4)])),
}


@pytest.mark.parametrize("kind", list(_SPECTRUM_CASES))
def test_series_division_matches_long_division(kind):
    rng = random.Random(list(_SPECTRUM_CASES).index(kind))
    for _ in range(3 if kind == "conjugate-100" else 12):
        a = _SPECTRUM_CASES[kind](rng)
        assert a.rows <= 100
        want = _spectrum_by_long_division(a)
        assert spectrum_in_unit_disc(a) == want, (kind, format_matrix(a))
        assert want.ok == ("expanding" not in kind)


def test_witt_class_examples():
    assert witt_class(IntMatrix.identity(2)) == 2 * ONE
    assert witt_class(IntMatrix([[0, 1], [1, 0]])) == ONE + phi(2)
    assert witt_class(companion(cyclotomic_poly(6))) == phi(6)
    with pytest.raises(NotUnitSpectrum):
        witt_class(IntMatrix([[2]]))
    nil = IntMatrix([[0, 1], [0, 0]])
    assert witt_class(nil) == phi(1) * 0


def test_bridge_small_sample():
    for da, db in itertools.product([(1,), (2, 3), (4,), (6, 1)], repeat=2):
        a, b = companion_blocks(da), companion_blocks(db)
        assert witt_class(direct_sum(a, b)) == witt_class(a) + witt_class(b)
        assert witt_class(kronecker(a, b)) == mul(witt_class(a), witt_class(b))
    a = companion_blocks((4, 3))
    for m in range(1, 7):
        assert witt_class(a**m) == frobenius(m, witt_class(a))


def test_trace_agrees_with_matrix_trace():
    for ds in [(1,), (2,), (6,), (1, 2, 4), (5, 12)]:
        a = companion_blocks(ds)
        assert trace(witt_class(a)) == a.trace()


def test_int_matrix_is_the_rig_matrix_over_the_integers():
    rng = random.Random(5)

    def rand(n, m):
        return IntMatrix([[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])

    for n, k, m in itertools.product(range(4), repeat=3):
        a = rand(n, k)
        b = rand(a.cols, m)  # no rows means no columns
        want = [
            [sum(a[i][t] * b[t][j] for t in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert a * b == IntMatrix(want), (a, b)
        for c in (a * b, direct_sum(a, b), kronecker(a, b)):
            assert type(c) is IntMatrix
        rows = [list(r) for r in a.entries]
        assert a == RigMatrix(IntRig(), rows) and hash(a) == hash(RigMatrix(IntRig(), rows))
    sq = rand(3, 3)
    for c in (sq**0, sq**3, IntMatrix.identity(3), mat_compose(sq, sq)):
        assert type(c) is IntMatrix
    assert sq**3 == sq * sq * sq


def test_linalg_does_not_import_rigs():
    # linalg and rigs share only the matrix core in matrices; an import of
    # rigs here would make every user of integer matrices or the Witt ring
    # load and compile rig code it never runs
    code = (
        "import sys, cycwitt.linalg, cycwitt.lambda_ops\n"
        "print('cycwitt.rigs' in sys.modules)\n"
    )
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_matrix_power_and_shape_guards():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) ** 2
    with pytest.raises(ValueError):
        charpoly_rev(IntMatrix([[1, 2]]))
    assert IntMatrix([[2]]) ** 0 == IntMatrix.identity(1)
