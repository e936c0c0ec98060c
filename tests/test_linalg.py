import itertools
import random
from fractions import Fraction

import pytest

from cycwitt.arith import IntPolynomial, cyclotomic_poly
from cycwitt.linalg import (
    IntMatrix,
    NotUnitSpectrum,
    charpoly_rev,
    companion,
    companion_blocks,
    contraction_le_one,
    format_matrix,
    hnf,
    parse_matrix,
    spectrum_in_unit_disc,
    witt_class,
)
from cycwitt.witt import ONE, frobenius, mul, phi, trace


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
        if lat.includes(other) and other.includes(lat):
            assert lat == other


def test_hnf_membership():
    lat = hnf([[2, 4], [4, 2]])
    assert lat.contains([2, 4])
    assert lat.contains([6, 6])
    assert not lat.contains([1, 1])
    assert not lat.contains([2, 3])
    assert lat.contains([0, 0])


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
    assert charpoly_rev(IntMatrix.zeros(3, 3)) == IntPolynomial((1,))
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
    yield IntMatrix.zeros(4, 4)


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


def test_charpoly_multiplicative_on_blocks():
    rng = random.Random(8)
    for _ in range(15):
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        b = IntMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        assert charpoly_rev(a.direct_sum(b)) == charpoly_rev(a) * charpoly_rev(b)


def test_contraction_examples():
    assert contraction_le_one(IntMatrix([[1, 0], [0, 0]]))
    assert not contraction_le_one(IntMatrix([[1, 1]]))
    assert not contraction_le_one(IntMatrix([[1], [1]]))
    assert contraction_le_one(IntMatrix([[0, 1], [-1, 0]]))
    assert contraction_le_one(IntMatrix.zeros(2, 3))
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


LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


@pytest.mark.parametrize(
    "a",
    [
        IntMatrix([[2]]),
        IntMatrix([[-3, 0], [0, 1]]),
        IntMatrix([[0, -1], [1, 3]]),
        IntMatrix([[1, 1], [1, 0]]),
        companion(LEHMER),
        companion(LEHMER).direct_sum(companion_blocks((3, 4))),
        companion(IntPolynomial((-1, -1, 0, 1))),  # x^3 - x - 1, smallest Pisot root
        IntMatrix([[0, 1], [0, 0]]).direct_sum(IntMatrix([[2, 1], [1, 1]])),
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


def test_witt_class_examples():
    assert witt_class(IntMatrix.identity(2)) == 2 * ONE
    assert witt_class(IntMatrix([[0, 1], [1, 0]])) == ONE + phi(2)
    assert witt_class(companion(cyclotomic_poly(6))) == phi(6)
    with pytest.raises(NotUnitSpectrum):
        witt_class(IntMatrix([[2]]))
    nil = IntMatrix([[0, 1], [0, 0]])
    assert witt_class(nil) == witt_class(nil, allow_nilpotent=True) == phi(1) * 0
    with pytest.raises(NotUnitSpectrum):
        witt_class(nil, allow_nilpotent=False)


def test_bridge_small_sample():
    for da, db in itertools.product([(1,), (2, 3), (4,), (6, 1)], repeat=2):
        a, b = companion_blocks(da), companion_blocks(db)
        assert witt_class(a.direct_sum(b)) == witt_class(a) + witt_class(b)
        assert witt_class(a.kron(b)) == mul(witt_class(a), witt_class(b))
    a = companion_blocks((4, 3))
    for m in range(1, 7):
        assert witt_class(a**m) == frobenius(m, witt_class(a))


def test_trace_agrees_with_matrix_trace():
    for ds in [(1,), (2,), (6,), (1, 2, 4), (5, 12)]:
        a = companion_blocks(ds)
        assert trace(witt_class(a)) == a.trace()


def test_matrix_power_and_shape_guards():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) ** 2
    with pytest.raises(ValueError):
        charpoly_rev(IntMatrix([[1, 2]]))
    assert IntMatrix([[2]]) ** 0 == IntMatrix.identity(1)
