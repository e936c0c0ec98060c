"""Exact integer matrix algebra on ``matrices.IntMatrix``.

The matrices themselves, with their products, sums, text form and the
exact test for operator norm <= 1, live in ``matrices``.  This module
adds Hermite-normal-form lattices with decidable membership, reversed
characteristic polynomials det(1 - x*A) by Berkowitz's division-free
algorithm (each Krylov product packed into one big integer by Kronecker
substitution whenever its entries provably fit 64-bit slots), and
conversion of unit-spectrum integer matrices to Witt classes. By
Kronecker's theorem an integer matrix whose eigenvalues all lie in the
closed unit disc has characteristic polynomial x**a times a product of
cyclotomics, so the class is read off an exact factorization, by series
division through poly.times_cyclotomic, and a failed factorization
proves an eigenvalue outside the disc.
"""

from __future__ import annotations

import operator
import sys
from functools import lru_cache
from itertools import count

from .arith import FrozenRecord, NotUnitSpectrum
from .matrices import IntMatrix
from .poly import IntPolynomial, times_cyclotomic
from .witt import WittElement

__all__ = [
    "HnfLattice",
    "hnf",
    "charpoly_rev",
    "SpectrumVerdict",
    "spectrum_in_unit_disc",
    "witt_class",
    "companion",
]


class HnfLattice(FrozenRecord):
    """Sublattice of Z^ambient given by a row-style Hermite basis.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), so the basis is canonical and membership is decided by
    exact successive reduction.
    """

    __slots__ = _fields = ("ambient", "basis")

    def __init__(self, ambient: int, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = list(vec)
        if len(v) != self.ambient:
            raise ValueError("vector has wrong length")
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            if v[p] % row[p]:
                return False
            q = v[p] // row[p]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    def __repr__(self):
        return f"HnfLattice(ambient={self.ambient}, rank={self.rank})"


def hnf(generators, ambient: int | None = None) -> HnfLattice:
    """Row-style Hermite normal form of the lattice spanned by the generators.

    Distinct nonzero generators are kept once, in first-seen order.  Per
    column, Euclid runs among the rows nonzero there until one is left, the
    pivot; rows it zeroes go back to the pending rows untested, since one
    that became all zero is nonzero in no later column, never pivots and
    drops out at the end.
    The Hermite form of a lattice is unique (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4.2), so any elimination order gives this basis.
    """
    gens = [tuple(g) for g in generators]
    if ambient is None:
        if not gens:
            raise ValueError("need either generators or an explicit ambient rank")
        ambient = len(gens[0])
    if any(len(g) != ambient for g in gens):
        raise ValueError("generators of mixed length")
    live = list(dict.fromkeys(g for g in gens if any(g)))
    basis = []
    for col in range(ambient):
        nz = [row for row in live if row[col]]
        if not nz:
            continue
        live = [row for row in live if not row[col]]
        while len(nz) > 1:
            piv = min(nz, key=lambda row: abs(row[col]))
            p = piv[col]
            rest = [piv]
            for row in nz:
                if row is not piv:
                    q = row[col] // p
                    row = [a - q * b for a, b in zip(row, piv)]
                    (rest if row[col] else live).append(row)
            nz = rest
        piv = nz[0] if nz[0][col] > 0 else [-x for x in nz[0]]
        for i, row in enumerate(basis):
            q = row[col] // piv[col]  # floor keeps entries in [0, pivot)
            if q:
                basis[i] = [a - q * b for a, b in zip(row, piv)]
        basis.append(piv)
    return HnfLattice(ambient, basis)


# -- characteristic polynomial -----------------------------------------------

def _direct_sum_blocks(m) -> list[list[int]]:
    # connected components of the graph with an edge i-j where m[i][j] or
    # m[j][i] is nonzero: no entry links two components, so a simultaneous
    # permutation makes m block diagonal with these index sets as blocks
    n = len(m)
    seen = [False] * n
    blocks = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        block = [s]
        for i in block:  # block grows while it is read: a breadth-first search
            row = m[i]
            for j in range(n):
                if not seen[j] and (row[j] or m[j][i]):
                    seen[j] = True
                    block.append(j)
        blocks.append(block)
    return blocks


# The largest |slot| a packed Krylov product may hold: the 'q' view reads
# native words from little-endian bytes, so elsewhere nothing packs
_SLOT_MAX = (1 << 63) - 1 if sys.byteorder == "little" else -1


def _berkowitz(m) -> list[int]:
    # det(1 - x*M) as ascending coefficients, trailing zeros kept
    mul = operator.mul
    # a slot of A_k v or r.v is at most max|v| * (the largest row sum of |m|)
    # in absolute value: below 2^63 when max|v| <= cap
    cap = _SLOT_MAX // max([sum(map(abs, row)) for row in m] + [1])
    cols = [0] * len(m)  # column i of rows 0..k, row j in 64-bit slot j
    mask = 0  # 2^63 in each of the k + 1 slots
    poly = [1]
    for k in range(len(m)):
        # map stops at the shorter operand, so the full rows m[i] (and the
        # packed columns) act as their leading k entries against a k-vector
        rows, r = m[:k], m[k]
        cols = [c + (x << 64 * k) for c, x in zip(cols, r)]
        mask |= 1 << 64 * k + 63
        v = [row[k] for row in rows]
        t = [1, -r[k]]
        for _ in range(1, k):
            if -cap <= min(v) and max(v) <= cap:
                # one sum gives A_k v in slots 0..k-1 and r.v in slot k; each
                # slot plus 2^63 lies in [0, 2^64), so no carry crosses a slot,
                # and the xor leaves each slot's 64-bit two's complement
                packed = (sum(map(mul, v, cols)) + mask) ^ mask
                v = memoryview(packed.to_bytes(8 * k + 8, "little")).cast("q").tolist()
                t.append(-v.pop())
            else:
                t.append(-sum(map(mul, r, v)))
                v = [sum(map(mul, row, v)) for row in rows]
        if k:  # the last r.v needs no A_k v
            t.append(-sum(map(mul, r, v)))
        t.reverse()
        # poly has k + 1 coefficients: entry i of the product pairs poly[j]
        # with t[i - j], which the reversed t holds at k + 1 - i + j
        poly = [sum(map(mul, t[k + 1 - i:], poly)) for i in range(k + 2)]
    return poly


def charpoly_rev(a: IntMatrix) -> IntPolynomial:
    """det(1 - x*A) by Berkowitz's division-free algorithm, block by block.

    Constant term 1; degree equals the number of nonzero eigenvalues.
    The determinant is multiplicative over direct sums, so the matrix is
    split into the blocks that no nonzero entry links and the results
    multiplied.  Berkowitz grows det(x*I - A_k) over the leading k x k
    blocks A_k: bordering A_k by a column c, a row r and a corner d
    multiplies by the Toeplitz matrix with first column (1, -d, -r c,
    -r A_k c, -r A_k^2 c, ...).  The descending coefficients of
    det(x*I - A) are the ascending coefficients of det(1 - x*A).

    Each Krylov step v -> A_k v, with the scalar r v, is one big-integer
    sum by Kronecker substitution: column i of A_k, with r_i below it, is
    kept packed as C_i = sum over j <= k of m[j][i] * 2^(64 j), so
    sum_i v_i C_i holds (A_k v)_j in slot j and r v in slot k.  If
    max|v| times the largest absolute row sum of the block is below
    2^63, every slot lies in (-2^63, 2^63): adding 2^63 to each slot
    leaves no carry between slots, and xor with the same mask leaves
    each slot's 64-bit two's complement, read back by a signed 64-bit
    view of the bytes.  A step whose vector fails that bound takes its
    k + 1 dot products instead, so every result is exact.
    """
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    m = a.entries
    out = IntPolynomial((1,))
    for block in _direct_sum_blocks(m):
        out = out * IntPolynomial(_berkowitz([[m[i][j] for j in block] for i in block]))
    return out


class SpectrumVerdict(FrozenRecord):
    """Outcome of the unit-disc spectrum test, decided exactly.

    status is 'unit_roots' (char poly = x^a * cyclotomics, with the
    factorization as witness) or 'outside' (some eigenvalue has modulus
    > 1). An outside verdict carries witness (k, tr(A^k)) for the least
    k with |tr(A^k)| > dim A, which no spectrum in the closed unit disc
    allows.
    """

    __slots__ = _fields = ("status", "factors", "nilpotent", "witness")
    _defaults = {"factors": (), "nilpotent": 0, "witness": None}

    @property
    def ok(self) -> bool:
        return self.status == "unit_roots"


# Unbounded on purpose: one entry per matrix dimension asked about, and
# each entry lists the pairs (d, euler_phi(d)) with euler_phi(d) <= deg.
@lru_cache(maxsize=None)
def _cyclo_candidates(deg: int) -> tuple[tuple[int, int], ...]:
    """The pairs (d, euler_phi(d)) with euler_phi(d) <= deg, ascending in d.

    A prime p | d has p - 1 | euler_phi(d), so p <= deg + 1.  The d are
    built prime by prime over those p (inverse totient): each d found so
    far is coprime to p, so d * p**k has totient euler_phi(d) p**(k-1) (p - 1).
    """
    pairs = [(1, 1)] if deg >= 1 else []
    primes: list[int] = []
    for p in range(2, deg + 2):
        if any(p % q == 0 for q in primes):
            continue
        primes.append(p)
        grown = []
        for d, f in pairs:
            dp, fp = d * p, f * (p - 1)
            while fp <= deg:
                grown.append((dp, fp))
                dp, fp = dp * p, fp * p
        pairs += grown
    return tuple(sorted(pairs))


def _growth_witness(rev: IntPolynomial, dim: int) -> tuple[int, int]:
    # Newton's identity turns the coefficients c_i of det(1 - x*A) into the
    # power sums p_k = tr(A^k); an eigenvalue outside the disc makes them
    # unbounded, so the search ends.
    c = rev.coeffs
    p = [0]
    for k in count(1):
        pk = -k * (c[k] if k < len(c) else 0)
        pk -= sum(c[i] * p[k - i] for i in range(1, min(k, len(c))))
        if abs(pk) > dim:
            return k, pk
        p.append(pk)


def spectrum_in_unit_disc(a: IntMatrix) -> SpectrumVerdict:
    """Decide whether all eigenvalues are zero or roots of unity.

    Divides c = det(1 - x*A), c[0] = 1, by each reversed Phi_d as a series,
    q = times_cyclotomic(c, d, -1) to the length of c.  The division is
    exact exactly when the last euler_phi(d) entries of q are zero: then
    reversed Phi_d times the head of q has degree < len(c) and agrees with
    c mod x**len(c), so it is c; and an exact quotient is that series.  A
    factor left after every Phi_d has an eigenvalue of modulus > 1 by
    Kronecker's theorem (a monic integer polynomial with nonzero constant
    term and all roots in the closed unit disc is a product of cyclotomics).
    """
    rev = charpoly_rev(a)
    c = list(rev.coeffs)
    factors: dict[int, int] = {}
    for d, f in _cyclo_candidates(rev.degree):
        if len(c) == 1:
            break
        head = len(c) - f
        while head >= 1 and not any((q := times_cyclotomic(c, d, -1))[head:]):
            factors[d] = factors.get(d, 0) + 1
            c, head = q[:head], head - f
    if c == [1]:
        return SpectrumVerdict("unit_roots", tuple(sorted(factors.items())), a.rows - rev.degree)
    return SpectrumVerdict("outside", witness=_growth_witness(rev, a.rows))


def witt_class(a: IntMatrix) -> WittElement:
    """Orbit-class decomposition of a unit-spectrum matrix.

    Zero eigenvalues are stabilization padding and are dropped, so a
    nilpotent matrix has class 0.  Raises NotUnitSpectrum, with the
    trace witness, when an eigenvalue lies outside the unit disc.
    """
    verdict = spectrum_in_unit_disc(a)
    if not verdict.ok:
        k, tr = verdict.witness
        raise NotUnitSpectrum(
            f"an eigenvalue lies outside the unit disc "
            f"(tr(A^{k}) = {tr} exceeds dim A = {a.rows} in modulus)"
        )
    return WittElement(dict(verdict.factors))


def companion(p: IntPolynomial) -> IntMatrix:
    """Companion matrix of a monic polynomial (degree >= 1)."""
    n = p.degree
    if n < 1 or p[n] != 1:
        raise ValueError("companion() needs a monic polynomial of degree >= 1")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return IntMatrix(rows)
