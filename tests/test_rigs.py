import ast
import collections
import functools
import importlib
import importlib.util
import itertools
import operator
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cycwitt import matrices, rigs
from cycwitt.arith import BudgetExceeded
from cycwitt.lambda_ops import lambda_series
from cycwitt.linalg import hnf, witt_class
from cycwitt.matrices import (
    INT,
    IntMatrix,
    IntRig,
    Rig,
    RigMatrix,
    contraction_le_one,
    direct_sum,
    global_sections,
    kronecker,
    mat_compose,
    signed_subperm_matrices,
)
from cycwitt.poly import IntPolynomial
from cycwitt.rigs import (
    INF,
    LawReport,
    SquareMatrixRig,
    TropicalNonNegRig,
    TropicalUnitRig,
    check_prop_laws,
    check_rig_laws,
    gl_enumerate,
    identity,
    oplus,
    perm_matrix,
    sigma,
    tau,
)
from cycwitt.roots import RootMultiset
from cycwitt.tables import FiniteCRig, rig_by_name
from cycwitt.witt import frobenius, phi

SHIPPED = ["boolean", "int", "rational", "tropical-unit", "tropical-nonneg", "zmod:6"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_rigs_satisfy_laws(name):
    report = check_rig_laws(rig_by_name(name))
    assert report.ok, report.failures[:3]


@pytest.mark.parametrize(
    "name,fault",
    [
        ("nope", "unknown rig name 'nope'"),
        ("zmod:x", "got 'x'"),
        ("zmod:", "got ''"),
        ("zmod:-3", "got '-3'"),
        ("zmod:0", "modulus must be >= 1"),
    ],
)
def test_rig_by_name_rejects_bad_names(name, fault):
    with pytest.raises(ValueError, match=fault):
        rig_by_name(name)


def test_finite_tables_match_the_carrier_formulas():
    # the formulas of the callable boolean and mod-n carriers these
    # tables replaced are the oracle
    b = rig_by_name("boolean")
    for x in (0, 1):
        for y in (0, 1):
            assert b.add(x, y) == (1 if (x or y) else 0)
            assert b.mul(x, y) == (1 if (x and y) else 0)
    assert (b.zero, b.one) == (0, 1)
    for n in range(1, 13):
        z = FiniteCRig.zmod(n)
        assert (z.zero, z.one) == (0, 1 % n)
        for x in range(n):
            for y in range(n):
                assert z.add(x, y) == (x + y) % n
                assert z.mul(x, y) == x * y % n


def test_finite_rig_equality():
    a, b = FiniteCRig.zmod(6), rig_by_name("zmod:6")
    assert a is not b and a == b and hash(a) == hash(b)
    f = RigMatrix(a, [[1, 2], [3, 4]])
    g = RigMatrix(b, [[5], [1]])
    assert mat_compose(f, g) == RigMatrix(a, [[1], [1]])
    assert FiniteCRig.zmod(6) != FiniteCRig.zmod(7)
    for r in (FiniteCRig.zmod(1000), SquareMatrixRig(a, 2)):
        assert hash(r) == hash(r.name)  # not the tables: O(1) per lookup
    assert FiniteCRig.zmod(2) != rig_by_name("boolean")
    table = "size 2\nadd\n0 1\n1 {}\nmul\n0 0\n0 1\n"
    custom_bool, custom_z2 = (FiniteCRig.from_text(table.format(v)) for v in (1, 0))
    assert custom_bool.name == custom_z2.name == "custom"
    assert custom_bool != custom_z2
    with pytest.raises(ValueError, match="different rigs"):
        mat_compose(RigMatrix(custom_bool, [[1]]), RigMatrix(custom_z2, [[1]]))
    # matrix rigs over them share the name mat2:custom and must still differ
    mat_bool, mat_z2 = SquareMatrixRig(custom_bool, 2), SquareMatrixRig(custom_z2, 2)
    assert mat_bool.name == mat_z2.name and mat_bool != mat_z2
    assert SquareMatrixRig(custom_bool, 2) == mat_bool
    with pytest.raises(ValueError, match="different rigs"):
        mat_compose(RigMatrix(mat_bool, [[mat_bool.one]]), RigMatrix(mat_z2, [[mat_z2.one]]))


def test_traced_benchmark_targets_resolve():
    # the benchmark's tracer wraps these by name; a moved class or a
    # renamed function must fail here rather than in the traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) >= 20
    for mod_name, attr_path in tracing.TARGETS:
        obj = importlib.import_module(f"cycwitt.{mod_name}")
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), (mod_name, attr_path)
    from cycwitt import rigs, spectra

    assert spectra.FiniteCRig is rigs.FiniteCRig


_PACKAGE = Path(matrices.__file__).resolve().parent
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")


def _benchmark_reads():
    """Every (module, attribute) that perfbench reads on a module it imports
    from cycwitt, found by scanning its sources without running them."""
    reads = set()
    for path in sorted((_PACKAGE.parent.parent / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "cycwitt"
                   for alias in node.names}
        reads |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    return reads


def test_each_public_name_has_one_home():
    # the module that defines a name is the one that lists it and the one
    # callers import it from
    homes, foreign = collections.defaultdict(list), []
    for mod_name in _MODULES:
        module = importlib.import_module(f"cycwitt.{mod_name}")
        for name in getattr(module, "__all__", ()):
            homes[name].append(mod_name)
            obj = getattr(module, name)
            if callable(obj) and obj.__module__ != module.__name__:
                foreign.append((mod_name, name))
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}
    assert foreign == []
    # the registry in tables builds the callable carriers from rigs
    for name in ("rational", "tropical-unit", "tropical-nonneg"):
        assert type(rig_by_name(name)).__module__ == "cycwitt.rigs"
    assert rigs.BooleanRig() == FiniteCRig.boolean()


def test_benchmark_reads_resolve_in_a_fresh_interpreter():
    # a name dropped from a module the benchmark reads fails here rather than
    # in the benchmark run
    reads = sorted(_benchmark_reads())
    assert {"linalg", "rigs", "spectra"} <= {mod_name for mod_name, _ in reads}
    code = ("import importlib\n"
            f"reads = {reads!r}\n"
            "print([f'{m}.{a}' for m, a in reads\n"
            "       if not hasattr(importlib.import_module('cycwitt.' + m), a)])\n")
    path = [str(_PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_unused_sibling_imports():
    # a name imported from a sibling module is run by the importer, or read
    # through it by the benchmark; otherwise it is a second home for the name
    read = _benchmark_reads()
    unused = []
    for mod_name in _MODULES:
        tree = ast.parse((_PACKAGE / f"{mod_name}.py").read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(mod_name, name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for name in (alias.asname or alias.name for alias in node.names)
                   if name not in used and (mod_name, name) not in read]
    assert unused == []


def test_matrix_rig_refuses_an_entry_that_is_not_a_matrix_over_its_base():
    control = SquareMatrixRig(FiniteCRig.boolean(), 2)
    for bad in (5, ((1, 0),), ((1, 0), (0,)), [[1, 0], [0, 1]], ((1, 0), (0, 2)), ((1, 0), [0, 1])):
        with pytest.raises(ValueError, match=r"^matrix entry .* is not an element of mat2:boolean$"):
            RigMatrix(control, [[control.one], [bad]])
    assert RigMatrix(control, [[control.one, control.zero]]).cols == 2
    assert all(x in control for x in control.elements())
    # a base that does not list its elements leaves only the shape to check
    over_int = SquareMatrixRig(INT, 2)
    assert RigMatrix(over_int, [[((1, -2), (3, 40))]]).rows == 1
    with pytest.raises(ValueError, match="is not an element of mat2:int"):
        RigMatrix(over_int, [[((1, 2),)]])
    # a matrix rig over a matrix rig asks its base
    nested = SquareMatrixRig(control, 1)
    assert RigMatrix(nested, [[((((1, 0), (0, 1)),),)]]).cols == 1
    for bad in (((((1, 0), (0, 2)),),), (((1, 0), (0, 1)),)):
        with pytest.raises(ValueError, match="is not an element of mat1:mat2:boolean"):
            RigMatrix(nested, [[bad]])


def test_broken_rig_fails_with_witness():
    class Subtraction(Rig):
        name = "broken"
        zero = 0
        one = 1

        def add(self, x, y):
            return x - y

        def mul(self, x, y):
            return x * y

        def sample(self, rng, k):
            return [rng.randint(-9, 9) for _ in range(k)]

    report = check_rig_laws(Subtraction())
    assert not report.ok
    laws = {law for law, _ in report.failures}
    assert "commutative addition" in laws


class _Carrier(Rig):
    """range(size) with the given operations, 0 and 1 as its zero and one,
    and the commutativity it claims."""

    finite = True
    zero, one = 0, 1

    def __init__(self, size, add, mul, commutative=True):
        self.size, self.add, self.mul, self.commutative = size, add, mul, commutative

    def elements(self):
        return range(self.size)


def _ef_product(x, y):
    """Bilinear product on GF(2)^3 with basis 1, e, f (bits 1, 2, 4), where
    ef = e and ee = fe = ff = 0: unital and distributive, but neither
    commutative nor associative, since (ef)f = e and e(ff) = 0."""
    out = 0
    for (i, j), b in {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 1): 2, (4, 1): 4, (2, 4): 2}.items():
        if x & i and y & j:
            out ^= b
    return out


# max as addition on 0..3 with this product: 3*(1 + 2) = 3*2 = 0, but 3*1 + 3*2 = 3
_ONE_SIDED = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 0, 0))

# one deliberately broken finite carrier per law, each failing that law alone
# (over {0, 1}, min is "and" and max is "or")
_BROKEN_RIGS = {
    "additive unit": (2, lambda x, y: 0, min),
    "multiplicative unit": (2, operator.xor, lambda x, y: 0),
    "absorbing zero": (2, max, lambda x, y: int(x == y)),
    "commutative addition": (2, lambda x, y: int(x > y), min),
    "commutative multiplication": (8, operator.xor, _ef_product),
    "associative addition": (3, lambda x, y: abs(x - y), lambda x, y: x * y % 4),
    "associative multiplication": (8, operator.xor, _ef_product, False),
    "right distributivity": (4, max, lambda x, y: _ONE_SIDED[y][x], False),
    "left distributivity": (4, max, lambda x, y: _ONE_SIDED[x][y], False),
}


@pytest.mark.parametrize("law", list(_BROKEN_RIGS))
def test_rig_laws_name_each_broken_law(law):
    report = check_rig_laws(_Carrier(*_BROKEN_RIGS[law]))
    assert {failed for failed, _ in report.failures} == {law}


def test_tropical_nonneg_infinity_conventions():
    r = TropicalNonNegRig()
    assert r.add(INF, Fraction(3)) is INF
    assert r.mul(INF, Fraction(0)) == Fraction(0)
    assert r.mul(INF, Fraction(2)) is INF
    report = check_rig_laws(r, seed=3)
    assert report.ok


def test_mat_compose_examples():
    b = FiniteCRig.boolean()
    f = RigMatrix(b, [[1, 0], [1, 1]])
    g = RigMatrix(b, [[0, 1], [1, 0]])
    assert mat_compose(identity(b, 2), f) == f
    assert mat_compose(f, g) == RigMatrix(b, [[0, 1], [1, 1]])
    t = TropicalNonNegRig()
    h = mat_compose(
        RigMatrix(t, [[Fraction(2), Fraction(3)]]),
        RigMatrix(t, [[Fraction(4)], [Fraction(1)]]),
    )
    assert h == RigMatrix(t, [[Fraction(8)]])
    with pytest.raises(ValueError):
        mat_compose(f, RigMatrix(b, [[1]]))


def test_direct_sum_and_kronecker_examples():
    z = IntRig()
    f = RigMatrix(z, [[5]])
    assert direct_sum(f, RigMatrix(z, [])) == f
    assert direct_sum(f, RigMatrix(z, [[7]])) == RigMatrix(z, [[5, 0], [0, 7]])
    swap = RigMatrix(z, [[0, 1], [1, 0]])
    k = kronecker(swap, swap)
    assert k == RigMatrix(
        z,
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    )


def test_tau_sigma_examples():
    assert tau(1, 1) == (1, 0)
    assert sigma(2, 2) == (0, 2, 1, 3)
    assert sigma(1, 5) == tuple(range(5))
    assert sigma(5, 1) == tuple(range(5))
    # interleavings invert each other
    s = sigma(3, 4)
    si = sigma(4, 3)
    assert [si[s[i]] for i in range(12)] == list(range(12))


def test_perm_matrix_row_selector():
    z = IntRig()
    m = perm_matrix(z, (2, 0, 1))
    x = RigMatrix(z, [[10], [20], [30]])
    assert mat_compose(m, x) == RigMatrix(z, [[30], [10], [20]])


@pytest.mark.parametrize("perm", [(-1, 0), (0, 0), (0, 2), (1,), (2, 0, 2), (0, 1, 3)])
def test_perm_matrix_refuses_non_permutations(perm):
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(perm))} is not a permutation "
                       rf"of range\({len(perm)}\)$"):
        perm_matrix(IntRig(), perm)


@pytest.mark.parametrize("rows,entry", [
    ([[5]], "5"), ([[1, 1]], None), ([[5], [0]], "5"), ([[0, -1]], "-1"), ([[True]], "True"),
    ([[1.0]], "1.0"), ([["1"]], "'1'"), ([[0], [2]], "2"),
])
def test_table_rig_matrix_holds_only_element_indices(rows, entry):
    # the table kernels index their tables by entries, so [[1]] o [[5]] would pass
    # the 5 through and [[1, 1]] o [[5], [0]] raise IndexError: such entries are refused
    boolean = FiniteCRig.boolean()
    if entry is None:
        assert RigMatrix(boolean, rows).entries == ((1, 1),)
        return
    with pytest.raises(ValueError, match=rf"^matrix entry {re.escape(entry)} is not an "
                       rf"element of boolean$"):
        RigMatrix(boolean, rows)
    assert all(x in FiniteCRig.zmod(6) for x in range(6)) and 6 not in FiniteCRig.zmod(6)
    # the trusted constructor and the other carriers check nothing
    assert RigMatrix._of(boolean, tuple(map(tuple, rows)), len(rows[0])).entries[0] == tuple(rows[0])
    assert RigMatrix(IntRig(), rows).entries == tuple(map(tuple, rows))


def _fresh_perm_matrix(r, perm):
    return RigMatrix(r, [[r.one if j == p else r.zero for j in range(len(perm))] for p in perm])


def _types(m):
    return [[type(x) for x in row] for row in m.entries]


@pytest.mark.parametrize("name", ["boolean", "int", "tropical-nonneg"])
def test_cached_perm_matrix_is_a_fresh_build(name):
    r = rig_by_name(name)
    for n in range(4):
        for perm in itertools.permutations(range(n)):
            want = _fresh_perm_matrix(r, perm)
            for got in (perm_matrix(r, perm), perm_matrix(r, perm), perm_matrix(r, list(perm))):
                assert got == want and got.rig is r and _types(got) == _types(want)
    # an equal rig built apart gets a matrix over itself, not the first one's
    twin = rig_by_name(name)
    assert perm_matrix(twin, (1, 0)).rig is twin


def test_cached_tau_and_sigma_are_fresh_builds():
    for n, m in itertools.product(range(5), repeat=2):
        for fn in (tau, sigma):
            assert fn(n, m) == fn(n, m) == fn.__wrapped__(n, m)


@pytest.mark.parametrize("perm", [(0, 0), [1, 1], (0, 2)])
def test_perm_matrix_refuses_a_non_permutation_on_every_call(perm):
    perm_matrix(IntRig(), (0, 1))  # a cached valid neighbour changes nothing
    for _ in range(2):
        with pytest.raises(ValueError, match="is not a permutation of range"):
            perm_matrix(IntRig(), perm)


def test_constructor_caches_are_bounded():
    r = IntRig()
    for perm in itertools.islice(itertools.permutations(range(6)), 3 * rigs._CACHE_SIZE):
        perm_matrix(r, perm)
    assert 0 < len(rigs._PERM_MATRICES) <= rigs._CACHE_SIZE
    for n in range(40):
        for m in range(40):
            tau(n, m), sigma(n, m)
    for fn in (tau, sigma):
        assert fn.cache_info().currsize <= fn.cache_info().maxsize == rigs._CACHE_SIZE


def test_oplus_refuses_negative_copies():
    f = RigMatrix(IntRig(), [[1, 2]])
    for k in (-1, -2):
        with pytest.raises(ValueError, match=rf"^block sum needs k >= 0 copies, got {k}$"):
            oplus(f, k)
    assert oplus(f, 0) == RigMatrix(IntRig(), []) and oplus(f, 1) == f


def test_prop_laws_boolean_exhaustive():
    report = check_prop_laws(FiniteCRig.boolean(), max_rows=2, max_cols=3, quad_cap=4000)
    assert report.ok, report.failures[:2]
    assert report.cases == 32062


@pytest.mark.parametrize("name", ["zmod:3", "tropical-unit"])
def test_prop_laws_sampled(name):
    report = check_prop_laws(rig_by_name(name), max_rows=3, max_cols=3, samples=4)
    assert report.ok, report.failures[:2]
    assert report.cases >= 500
    assert report.cases == {"zmod:3": 11964, "tropical-unit": 12000}[name]


def test_prop_laws_noncommutative_control_fails():
    control = SquareMatrixRig(FiniteCRig.boolean(), 2)
    assert check_rig_laws(control).ok  # it is a rig, just not commutative
    report = check_prop_laws(control, max_rows=1, max_cols=1, samples=4,
                             quad_cap=200, pair_cap=400)
    assert not report.ok
    laws = {law for law, _ in report.failures}
    assert laws <= {"scalar centrality", "scalar interchange",
                    "kronecker composition order", "kronecker swapped order"}
    assert report.cases == 1448
    assert collections.Counter(law for law, _ in report.failures) == {
        "scalar centrality": 156, "kronecker swapped order": 156}


def _one_at(m, i, j):
    """m with its (i, j) entry replaced by the rig's one."""
    rows = [list(row) for row in m.entries]
    rows[i][j] = m.rig.one
    return RigMatrix(m.rig, rows)


# law -> (the rigs function to replace, a shape-preserving mutant of it); the
# mutants call the unpatched functions imported above
_PROP_MUTANTS = {
    "identity unit": ("identity", lambda r, n: RigMatrix(r, [[r.zero] * n] * n)),
    "strict empty block": (
        "direct_sum",
        lambda f, g: direct_sum(f, g) if f.rows and g.rows else _one_at(direct_sum(f, g), 0, 0),
    ),
    "composition associativity": ("mat_compose", lambda f, g: _one_at(mat_compose(f, g), 0, 0)),
    "block sum associativity": ("direct_sum", lambda f, g: _one_at(direct_sum(f, g), 0, -1)),
    "block swap symmetry": ("direct_sum", lambda f, g: direct_sum(g, f)),
    "block sum functoriality": (
        "direct_sum", lambda f, g: direct_sum(f, _one_at(g, 0, 0) if g.rows else g)
    ),
    "scalar centrality": (
        "mat_compose",
        lambda f, g: _one_at(mat_compose(f, g), 0, 0) if f.rows == f.cols else mat_compose(f, g),
    ),
    "scalar interchange": ("oplus", lambda f, k: _one_at(oplus(f, k), 0, 0)),
    "kronecker composition order": ("kronecker", lambda p, q: _one_at(kronecker(p, q), 0, 0)),
    "kronecker swapped order": (
        "kronecker",
        lambda p, q: _one_at(kronecker(p, q), 0, 0) if p.rows > q.rows else kronecker(p, q),
    ),
}


@pytest.mark.parametrize("law", list(_PROP_MUTANTS))
def test_prop_laws_name_each_broken_law(law, monkeypatch):
    monkeypatch.setattr(rigs, *_PROP_MUTANTS[law])
    report = check_prop_laws(FiniteCRig.boolean(), pair_cap=200, quad_cap=200)
    assert law in {failed for failed, _ in report.failures}


def test_kron_orders_related_by_interleaving():
    z = IntRig()
    p = RigMatrix(z, [[1, 2, 3], [4, 5, 6]])        # 2x3
    q = RigMatrix(z, [[7, 8], [9, 10], [11, 12]])   # 3x2
    lhs = kronecker(p, q)
    rhs = mat_compose(
        mat_compose(perm_matrix(z, sigma(3, 2)), kronecker(q, p)),
        perm_matrix(z, sigma(3, 2)),
    )
    assert lhs == rhs


def test_gl_enumeration_examples():
    b = FiniteCRig.boolean()
    gl2 = gl_enumerate(b, 2)
    assert sorted(m.entries for m in gl2) == [
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
    ]
    assert sorted(m[0][0] for m in gl_enumerate(FiniteCRig.zmod(4), 1)) == [1, 3]
    assert [m.entries for m in gl_enumerate(b, 1)] == [((1,),)]
    with pytest.raises(BudgetExceeded, match="budget exceeded: 262144 matrices > 1024"):
        gl_enumerate(FiniteCRig.zmod(4), 3)


def _units_pairwise(r, n):
    """Reference: the candidates with a two-sided inverse among all candidates."""
    mats = list(rigs.all_matrices(r, n, n, list(r.elements())))
    one = identity(r, n)
    return [
        f for f in mats
        if any(mat_compose(f, g) == one and mat_compose(g, f) == one for g in mats)
    ]


_GL_CASES = [(rig_by_name(name), n) for name, n in [
    ("boolean", 1), ("boolean", 2), ("zmod:2", 2), ("zmod:3", 2), ("zmod:4", 1),
    ("zmod:6", 1), ("tropical4", 2),
]] + [(SquareMatrixRig(FiniteCRig.boolean(), 2), 1)]


@pytest.mark.parametrize("r,n", _GL_CASES, ids=[f"{r.name}-{n}" for r, n in _GL_CASES])
def test_gl_enumerate_matches_pairwise_search(r, n):
    assert gl_enumerate(r, n) == _units_pairwise(r, n)


def test_gl_enumerate_refuses_quadratic_work():
    # GL_2(F_7) has 2016 units: the closure check alone would compose 2016^2 pairs
    with pytest.raises(BudgetExceeded, match="budget exceeded: 2401 matrices > 1024"):
        gl_enumerate(FiniteCRig.zmod(7), 2)


class _CountedMatrices(SquareMatrixRig):
    """Square matrices whose carrier counts the elements drawn from it."""

    def __init__(self, base, n):
        super().__init__(base, n)
        self.drawn = 0

    def elements(self):
        for m in super().elements():
            self.drawn += 1
            yield m


@pytest.mark.parametrize("check,limit", [
    (check_prop_laws, rigs.PROP_BUDGET),
    (functools.partial(check_rig_laws, budget=64), 64**2),
], ids=["prop", "rig"])
def test_law_checks_refuse_a_large_carrier_from_a_prefix(check, limit):
    big = _CountedMatrices(FiniteCRig.boolean(), 5)  # 2^25 elements
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=rf"^budget exceeded: \|mat5:boolean\| elements > {limit}$"):
        check(big)
    assert time.perf_counter() - start < 1.0
    assert big.drawn == limit + 1


@pytest.mark.parametrize("n", (4, 5))
def test_gl_enumerate_prices_a_large_carrier_from_a_prefix(n):
    big = _CountedMatrices(FiniteCRig.boolean(), n)  # 2^(n*n) elements
    with pytest.raises(BudgetExceeded, match=rf"^budget exceeded: \|mat{n}:boolean\|\^1 matrices > 1024$"):
        gl_enumerate(big, 1)
    assert big.drawn <= rigs.GL_BUDGET + 1


def test_global_sections_examples():
    assert len(global_sections(1, 1, 1).matrices) == 3
    assert len(global_sections(2, 1, 1).matrices) == 5
    rep = global_sections(2, 2, 2)
    assert rep.ok and len(rep.matrices) == 17
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="budget exceeded: 40353607 candidate"):
        global_sections(3, 3, 3)
    # a bound of 5001 digits is priced from its bit length and never printed
    with pytest.raises(BudgetExceeded, match=r"\(2\*bound \+ 1\)\^\(1\*1\) candidate"):
        global_sections(1, 1, 10**5000)
    assert time.perf_counter() - start < 1


def test_global_sections_reports_a_counterexample(monkeypatch):
    # a contraction test that also accepts (1 1) breaks the characterization
    real = matrices.contraction_le_one
    monkeypatch.setattr(matrices, "contraction_le_one", lambda a: real(a) or a.entries == ((1, 1),))
    rep = global_sections(1, 2, 1)
    assert not rep.ok
    assert rep.counterexample == IntMatrix([[1, 1]])
    assert rep.summary().endswith("FAIL (e.g. IntMatrix('1,1'))")


def test_global_sections_independent_of_bound():
    for n, m in [(1, 1), (2, 1), (2, 2), (2, 3)]:
        counts = {b: len(global_sections(n, m, b).matrices) for b in (1, 2, 3)}
        assert len(set(counts.values())) == 1


def test_signed_subperm_count_formula():
    import math

    def expected(n, m):
        return sum(
            math.comb(n, k) * math.perm(m, k) * 2**k
            for k in range(min(n, m) + 1)
        )

    for n, m in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        assert len(signed_subperm_matrices(n, m)) == expected(n, m)


def signed_perm_group(n):
    """The n-by-n signed permutation matrices (order 2**n * n!): the
    signed sub-permutations with no zero row."""
    return [a for a in signed_subperm_matrices(n, n) if all(any(row) for row in a.entries)]


@pytest.mark.parametrize("n,order", [(1, 2), (2, 8), (3, 48)])
def test_signed_perm_group(n, order):
    group = signed_perm_group(n)
    assert len(group) == order
    for a in group:
        assert contraction_le_one(a)
        assert a.transpose() * a == IntMatrix.identity(n)
    assert {a * b for a in group for b in group} == set(group)


@pytest.mark.parametrize("n", range(5))
def test_signed_perm_group_matches_perm_times_sign_enumeration(n):
    expected = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            e = [[0] * n for _ in range(n)]
            for i, (j, s) in enumerate(zip(perm, signs)):
                e[i][j] = s
            expected.append(IntMatrix(e))
    assert signed_perm_group(n) == sorted(expected, key=lambda a: a.entries)


@pytest.mark.parametrize("name", ["boolean", "zmod:3"])
@pytest.mark.parametrize("n", [1, 2])
def test_square_matrix_rig_elements_in_product_order(name, n):
    # check_rig_laws' witnesses depend on this order
    base = rig_by_name(name)
    expected = [
        tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        for flat in itertools.product(list(base.elements()), repeat=n * n)
    ]
    assert list(SquareMatrixRig(base, n).elements()) == expected


def test_signed_perms_bridge_to_power_operators():
    for n in (1, 2, 3):
        for a in signed_perm_group(n)[:12]:
            w = witt_class(a)
            for m in range(1, 5):
                assert witt_class(a**m) == frobenius(m, w)


def _literal_compose(f, g):
    """Reference product: every entry is the fold of its products from zero."""
    r = f.rig
    out = []
    for i in range(f.rows):
        row = []
        for j in range(g.cols):
            acc = r.zero
            for k in range(f.cols):
                acc = r.add(acc, r.mul(f[i][k], g[k][j]))
            row.append(acc)
        out.append(row)
    return RigMatrix(r, out)


def _literal_oplus(f, k):
    """Reference block sum: k copies of f on the diagonal, zeros elsewhere."""
    n, m = f.rows, f.cols
    return RigMatrix(f.rig, [
        [f[i % n][j % m] if i // n == j // m else f.rig.zero for j in range(k * m)]
        for i in range(k * n)
    ])


def _relabelled_zmod3():
    # zmod:3 with its elements renamed by x -> 2 - x, so zero is index 2
    # and a kernel that tested entries for truth instead of zero would fail
    z3 = FiniteCRig.zmod(3)
    swap = [2, 1, 0]  # an involution, so it renames both ways
    add = [[swap[z3.add(swap[x], swap[y])] for y in range(3)] for x in range(3)]
    mul = [[swap[z3.mul(swap[x], swap[y])] for y in range(3)] for x in range(3)]
    return FiniteCRig(add, mul, zero=2, one=1, name="zmod3-relabelled")


KERNEL_RIGS = [
    FiniteCRig.boolean(), FiniteCRig.zmod(2), FiniteCRig.zmod(6), FiniteCRig.tropical4(),
    _relabelled_zmod3(), IntRig(), rig_by_name("tropical-unit"), TropicalNonNegRig(),
    SquareMatrixRig(FiniteCRig.boolean(), 2),
]


@pytest.mark.parametrize("rig", KERNEL_RIGS, ids=lambda r: r.name)
def test_mat_compose_matches_literal_fold(rig):
    rng = random.Random(11)
    elems = list(rig.elements()) if rig.finite else None

    def rand(n, m):
        if rig.finite:
            return RigMatrix(rig, [[rng.choice(elems) for _ in range(m)] for _ in range(n)])
        return RigMatrix(rig, [rig.sample(rng, m) for _ in range(n)])

    shapes = range(1, 4)
    for n, k, m in itertools.product(shapes, repeat=3):
        for _ in range(4):
            f, g = rand(n, k), rand(k, m)
            assert mat_compose(f, g) == _literal_compose(f, g), (f, g)
    # permutation, identity and block-sum factors on either side
    for n in shapes:
        for perm in itertools.permutations(range(n)):
            p, f = perm_matrix(rig, perm), rand(n, n)
            for a, b in ((p, f), (f, p), (identity(rig, n), f), (f, identity(rig, n))):
                assert mat_compose(a, b) == _literal_compose(a, b)
    for k in range(4):
        f = rand(2, 1)
        assert oplus(f, k) == _literal_oplus(f, k)
        for a, b in ((oplus(f, k), rand(k, 3)), (rand(3, 2 * k), oplus(f, k))):
            assert mat_compose(a, b) == _literal_compose(a, b)
    f, g = rand(2, 3), rand(1, 2)
    assert direct_sum(f, g) == RigMatrix(
        rig, [list(f[0]) + [rig.zero] * 2, list(f[1]) + [rig.zero] * 2,
              [rig.zero] * 3 + list(g[0])]
    )
    # factors where a wrong zero skip would show: mostly zeros, mostly ones,
    # and over the tropical carriers rows of INF and entries outside the
    # carrier (negative, or above one), which the literal fold lifts to zero
    # through max; over [0, 1] a nonzero product with INF raises on both paths
    zero, one = rig.zero, rig.one
    some = list(rand(1, 3)[0])
    pools = [[zero] * 6 + some[:2], [one] * 6 + [zero] + some[:1]]
    tropical = isinstance(rig, (TropicalUnitRig, TropicalNonNegRig))
    if tropical:
        pools += [some + [Fraction(-1, 2), Fraction(-3), Fraction(7, 2), zero, INF],
                  [INF] * 3 + [zero, one, Fraction(-2)]]
    for pool in pools:
        for n, k, m in itertools.product(shapes, repeat=3):
            for _ in range(3):
                f = RigMatrix(rig, [[rng.choice(pool) for _ in range(k)] for _ in range(n)])
                g = RigMatrix(rig, [[rng.choice(pool) for _ in range(m)] for _ in range(k)])
                assert _outcome(mat_compose, f, g) == _outcome(_literal_compose, f, g), (f, g)
    if tropical:
        f = RigMatrix(rig, [[INF, INF], [zero, INF]])
        for g in (RigMatrix(rig, [[zero], [zero]]), RigMatrix(rig, [[one], [zero]])):
            assert _outcome(mat_compose, f, g) == _outcome(_literal_compose, f, g), g
        # a negative first term is lifted to zero by max, not kept
        f = RigMatrix(rig, [[Fraction(-1), zero]])
        g = RigMatrix(rig, [[Fraction(2)], [Fraction(5)]])
        assert mat_compose(f, g) == _literal_compose(f, g) == RigMatrix(rig, [[zero]])


# a chain bottom < mid < top under max and min, with its elements listed as
# top, mid, bottom: zero is index 2 and one is index 0
_CHAIN = FiniteCRig.from_text("""
size 3
zero 2
one 0
add
0 0 0
0 1 1
0 1 2
mul
0 1 2
1 1 2
2 2 2
""")


@pytest.mark.parametrize("rig", [FiniteCRig.boolean(), FiniteCRig.zmod(6), FiniteCRig.tropical4(),
                                 _CHAIN, IntRig()], ids=lambda r: r.name)
def test_unit_row_kernels_match_literal_fold(rig):
    # rows that move g's row (one nonzero entry, equal to one) next to rows
    # that must not: a single nonzero entry other than one, and several
    # nonzero entries; every product equals the literal fold in value and type
    rng = random.Random(26)
    zero, one = rig.zero, rig.one
    others = [x for x in (rig.elements() if rig.finite else range(-3, 4)) if x not in (zero, one)]

    def rand(n, m):
        pool = [zero, one, *others]
        return RigMatrix(rig, [[rng.choice(pool) for _ in range(m)] for _ in range(n)])

    def single(n, j, a):
        return tuple(a if i == j else zero for i in range(n))

    def check(f, g):
        got, want = mat_compose(f, g), _literal_compose(f, g)
        assert got == want and _types(got) == _types(want), (f, g)

    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            p = perm_matrix(rig, perm)
            for m in range(1, 4):
                check(p, rand(n, m))
                check(rand(m, n), p)
            check(identity(rig, n), rand(n, 2))
            check(rand(2, n), identity(rig, n))
        for a in others:
            for j in range(n):
                scaled = RigMatrix(rig, [single(n, j, a), single(n, j, one), (zero,) * n])
                check(scaled, rand(n, 3))
        for _ in range(20):
            k = rng.randrange(n)
            row = [zero] * k + [rng.choice([one, *others])] + [
                rng.choice([one, *others]) for _ in range(n - k - 1)]
            check(RigMatrix(rig, [row, single(n, k, one)]), rand(n, 3))
    if isinstance(rig, IntRig):
        # entries that equal 0 and 1 but are not ints keep the fold's types
        for f, g in [([[True, 0]], [[2, 3], [4, 5]]), ([[1.0, 0]], [[2, 3], [4, 5]]),
                     ([[1, 0]], [[2, 3], [4.5, 5]]), ([[0, 1]], [[False, 3], [4, 5]]),
                     ([[1, False]], [[2, 3], [4, 5]]), ([[1, 0]], [[True, 3], [4, 5]])]:
            check(RigMatrix(rig, f), RigMatrix(rig, g))


def _outcome(product, f, g):
    """The product of f and g, or the type of the TypeError it raises."""
    try:
        return product(f, g)
    except TypeError as exc:
        return type(exc)


def _tropical_pool(rng, big):
    """Entries for the tropical kernel tests: zero, one, INF, ints, negative
    and above-one values, and fractions with parts up to 10**big."""
    top = 10**big
    return [Fraction(0), Fraction(1), INF, 0, 1, 3, -2, Fraction(-1, 2), Fraction(7, 2),
            Fraction(-top + 1, top), Fraction(top - 1, top), Fraction(top, 3),
            *(Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in range(6))]


@pytest.mark.parametrize("rig", [TropicalUnitRig(), TropicalNonNegRig()], ids=lambda r: r.name)
def test_tropical_kernel_matches_literal_fold(rig):
    # the integer kernel against the literal fold on values outside the
    # carrier too: every result, and every TypeError, must be the same
    rng = random.Random(20)
    for big in (1, 6, 30):
        pool = _tropical_pool(rng, big)
        # Fractions only, then INF too, then ints too
        for keep in (lambda x: type(x) is Fraction, lambda x: type(x) is not int, lambda x: True):
            entries = [x for x in pool if keep(x)]
            for n, k, m in itertools.product(range(1, 4), repeat=3):
                for _ in range(3):
                    f = RigMatrix(rig, [[rng.choice(entries) for _ in range(k)] for _ in range(n)])
                    g = RigMatrix(rig, [[rng.choice(entries) for _ in range(m)] for _ in range(k)])
                    got, want = _outcome(mat_compose, f, g), _outcome(_literal_compose, f, g)
                    assert got == want, (f, g)
                    if isinstance(got, RigMatrix):  # int entries keep their type
                        assert [list(map(type, row)) for row in got.entries] == [
                            list(map(type, row)) for row in want.entries], (f, g)
    # a zero entry of f against INF and a negative entry, and INF against zeros
    zero, one = rig.zero, rig.one
    for f, g in [([[zero, one]], [[INF], [Fraction(2)]]), ([[INF, zero]], [[zero], [INF]]),
                 ([[Fraction(-1), one]], [[INF], [zero]]), ([[INF]], [[Fraction(-3)]])]:
        f, g = RigMatrix(rig, f), RigMatrix(rig, g)
        assert _outcome(mat_compose, f, g) == _outcome(_literal_compose, f, g), (f, g)
    # k = 0: an n-by-0 factor composes to n-by-0, and the kernel gives zero rows
    for n in range(3):
        f = RigMatrix(rig, [[]] * n)
        assert mat_compose(f, RigMatrix(rig, [])) == _literal_compose(f, RigMatrix(rig, []))
        assert rig.compose(((),) * n, (), 2) == ((zero, zero),) * n


def test_tropical_kernel_multiplies_no_terms(monkeypatch):
    # Fraction entries (and INF over [0, inf]) never reach the carrier's mul:
    # with mul raising, products still equal the literal fold taken before
    rng = random.Random(21)
    cases = []
    for rig in (TropicalUnitRig(), TropicalNonNegRig()):
        pool = [x for x in _tropical_pool(rng, 30) if type(x) is Fraction]
        if isinstance(rig, TropicalNonNegRig):
            pool.append(INF)
        for n, k, m in itertools.product(range(1, 4), repeat=3):
            f = RigMatrix(rig, [[rng.choice(pool) for _ in range(k)] for _ in range(n)])
            g = RigMatrix(rig, [[rng.choice(pool) for _ in range(m)] for _ in range(k)])
            cases.append((f, g, _literal_compose(f, g)))
        last = cases[-1][2]  # and a one factor on the left
        cases.append((identity(rig, last.rows), last, last))

    def refuse(self, x, y):
        raise AssertionError("the integer kernel called mul")

    monkeypatch.setattr(TropicalUnitRig, "mul", refuse)
    monkeypatch.setattr(TropicalNonNegRig, "mul", refuse)
    for f, g, want in cases:
        assert mat_compose(f, g) == want, (f, g)


_MATRIX_CONSTRUCTORS = ("mat_compose", "direct_sum", "oplus", "perm_matrix", "kronecker",
                        "identity", "_scalar")

# (rig name, max_rows, max_cols, samples, pair_cap, quad_cap) of the law checks
# a benchmark round runs at seed 1, and what each check does there: cases,
# failing laws and calls of each matrix constructor (identity calls _scalar)
_PROP_LAW_TRACES = [
    (("boolean", 2, 2, 3, 150, 150), 1048, {}, (3356, 1402, 960, 1340, 300, 52, 156)),
    (("zmod:2", 2, 2, 3, 150, 150), 1048, {}, (3356, 1402, 960, 1340, 300, 52, 156)),
    (("tropical-unit", 2, 2, 3, 150, 150), 1014, {}, (3258, 1362, 936, 1296, 288, 24, 120)),
    (("tropical-nonneg", 2, 2, 3, 150, 150), 1014, {}, (3258, 1362, 936, 1296, 288, 24, 120)),
    (("int", 2, 2, 3, 150, 150), 1014, {}, (3258, 1362, 936, 1296, 288, 24, 120)),
    (("control", 1, 1, 3, 60, 60), 620, {"scalar centrality": 156, "kronecker swapped order": 32},
     (1624, 572, 264, 456, 120, 32, 544)),
]


def test_prop_law_call_sequence_is_pinned(monkeypatch):
    # faster kernels must leave the checker's work as it is: same cases,
    # same failures, same constructor calls
    counts = collections.Counter()
    for name in _MATRIX_CONSTRUCTORS:
        def counted(*args, _name=name, _fn=getattr(rigs, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(rigs, name, counted)
    total = collections.Counter()
    for (name, rows, cols, samples, pair_cap, quad_cap), cases, failing, calls in _PROP_LAW_TRACES:
        r = SquareMatrixRig(FiniteCRig.boolean(), 2) if name == "control" else rig_by_name(name)
        counts.clear()
        report = check_prop_laws(r, max_rows=rows, max_cols=cols, samples=samples,
                                 pair_cap=pair_cap, quad_cap=quad_cap, seed=1)
        assert report.cases == cases, name
        assert collections.Counter(law for law, _ in report.failures) == failing, name
        assert counts == dict(zip(_MATRIX_CONSTRUCTORS, calls)), name
        total += counts
    assert [total[name] for name in ("mat_compose", "direct_sum", "oplus", "perm_matrix")] == [
        18110, 7462, 4992, 7024]


# (rig name, budget) of the rig-law checks a benchmark round runs at seed 1,
# and what each check does there: cases, exhaustive, failures
_RIG_LAW_TRACES = [
    (("boolean", 512), 12, True, []),
    (("zmod:6", 512), 252, True, []),
    (("zmod:7", 512), 392, True, []),
    (("tropical-unit", 512), 576, False, []),
    (("tropical-nonneg", 512), 576, False, []),
    (("int", 512), 576, False, []),
    (("control", 64), 4352, True, []),
]


def test_rig_law_checks_are_pinned():
    for (name, budget), cases, exhaustive, failures in _RIG_LAW_TRACES:
        r = SquareMatrixRig(FiniteCRig.boolean(), 2) if name == "control" else rig_by_name(name)
        report = check_rig_laws(r, budget=budget, seed=1)
        assert (report.cases, report.exhaustive, report.failures) == (cases, exhaustive, failures)


@pytest.mark.parametrize("kind", ["table", "int"])
def test_matrices_are_immutable_and_keep_their_class(kind):
    if kind == "table":
        r, cls = FiniteCRig.zmod(6), RigMatrix
        f, g, empty = RigMatrix(r, [[1, 2], [3, 4]]), RigMatrix(r, [[5], [1]]), RigMatrix(r, [])
    else:
        r, cls = INT, IntMatrix
        f, g, empty = IntMatrix([[1, 2], [3, 4]]), IntMatrix([[5], [-1]]), IntMatrix([])
    # builders given matrices return their operands' class
    from_operands = [
        mat_compose(f, g), mat_compose(empty, empty), direct_sum(f, g), direct_sum(empty, empty),
        kronecker(f, g), kronecker(f, empty), oplus(g, 3), oplus(f, 0),
    ]
    if kind == "int":
        from_operands += [f * f, f**3, f**0, g.transpose(), IntMatrix.identity(2)]
    # builders given a rig return RigMatrix
    from_rig = [RigMatrix(r, f.entries), RigMatrix(r, []), perm_matrix(r, (2, 0, 1)),
                perm_matrix(r, ()), identity(r, 3), identity(r, 0)]
    for expected, built in ((cls, from_operands), (RigMatrix, from_rig)):
        for m in built:
            assert type(m) is expected and m.rig == r, m
            assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries), m
            assert m.rows == len(m.entries) and all(len(row) == m.cols for row in m.entries), m
            assert m.rows or not m.cols, m
            for slot in ("rig", "entries", "rows", "cols"):
                with pytest.raises(AttributeError, match=f"^{expected.__name__} is immutable$"):
                    setattr(m, slot, getattr(m, slot))
                with pytest.raises(AttributeError, match=f"^{expected.__name__} is immutable$"):
                    delattr(m, slot)


_VALUES = {
    "IntPolynomial": lambda: IntPolynomial((1, -1, 1)),
    "WittElement": lambda: phi(4) - 2 * phi(6),
    "WittSeries": lambda: lambda_series(phi(3), 2),
    "RootMultiset": lambda: RootMultiset(12, {1: 2, 6: 1}),
    "HnfLattice": lambda: hnf([[2, 4], [4, 2]]),
    "FiniteCRig": lambda: FiniteCRig.zmod(6),
}


@pytest.mark.parametrize("name", list(_VALUES))
def test_values_refuse_assignment_and_deletion(name):
    # a deleted slot would break hashing and equality of a value in a set
    value = _VALUES[name]()
    assert type(value).__name__ == name
    for slot in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, slot, getattr(value, slot))
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, slot)
    assert value == _VALUES[name]() and hash(value) == hash(_VALUES[name]())


def _literal_check_rig_laws(r, budget=512, seed=0):
    """Reference checker: every sum and product recomputed, no memo."""
    elems = list(r.elements())
    exhaustive = len(elems) ** 3 <= budget**2
    if not exhaustive:
        rng = random.Random(seed)
        elems = [rng.choice(elems) for _ in range(round(budget ** (2 / 3)))]
    report = LawReport(r.name, exhaustive)

    def fail(law, *witness):
        report.failures.append((law, witness))

    for x in elems:
        if r.add(x, r.zero) != x:
            fail("additive unit", x)
        if r.mul(x, r.one) != x or r.mul(r.one, x) != x:
            fail("multiplicative unit", x)
        if r.mul(x, r.zero) != r.zero or r.mul(r.zero, x) != r.zero:
            fail("absorbing zero", x)
    for x, y in itertools.product(elems, repeat=2):
        report.cases += 1
        if r.add(x, y) != r.add(y, x):
            fail("commutative addition", x, y)
        if r.commutative and r.mul(x, y) != r.mul(y, x):
            fail("commutative multiplication", x, y)
    for x, y, z in itertools.product(elems, repeat=3):
        report.cases += 1
        if r.add(r.add(x, y), z) != r.add(x, r.add(y, z)):
            fail("associative addition", x, y, z)
        if r.mul(r.mul(x, y), z) != r.mul(x, r.mul(y, z)):
            fail("associative multiplication", x, y, z)
        if r.mul(r.add(x, y), z) != r.add(r.mul(x, z), r.mul(y, z)):
            fail("right distributivity", x, y, z)
        if r.mul(z, r.add(x, y)) != r.add(r.mul(z, x), r.mul(z, y)):
            fail("left distributivity", x, y, z)
        if report.failures:
            break
    return report


class _Mod4Minus(Rig):
    """Four elements with subtraction mod 4 as a broken addition."""

    name = "mod4-minus"
    finite = True
    zero = 0
    one = 1

    def add(self, x, y):
        return (x - y) % 4

    def mul(self, x, y):
        return x * y % 4

    def elements(self):
        return range(4)


def test_memoized_rig_laws_match_literal_checker():
    carriers = [rig_by_name(n) for n in ("boolean", "tropical4", "zmod:1", "zmod:6", "zmod:12")]
    carriers += [_relabelled_zmod3(), _Mod4Minus()]
    for r in carriers:
        assert check_rig_laws(r) == _literal_check_rig_laws(r), r.name
    control = SquareMatrixRig(FiniteCRig.boolean(), 2)
    assert check_rig_laws(control, budget=64, seed=3) == _literal_check_rig_laws(control, 64, 3)
    broken = check_rig_laws(_Mod4Minus())
    assert broken.failures and broken.failures[0] == ("commutative addition", (0, 1))


class _Listed(Rig):
    """A carrier's sample as a finite carrier: its elements are the sample."""

    finite = True

    def __init__(self, r, elems):
        self.r, self.elems, self.name = r, elems, r.name
        self.zero, self.one, self.commutative = r.zero, r.one, r.commutative

    def add(self, x, y):
        return self.r.add(x, y)

    def mul(self, x, y):
        return self.r.mul(x, y)

    def elements(self):
        return self.elems


def test_table_rig_laws_match_literal_checker():
    carriers = [_Carrier(*spec) for spec in _BROKEN_RIGS.values()]
    carriers += [
        _Mod4Minus(),
        # sums and products leave the element list, so the tables intern new values
        _Carrier(4, operator.add, operator.mul),
        _Carrier(3, lambda x, y: 2 * x + y, operator.mul),
        _Carrier(5, max, lambda x, y: x * y + (x and y), False),
    ]
    for r in carriers:
        report = check_rig_laws(r)
        assert report == _literal_check_rig_laws(r), r
        assert report.exhaustive
    zmod65 = rig_by_name("zmod:65")
    assert check_rig_laws(zmod65, seed=2) == _literal_check_rig_laws(zmod65, seed=2)
    control = SquareMatrixRig(FiniteCRig.boolean(), 2)
    for budget, seed in itertools.product((64, 512), range(4)):
        assert check_rig_laws(control, budget, seed) == _literal_check_rig_laws(control, budget, seed)
    # a carrier that cannot be listed is checked over its sample
    for name in ("int", "rational", "tropical-unit", "tropical-nonneg"):
        for seed in range(3):
            r = rig_by_name(name)
            report = check_rig_laws(r, seed=seed)
            literal = _literal_check_rig_laws(_Listed(r, r.sample(random.Random(seed), 8)))
            assert (report.cases, report.failures) == (literal.cases, literal.failures), name
            assert not report.exhaustive
    # witnesses are values in the order listed: 3 - 1 = 1 - 3 mod 4, 3 - 2 is not 2 - 3
    broken = _Listed(_Mod4Minus(), [3, 1, 2])
    assert check_rig_laws(broken) == _literal_check_rig_laws(broken)
    assert check_rig_laws(broken).failures[0] == ("commutative addition", (3, 2))


def test_rig_laws_sample_above_exhaustive_size():
    start = time.perf_counter()
    report = check_rig_laws(rig_by_name("zmod:65"))
    elapsed = time.perf_counter() - start
    # 64 sampled elements: 64^2 pairs and 64^3 = 512^2 triples
    assert report.ok and not report.exhaustive
    assert report.cases == 64**2 + 64**3
    assert elapsed < 5, elapsed


def test_rig_law_summary_counts_pairs_and_triples_as_cases():
    # 4^2 pairs and 4^3 triples over zmod:4
    assert check_rig_laws(rig_by_name("zmod:4")).summary() == (
        "rig laws for zmod:4 (exhaustive, 80 cases): PASS"
    )
    assert check_rig_laws(_Mod4Minus()).summary() == (
        "rig laws for mod4-minus (exhaustive, 17 cases): FAIL [('commutative addition', (0, 1)), "
        "('commutative addition', (0, 3)), ('commutative addition', (1, 0))]"
    )
