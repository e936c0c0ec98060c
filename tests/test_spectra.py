import itertools
import random
import re

import pytest

from cycwitt import spectra
from cycwitt.rigs import rig_by_name
from cycwitt.spectra import (
    FiniteCRig,
    Ideal,
    RadicalMismatch,
    SpecSpace,
    Theorem1Report,
    all_ideals,
    ideal_generated,
    localize,
    multiplicative_closure,
    radical,
    spec,
    theorem1_check,
)


def test_construction_validates_tables():
    with pytest.raises(ValueError):
        # 0 is not an additive unit: 1 + 0 = 0
        FiniteCRig([[0, 1], [0, 1]], [[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        # multiplication table without a unit
        FiniteCRig([[0, 1], [1, 1]], [[0, 0], [0, 0]])


def _table(n, op):
    return [[op(x, y) for y in range(n)] for x in range(n)]


_BOOL_ADD = [[0, 1], [1, 1]]


@pytest.mark.parametrize(
    "add,mul,message",
    [
        ([[0, 0], [0, 1]], [[0, 0], [0, 1]], "additive unit fails at 1"),
        (_BOOL_ADD, [[0, 0], [0, 0]], "multiplicative unit fails at 1"),
        (_BOOL_ADD, [[1, 0], [0, 1]], "absorbing zero fails at 0"),
        (
            _table(3, lambda x, y: (x + y) % 3),
            [[0, 0, 0], [0, 1, 0], [0, 2, 2]],
            "multiplication not commutative at 1,2",
        ),
        (
            [[0, 1, 2], [1, 2, 2], [2, 2, 1]],
            [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
            "addition not associative at 1,1,2",
        ),
        (
            _table(4, max),
            [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 2], [0, 3, 2, 1]],
            "multiplication not associative at 2,2,3",
        ),
        (_table(3, max), _table(3, lambda x, y: x * y % 3), "distributivity fails at 2,1,2"),
        (
            [[0, 1, 2], [1, 2, 1], [2, 2, 1]],
            _table(3, lambda x, y: x * y % 3),
            "addition not commutative at 1,2",
        ),
    ],
)
def test_construction_witnesses(add, mul, message):
    with pytest.raises(ValueError) as info:
        FiniteCRig(add, mul)
    assert str(info.value) == message


def _first_violation(add, mul, zero, one):
    """Reference validator: every law, entry by entry, in the order
    element, pair, triple; returns the first violation's message."""
    rng = range(len(add))
    for x in rng:
        if add[x][zero] != x:
            return f"additive unit fails at {x}"
        if mul[x][one] != x:
            return f"multiplicative unit fails at {x}"
        if mul[x][zero] != zero:
            return f"absorbing zero fails at {x}"
    for x, y in itertools.product(rng, repeat=2):
        if add[x][y] != add[y][x]:
            return f"addition not commutative at {x},{y}"
        if mul[x][y] != mul[y][x]:
            return f"multiplication not commutative at {x},{y}"
    for x, y, w in itertools.product(rng, repeat=3):
        if add[add[x][y]][w] != add[x][add[y][w]]:
            return f"addition not associative at {x},{y},{w}"
        if mul[mul[x][y]][w] != mul[x][mul[y][w]]:
            return f"multiplication not associative at {x},{y},{w}"
        if mul[x][add[y][w]] != add[mul[x][y]][mul[x][w]]:
            return f"distributivity fails at {x},{y},{w}"
    return None


def test_validation_witness_matches_entrywise_scan():
    # symmetric one- and two-entry edits of valid tables keep both
    # operations commutative; the witnesses cover the unit, zero and
    # triple laws
    rng = random.Random(4)
    bases = [FiniteCRig.zmod(n) for n in range(1, 8)]
    bases += [FiniteCRig.boolean(), FiniteCRig.tropical4()]
    failures = 0
    for base in bases:
        n = base.size
        for _ in range(60):
            tables = [list(map(list, base.add_table)), list(map(list, base.mul_table))]
            for _ in range(rng.choice((1, 2))):
                t = rng.choice(tables)
                x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                t[x][y] = t[y][x] = v
            want = _first_violation(*tables, base.zero, base.one)
            try:
                FiniteCRig(*tables, zero=base.zero, one=base.one)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, (base.name, tables)
            failures += want is not None
    assert failures > 100


def test_validation_rejects_a_distributive_nonassociative_product():
    # the F2-span of 1, u, v (bits of the index) with u*u = v*v = 0 and
    # u*v = u: units, zero, commutativity and distributivity hold, so only
    # the associativity check at a generator can reject it
    add = _table(8, lambda x, y: x ^ y)
    mul = [
        [0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7],
        [0, 2, 0, 2, 2, 0, 2, 0], [0, 3, 2, 1, 6, 5, 4, 7],
        [0, 4, 2, 6, 0, 4, 2, 6], [0, 5, 0, 5, 4, 1, 4, 1],
        [0, 6, 2, 4, 2, 4, 0, 6], [0, 7, 0, 7, 6, 1, 6, 1],
    ]
    message = "multiplication not associative at 2,4,4"
    assert _first_violation(add, mul, 0, 1) == message
    with pytest.raises(ValueError) as info:
        FiniteCRig(add, mul)
    assert str(info.value) == message


def test_stalks_pass_both_validators():
    # a stalk is built through FiniteCRig, so the generating-set validator
    # accepted it; the entrywise scan must agree
    rigs = [FiniteCRig.zmod(n) for n in (6, 12, 30, 36, 60)] + [FiniteCRig.tropical4()]
    stalks = 0
    for r in rigs:
        for p in spec(r).primes:
            loc = localize(r, frozenset(x for x in r.elements() if x not in p)).rig
            assert _first_violation(loc.add_table, loc.mul_table, loc.zero, loc.one) is None
            stalks += 1
    assert stalks >= 12


def test_builtin_rigs_are_valid():
    FiniteCRig.boolean()
    FiniteCRig.tropical4()
    for n in range(1, 13):
        FiniteCRig.zmod(n)


def test_rig_names_resolver():
    # every documented name; the finite ones are tables
    for name, size in {"boolean": 2, "zmod:1": 1, "zmod:9": 9, "tropical4": 4}.items():
        r = rig_by_name(name)
        assert isinstance(r, FiniteCRig) and r.finite and r.commutative
        assert r.name == name and r.size == size and list(r.elements()) == list(range(size))
    for name in ("int", "rational", "tropical-unit", "tropical-nonneg"):
        r = rig_by_name(name)
        assert r.name == name and not r.finite and not isinstance(r, FiniteCRig)


@pytest.mark.parametrize(
    "text,fault",
    [
        ("zero 0\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n", "'size' line"),
        ("size two\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n", "'size' must be an integer"),
        ("size -1\nadd\nmul\n", "'size' must be >= 1"),
        ("size 2\nadd\n0 1\n1 1\nmul\n0 0\n", "mul table has 1 of 2 rows"),
        ("size 2\nadd\n0 1\n1 x\nmul\n0 0\n0 1\n", "add table row '1 x'"),
        ("size 2\nadd\n0 1\n1 1\n", "got end of file"),
        ("size 2\none 9\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n", "one 9"),
        ("size 2\nnames a\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n", "1 names for 2 elements"),
    ],
)
def test_from_text_names_the_fault(text, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        FiniteCRig.from_text(text)


def test_from_text_roundtrip():
    text = """
    size 2
    zero 0
    one 1
    names o i
    add
    0 1
    1 1
    mul
    0 0
    0 1
    """
    r = FiniteCRig.from_text(text)
    assert r.size == 2 and r.names == ("o", "i")
    assert r.add(1, 1) == 1
    assert r.element_by_name("i") == 1


def test_ideal_generated_examples():
    z6 = FiniteCRig.zmod(6)
    assert ideal_generated(z6, ()).elements == frozenset({0})
    assert ideal_generated(z6, {2}).elements == frozenset({0, 2, 4})
    b = FiniteCRig.boolean()
    assert ideal_generated(b, {1}).elements == frozenset({0, 1})


def _ideal_generated_fixpoint(r, seed):
    """Reference closure: close seed + {0} under every pairwise sum and
    every scaling, pass after pass, until nothing changes."""
    cur = set(seed) | {r.zero}
    while True:
        nxt = set(cur)
        for x, y in itertools.product(cur, repeat=2):
            nxt.add(r.add(x, y))
        for c in r.elements():
            for x in cur:
                nxt.add(r.mul(c, x))
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def _product_rig(a, b):
    """The product rig a x b, as operation tables on the pairs."""
    pairs = list(itertools.product(a.elements(), b.elements()))
    idx = {p: i for i, p in enumerate(pairs)}

    def table(op_a, op_b):
        return [
            [idx[(op_a(x, u), op_b(y, v))] for u, v in pairs] for x, y in pairs
        ]

    return FiniteCRig(
        table(a.add, b.add),
        table(a.mul, b.mul),
        zero=idx[(a.zero, b.zero)],
        one=idx[(a.one, b.one)],
        names=[f"({a.names[x]},{b.names[y]})" for x, y in pairs],
        name=f"{a.name} x {b.name}",
    )


def _boolean_times_zmod3():
    return _product_rig(FiniteCRig.boolean(), FiniteCRig.zmod(3))


def test_ideal_generated_matches_pairwise_fixpoint():
    rigs = [FiniteCRig.zmod(n) for n in range(1, 31)]
    rigs += [FiniteCRig.boolean(), FiniteCRig.tropical4(), _boolean_times_zmod3()]
    for r in rigs:
        for k in range(3):
            for seed in itertools.combinations(r.elements(), k):
                assert ideal_generated(r, seed).elements == _ideal_generated_fixpoint(
                    r, seed
                ), (r.name, seed)


def test_all_ideals_of_zmod_match_divisors():
    from cycwitt.arith import divisors

    for n in range(2, 25):
        r = FiniteCRig.zmod(n)
        ideals = all_ideals(r)
        expected = {
            frozenset(range(0, n, d)) for d in divisors(n)
        }
        assert set(ideals) == expected


def _reclosing_all_ideals(r):
    """Reference search: every candidate ideal is closed again from {0}."""
    start = ideal_generated(r, ()).elements
    seen, queue = {start}, [start]
    while queue:
        base = queue.pop()
        for x in r.elements():
            if x not in base:
                nxt = ideal_generated(r, base | {x}).elements
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _f2_square_zero_pair():
    # F2[u, v]/(u, v)^2, the bits of an index being the coefficients of
    # 1, u and v: every F2-subspace of the maximal ideal {0, u, v, u + v}
    # is an ideal, and the maximal ideal itself is not principal
    def mul(x, y):
        a, b = x & 1, y & 1
        return (a & b) | (a * (y & 6)) ^ (b * (x & 6))

    return FiniteCRig(_table(8, lambda x, y: x ^ y), _table(8, mul), name="f2-uv")


def test_all_ideals_matches_reclosing_search():
    f2uv = _f2_square_zero_pair()
    assert len(all_ideals(f2uv)) == 6  # {0}, (u), (v), (u + v), (u, v), all
    rigs = [FiniteCRig.boolean(), FiniteCRig.tropical4(), f2uv]
    rigs += [FiniteCRig.zmod(n) for n in range(1, 61)]
    for r in (FiniteCRig.zmod(36), FiniteCRig.tropical4(), _boolean_times_zmod3(), f2uv):
        for p in spec(r).primes:
            rigs.append(localize(r, frozenset(x for x in r.elements() if x not in p)).rig)
    for r in rigs:
        assert all_ideals(r) == _reclosing_all_ideals(r), r.name


def test_spec_examples():
    b = FiniteCRig.boolean()
    assert [set(p) for p in spec(b).primes] == [{0}]
    z6 = FiniteCRig.zmod(6)
    assert sorted(tuple(sorted(p)) for p in spec(z6).primes) == [(0, 2, 4), (0, 3)]
    z7 = FiniteCRig.zmod(7)
    assert [set(p) for p in spec(z7).primes] == [{0}]


def test_closed_and_basic_open_identities():
    z12 = FiniteCRig.zmod(12)
    sp = spec(z12)
    assert set(sp.closed_set({0})) == set(sp.primes)
    assert sp.basic_open(1) == sp.primes
    assert sp.basic_open(0) == ()
    z6 = FiniteCRig.zmod(6)
    sp6 = spec(z6)
    d2 = sp6.basic_open(2)
    assert [set(p) for p in d2] == [{0, 3}]
    # topology laws, exhaustively at this scale: opens intersect through
    # products, closed sets unite through ideal products and intersect
    # through ideal sums
    for f1, f2 in itertools.product(z12.elements(), repeat=2):
        lhs = set(sp.basic_open(f1)) & set(sp.basic_open(f2))
        assert lhs == set(sp.basic_open(z12.mul(f1, f2)))
    for a_elems, b_elems in itertools.product(all_ideals(z12), repeat=2):
        prod_ideal = ideal_generated(
            z12,
            {z12.mul(x, y) for x in a_elems for y in b_elems},
        )
        union = set(sp.closed_set(a_elems)) | set(sp.closed_set(b_elems))
        assert union == set(sp.closed_set(prod_ideal.elements))
        sum_ideal = ideal_generated(z12, set(a_elems) | set(b_elems))
        meet = set(sp.closed_set(a_elems)) & set(sp.closed_set(b_elems))
        assert meet == set(sp.closed_set(sum_ideal.elements))


def test_radical_examples():
    z8 = FiniteCRig.zmod(8)
    assert radical(z8, ideal_generated(z8, ())).elements == frozenset({0, 2, 4, 6})
    z6 = FiniteCRig.zmod(6)
    assert radical(z6, ideal_generated(z6, ())).elements == frozenset({0})
    sp = spec(z6)
    for p in sp.primes:
        assert radical(z6, Ideal(z6, p)).elements == p


def test_spec_cache_agrees_with_fresh_spec():
    for name in ("zmod:12", "zmod:30", "boolean", "tropical4"):
        r = rig_by_name(name)
        assert spec(r) == spec.__wrapped__(r)
        assert spec(rig_by_name(name)) is spec(r)  # equal rigs share the space


def test_radical_cross_check_survives_cached_spec(monkeypatch):
    z12 = FiniteCRig.zmod(12)
    spec(z12)
    wrong = SpecSpace(z12, (frozenset(x for x in range(12) if x % 3 == 0),))
    monkeypatch.setattr(spectra, "spec", lambda r: wrong)
    with pytest.raises(RadicalMismatch):
        radical(z12, ideal_generated(z12, ()))


def test_galois_correspondence_closed_sets():
    for name in ["zmod:12", "zmod:18", "tropical4"]:
        r = rig_by_name(name)
        sp = spec(r)
        # VI(Z) = Z for closed Z, over all ideals' closed sets
        for elems in all_ideals(r):
            z = sp.closed_set(elems)
            if z:
                cut = frozenset.intersection(*z)
            else:
                cut = frozenset(r.elements())
            assert set(sp.closed_set(cut)) == set(z)


def test_radical_equals_prime_intersection_everywhere():
    for n in range(1, 21):
        r = FiniteCRig.zmod(n)
        for elems in all_ideals(r):
            radical(r, Ideal(r, elems))  # raises RadicalMismatch on a bug
    t4 = FiniteCRig.tropical4()
    for elems in all_ideals(t4):
        radical(t4, Ideal(t4, elems))


def test_localize_at_units_is_isomorphic_copy():
    z7 = FiniteCRig.zmod(7)
    units = frozenset(x for x in range(1, 7))
    loc = localize(z7, units)
    assert loc.rig.size == 7
    # canonical map is bijective and operation-preserving here
    img = [loc.class_of(x) for x in z7.elements()]
    assert len(set(img)) == 7
    for x, y in itertools.product(z7.elements(), repeat=2):
        assert loc.class_of(z7.add(x, y)) == loc.rig.add(img[x], img[y])
        assert loc.class_of(z7.mul(x, y)) == loc.rig.mul(img[x], img[y])


def _iso_to_zmod(r: FiniteCRig, n: int) -> bool:
    z = FiniteCRig.zmod(n)
    if r.size != n:
        return False
    for perm in itertools.permutations(range(n)):
        if perm[r.zero] != z.zero or perm[r.one] != z.one:
            continue
        if all(
            perm[r.add(x, y)] == z.add(perm[x], perm[y])
            and perm[r.mul(x, y)] == z.mul(perm[x], perm[y])
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def _localize_union_find(r, s_set):
    """Reference localization: union-find over the expansion moves
    (x, s) -> (u*x, u*s), classes numbered by first appearance."""
    pairs = [(x, s) for x in r.elements() for s in sorted(s_set)]
    index = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (x, s), i in index.items():
        for u in s_set:
            ri, rj = find(i), find(index[(r.mul(u, x), r.mul(u, s))])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    reps, class_ids, order = {}, {}, []
    for p in pairs:
        root = find(index[p])
        if root not in reps:
            reps[root] = len(order)
            order.append(p)
        class_ids[p] = reps[root]

    def cls(x, s):
        return class_ids[(x, s)]

    add = [
        [cls(r.add(r.mul(x, t), r.mul(y, s)), r.mul(s, t)) for y, t in order]
        for x, s in order
    ]
    mul = [[cls(r.mul(x, y), r.mul(s, t)) for y, t in order] for x, s in order]
    names = tuple(
        f"{r.names[x]}/{r.names[s]}" if s != r.one else r.names[x] for x, s in order
    )
    return class_ids, add, mul, names, cls(r.zero, r.one), cls(r.one, r.one)


def test_localize_matches_union_find():
    rigs = [FiniteCRig.zmod(n) for n in range(1, 25)]
    rigs += [FiniteCRig.boolean(), FiniteCRig.tropical4()]
    for r in rigs:
        closures = {
            multiplicative_closure(r, seed)
            for k in (1, 2)
            for seed in itertools.combinations(r.elements(), k)
        }
        for s_set in closures:
            loc = localize(r, s_set)
            lr = loc.rig
            class_ids, add, mul, names, zero, one = _localize_union_find(r, s_set)
            assert loc._pair_class == class_ids, (r.name, sorted(s_set))
            assert lr.add_table == tuple(map(tuple, add))
            assert lr.mul_table == tuple(map(tuple, mul))
            assert (lr.names, lr.zero, lr.one) == (names, zero, one)


def test_localization_is_the_factor_eR():
    # the localization at S is e*R for e the idempotent power of prod(S):
    # the canonical map restricted to e*R is a bijection onto the class
    # rig preserving + and *
    rigs = [FiniteCRig.zmod(n) for n in range(1, 25)]
    rigs += [FiniteCRig.boolean(), FiniteCRig.tropical4()]
    cases = 0
    for r in rigs:
        closures = {
            multiplicative_closure(r, seed)
            for k in (1, 2)
            for seed in itertools.combinations(r.elements(), k)
        }
        for s_set in closures:
            loc = localize(r, s_set)
            lr = loc.rig
            t = r.one
            for s in s_set:
                t = r.mul(t, s)
            e = t
            while r.mul(e, e) != e:
                e = r.mul(e, t)
            e_r = sorted({r.mul(e, x) for x in r.elements()})
            to_loc = {x: loc.class_of(x) for x in e_r}
            assert sorted(to_loc.values()) == list(lr.elements()), (r.name, sorted(s_set))
            for x, y in itertools.product(e_r, repeat=2):
                assert to_loc[r.add(x, y)] == lr.add(to_loc[x], to_loc[y])
                assert to_loc[r.mul(x, y)] == lr.mul(to_loc[x], to_loc[y])
            cases += 1
    assert cases == 798  # distinct closures of the 2613 seeds


def test_localize_zmod6_examples():
    z6 = FiniteCRig.zmod(6)
    by3 = localize(z6, frozenset({1, 2, 4, 5}))  # complement of (3)
    assert _iso_to_zmod(by3.rig, 3)
    by2 = localize(z6, frozenset({1, 3, 5}))  # complement of (2)
    assert _iso_to_zmod(by2.rig, 2)
    with pytest.raises(ValueError):
        localize(z6, frozenset({2, 4}))  # missing 1


def test_localization_at_prime_is_local():
    for n in (6, 12, 20):
        r = FiniteCRig.zmod(n)
        for p in spec(r).primes:
            s_set = frozenset(x for x in r.elements() if x not in p)
            loc = localize(r, s_set)
            lr = loc.rig
            units = {
                x
                for x in lr.elements()
                if any(lr.mul(x, y) == lr.one for y in lr.elements())
            }
            nonunits = frozenset(set(lr.elements()) - units)
            # the nonunits form the unique maximal ideal: the image of p
            image_of_p = frozenset(loc.class_of(x, r.one) for x in p)
            assert nonunits == image_of_p
            maximal = [
                i
                for i in all_ideals(lr)
                if lr.one not in i and not any(
                    lr.one not in j and i < j for j in all_ideals(lr)
                )
            ]
            assert maximal == [nonunits]


def test_localization_homeomorphism():
    for n in range(2, 31):
        r = FiniteCRig.zmod(n)
        sp = spec(r)
        for p in sp.primes:
            s_set = frozenset(x for x in r.elements() if x not in p)
            loc = localize(r, s_set)
            loc_primes = spec(loc.rig).primes
            pulled = sorted(
                frozenset(x for x in r.elements() if loc.class_of(x) in q)
                for q in loc_primes
            )
            missing = sorted(q for q in sp.primes if not (q & s_set))
            assert pulled == missing


def test_prime_pullback_along_quotients():
    # reduction maps between modular rigs pull primes back to primes and
    # basic opens back to basic opens
    for big, small in [(12, 6), (6, 3), (6, 2), (18, 6)]:
        src = FiniteCRig.zmod(big)
        dst = FiniteCRig.zmod(small)
        hom = lambda x: x % small
        sp_dst = spec(dst)
        sp_src = spec(src)
        for q in sp_dst.primes:
            pre = frozenset(x for x in src.elements() if hom(x) in q)
            assert pre in set(sp_src.primes)
        for f in src.elements():
            image_open = set(sp_dst.basic_open(hom(f)))
            pullback = {
                q for q in sp_dst.primes
                if frozenset(x for x in src.elements() if hom(x) in q)
                in set(sp_src.basic_open(f))
            }
            assert image_open == pullback


def test_theorem1_examples():
    z6 = FiniteCRig.zmod(6)
    rep = theorem1_check(z6, 1)
    assert rep.ok and rep.loc_size == 6 and rep.local_families == 6
    rep = theorem1_check(z6, 2)
    assert rep.ok and rep.loc_size == 3
    rep = theorem1_check(z6, 0)
    assert rep.ok and rep.empty_case


def test_theorem1_reports_a_fraction_map_that_is_not_injective(monkeypatch):
    # with no denominators but 1, the six fractions of zmod:6 land in the
    # three-element stalk at (3), so two classes share one family
    monkeypatch.setattr(spectra, "multiplicative_closure", lambda r, seed: frozenset({r.one}))
    rep = theorem1_check(FiniteCRig.zmod(6), 2)
    assert not rep.ok and not rep.bijective
    assert rep.failures == [("two fraction classes with one family", 0, 3)]
    rep = theorem1_check(FiniteCRig.zmod(6), 0)
    assert rep.empty_case and rep.failures == [("two fraction classes with one family", 0, 1)]


def _literal_theorem1_check(r: FiniteCRig, s: int) -> Theorem1Report:
    """Reference oracle: the two-path structure-sheaf check, kept as written.

    Compare the localization of r at the powers of s with the families
    of stalk elements over the basic open D(s) that are locally fractions.

    Families are enumerated exhaustively over the product of the finite
    stalks; the locally-a-fraction condition quantifies over basic-open
    neighborhoods and global numerator/denominator pairs, all finite.
    """
    sp = spec(r)
    opens = sp.basic_open(s)
    powers = multiplicative_closure(r, {s})
    loc = localize(r, powers)
    report = Theorem1Report(r.name, s, opens, loc.rig.size)

    if not opens:
        # empty basic open: the sheaf value is the one-point rig, so the
        # fraction rig must collapse (s is nilpotent-like, 0 in powers)
        report.empty_case = True
        report.families = report.local_families = 1
        report.bijective = loc.rig.size == 1
        report.preserves_ops = True
        if not report.bijective:
            report.failures.append(("nonempty localization over empty open", loc.rig.size))
        return report

    stalks = {
        p: localize(r, frozenset(x for x in r.elements() if x not in p))
        for p in opens
    }

    def family_of_fraction(x, s_pow):
        return tuple(stalks[p].class_of(x, s_pow) for p in opens)

    # image of the fraction rig
    image = {}
    for x in r.elements():
        for s_pow in powers:
            cls = loc.class_of(x, s_pow)
            fam = family_of_fraction(x, s_pow)
            if cls in image and image[cls] != fam:
                report.failures.append(("fraction maps to two families", x, s_pow))
            image[cls] = fam

    # all locally-fraction families: each point needs a basic-open
    # neighborhood inside D(s) on which the family is one global fraction
    prime_list = list(opens)
    pos = {p: i for i, p in enumerate(prime_list)}
    neighborhoods = {}  # basic open -> its admissible (num, w) fractions
    for t in r.elements():
        nbhd = sp.basic_open(t)
        if not nbhd or nbhd in neighborhoods or not set(nbhd) <= set(prime_list):
            continue
        denoms = [w for w in r.elements() if all(w not in q for q in nbhd)]
        neighborhoods[nbhd] = [(num, w) for w in denoms for num in r.elements()]

    all_fams = []
    total = 0
    for fam in itertools.product(*(range(stalks[p].rig.size) for p in prime_list)):
        total += 1
        good = True
        for p in prime_list:
            witnessed = any(
                p in nbhd
                and all(stalks[q].class_of(num, w) == fam[pos[q]] for q in nbhd)
                for nbhd, fracs in neighborhoods.items()
                for num, w in fracs
            )
            if not witnessed:
                good = False
                break
        if good:
            all_fams.append(fam)

    report.families = total
    report.local_families = len(all_fams)
    image_fams = set(image.values())
    report.bijective = (
        len(image) == loc.rig.size
        and len(image_fams) == loc.rig.size
        and image_fams == set(all_fams)
    )
    if not report.bijective:
        missing = set(all_fams) - image_fams
        extra = image_fams - set(all_fams)
        if missing:
            report.failures.append(("families not hit by fractions", sorted(missing)))
        if extra:
            report.failures.append(("fractions outside local families", sorted(extra)))

    # operation preservation, checked through representatives
    ok_ops = True
    rev = {v: k for k, v in image.items()}
    for c1 in range(loc.rig.size):
        for c2 in range(loc.rig.size):
            fam_sum = tuple(
                stalks[p].rig.add(image[c1][i], image[c2][i])
                for i, p in enumerate(prime_list)
            )
            fam_prod = tuple(
                stalks[p].rig.mul(image[c1][i], image[c2][i])
                for i, p in enumerate(prime_list)
            )
            if image[loc.rig.add(c1, c2)] != fam_sum or image[loc.rig.mul(c1, c2)] != fam_prod:
                ok_ops = False
                report.failures.append(("operations disagree", c1, c2))
    report.preserves_ops = ok_ops
    return report


def test_theorem1_matches_literal_oracle():
    rigs = [FiniteCRig.zmod(n) for n in range(1, 25)]
    rigs += [FiniteCRig.boolean(), FiniteCRig.tropical4()]
    rigs += [_product_rig(FiniteCRig.zmod(2), FiniteCRig.tropical4())]
    rigs += [localize(FiniteCRig.zmod(12), {1, 5, 7, 11}).rig]
    for r in rigs:
        for s in r.elements():
            assert theorem1_check(r, s) == _literal_theorem1_check(r, s), (r.name, s)


def test_theorem1_full_sweep_small():
    for n in (2, 3, 4, 6):
        r = FiniteCRig.zmod(n)
        for s in r.elements():
            rep = theorem1_check(r, s)
            assert rep.ok, (n, s, rep.failures)
    t4 = FiniteCRig.tropical4()
    for s in t4.elements():
        rep = theorem1_check(t4, s)
        assert rep.ok, (s, rep.failures)
