import itertools
import re

import pytest

from cycwitt.spectra import (
    FiniteCRig,
    Ideal,
    all_ideals,
    finite_rig_by_name,
    ideal_generated,
    localize,
    radical,
    spec,
    theorem1_check,
)


def test_construction_validates_tables():
    with pytest.raises(ValueError):
        # addition not commutative
        FiniteCRig([[0, 1], [0, 1]], [[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        # multiplication table without a unit
        FiniteCRig([[0, 1], [1, 1]], [[0, 0], [0, 0]])


def test_builtin_rigs_are_valid():
    FiniteCRig.boolean()
    FiniteCRig.tropical4()
    for n in range(1, 13):
        FiniteCRig.zmod(n)


def test_rig_names_resolver():
    assert finite_rig_by_name("boolean").size == 2
    assert finite_rig_by_name("zmod:9").size == 9
    assert finite_rig_by_name("tropical4").size == 4
    with pytest.raises(ValueError):
        finite_rig_by_name("tropical-unit")


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


def test_all_ideals_of_zmod_match_divisors():
    from cycwitt.arith import divisors

    for n in range(2, 25):
        r = FiniteCRig.zmod(n)
        ideals = all_ideals(r)
        expected = {
            frozenset(range(0, n, d)) for d in divisors(n)
        }
        assert set(ideals) == expected


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
        assert radical(z6, Ideal(z6, p), sp).elements == p


def test_galois_correspondence_closed_sets():
    for name in ["zmod:12", "zmod:18", "tropical4"]:
        r = finite_rig_by_name(name)
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
        sp = spec(r)
        for elems in all_ideals(r):
            radical(r, Ideal(r, elems), sp)  # raises RadicalMismatch on a bug
    t4 = FiniteCRig.tropical4()
    sp4 = spec(t4)
    for elems in all_ideals(t4):
        radical(t4, Ideal(t4, elems), sp4)


def test_localize_at_units_is_isomorphic_copy():
    z7 = FiniteCRig.zmod(7)
    units = frozenset(x for x in range(1, 7))
    loc = localize(z7, units)
    assert loc.rig.size == 7
    # canonical map is bijective and operation-preserving here
    img = [loc.canonical(x) for x in z7.elements()]
    assert len(set(img)) == 7
    for x, y in itertools.product(z7.elements(), repeat=2):
        assert loc.canonical(z7.add(x, y)) == loc.rig.add(img[x], img[y])
        assert loc.canonical(z7.mul(x, y)) == loc.rig.mul(img[x], img[y])


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
                frozenset(x for x in r.elements() if loc.canonical(x) in q)
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
