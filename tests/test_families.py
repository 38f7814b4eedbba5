"""Extremal family generators and catalogs."""

import re
from math import gcd

import pytest

from sumset_lab.core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    parse_set_literal,
    restricted_size,
    restricted_sumset,
)
from sumset_lab.families import (
    FAMILY_KINDS,
    FamilySpec,
    dense_extremal_shape,
    extremal_catalog,
    family_members,
    flagged_sporadics,
    gen_even_odd,
    gen_four_step,
    gen_k7_below_floor,
    gen_mod3_pair,
    gen_mod3_shift,
    gen_mod3_wide,
    gen_two_intervals,
    has_locked_fourth,
    sporadic_catalog,
    top_pair_catalog,
    top_pair_family,
)


# ---------------------------------------------------------------------------
# generator examples (frozen)


def test_gen_mod3_wide_frozen():
    assert gen_mod3_wide(6).elements == (0, 1, 3, 4, 7, 10)
    assert gen_mod3_wide(7).elements == (0, 1, 3, 4, 6, 9, 12)
    assert gen_mod3_wide(9).elements == (0, 1, 3, 4, 6, 7, 10, 13, 16)
    with pytest.raises(SetDomainError):
        gen_mod3_wide(8)  # k = 2 (mod 3)
    with pytest.raises(SetDomainError):
        gen_mod3_wide(5)


def test_gen_two_intervals_frozen():
    assert gen_two_intervals(5, 6).elements == (0, 1, 2, 6, 7)
    assert gen_two_intervals(4, 4).elements == (0, 1, 4, 5)
    with pytest.raises(SetDomainError):
        gen_two_intervals(5, 8)  # theta > 2k-4


def test_gen_even_odd_frozen():
    assert gen_even_odd(5, 1).elements == (0, 2, 3, 5, 7)
    assert gen_even_odd(6, 3).elements == (0, 2, 4, 6, 7, 9)
    with pytest.raises(SetDomainError):
        gen_even_odd(5, 3)  # theta > k-3


def test_gen_mod3_pair_frozen():
    assert gen_mod3_pair(5, 2).elements == (0, 3, 4, 6, 7)
    assert gen_mod3_pair(7, 3).elements == (0, 3, 5, 6, 8, 9, 11)
    with pytest.raises(SetDomainError):
        gen_mod3_pair(6, 2)  # k divisible by 3


def test_gen_four_step_frozen():
    assert gen_four_step(6).elements == (0, 1, 4, 5, 8, 9)
    assert gen_four_step(4).elements == (0, 1, 4, 5)
    with pytest.raises(SetDomainError):
        gen_four_step(5)  # odd k


def test_gen_mod3_shift_frozen():
    assert gen_mod3_shift(6, 5).elements == (0, 3, 5, 6, 8, 9)
    assert gen_mod3_shift(6, 1).elements == (0, 1, 3, 4, 6, 9)
    with pytest.raises(SetDomainError):
        gen_mod3_shift(6, 3)  # theta divisible by 3
    with pytest.raises(SetDomainError):
        gen_mod3_shift(7, 1)  # k not divisible by 3


# ---------------------------------------------------------------------------
# every family member is extremal (span 2k-3, restricted size 3k-7)


@pytest.mark.parametrize("k", range(4, 13))
def test_all_members_extremal(k):
    for name in ("two_intervals", "even_odd", "mod3_pair", "four_step", "mod3_shift"):
        for s in family_members(name, k):
            assert s.k == k and s.l == 2 * k - 3, (name, s.elements)
            assert restricted_size(s.elements) == 3 * k - 7, (name, s.elements)


def test_mod3_wide_members_attain_dense_floor():
    for k in (6, 7, 9, 10, 12, 13):
        s = gen_mod3_wide(k)
        assert s.l == 2 * k - 2
        assert restricted_size(s.elements) == 3 * k - 7


def test_sporadic_catalog_frozen():
    cat = sporadic_catalog()
    assert len(cat) == 34
    by_k = {}
    for s in cat:
        by_k.setdefault(s.k, []).append(s)
        assert s.l == 2 * s.k - 3
        assert restricted_size(s.elements) == 3 * s.k - 7
    assert {k: len(v) for k, v in by_k.items()} == {6: 2, 7: 8, 8: 8, 9: 12, 10: 4}


def test_flagged_sporadic_is_k10_completion():
    (f,) = flagged_sporadics()
    assert f.elements == (0, 3, 4, 6, 10, 11, 13, 14, 17)
    completed = IntegerSet(sorted(set(f.elements) | {7}))
    assert restricted_size(completed.elements) == 3 * 10 - 7
    assert completed.elements[-1] == 2 * 10 - 3
    # and the completion is not produced by any cataloged family
    assert completed.elements not in {s.elements for s in extremal_catalog(10)}


# ---------------------------------------------------------------------------
# catalogs


def test_extremal_catalog_counts_frozen():
    assert [len(extremal_catalog(k)) for k in range(4, 11)] == [2, 6, 13, 18, 22, 30, 22]


def test_extremal_catalog_collisions_only_at_k4():
    # k=4 is the only cardinality where two kinds build the same set
    assert {s.elements for s in extremal_catalog(4)} == {(0, 1, 4, 5), (0, 2, 3, 5)}
    for k in range(5, 13):
        members = []
        for name in ("two_intervals", "even_odd", "mod3_pair", "four_step",
                     "mod3_shift", "sporadic"):
            members += [s.elements for s in family_members(name, k)]
        assert len(members) == len(set(members)), f"collision at k={k}"


def test_family_spec_validation():
    assert FamilySpec("four_step", 6).member().elements == (0, 1, 4, 5, 8, 9)
    assert FamilySpec("even_odd", 5, 1).member().elements == (0, 2, 3, 5, 7)
    with pytest.raises(SetDomainError):
        FamilySpec("four_step", 5)  # inapplicable k
    with pytest.raises(SetDomainError):
        FamilySpec("even_odd", 5)  # theta missing
    with pytest.raises(SetDomainError):
        FamilySpec("even_odd", 5, 9)  # theta out of range
    with pytest.raises(SetDomainError):
        FamilySpec("mod3_shift", 7, 1)  # inapplicable k despite plausible theta
    with pytest.raises(SetDomainError):
        FamilySpec("unknown_kind", 5)
    assert FamilySpec("sporadic", 6, sporadic_index=1).member().k == 6
    with pytest.raises(SetDomainError):
        FamilySpec("sporadic", 5)
    with pytest.raises(SetDomainError):
        FamilySpec("sporadic", 6, sporadic_index=2)


def test_family_spec_refuses_an_ignored_theta():
    # a kind without a theta parameter would drop it and still label the
    # member with it
    for kind, k in (("mod3_wide", 6), ("four_step", 6), ("sporadic", 6)):
        with pytest.raises(SetDomainError, match="takes no theta"):
            FamilySpec(kind, k, 5)
        FamilySpec(kind, k)
    with pytest.raises(SetDomainError, match="takes no theta"):
        FamilySpec("sporadic", 6, 0, sporadic_index=1)


def test_family_kinds_registry():
    assert set(FAMILY_KINDS) == {
        "mod3_wide", "two_intervals", "even_odd", "mod3_pair", "four_step",
        "mod3_shift",
    }
    assert FAMILY_KINDS["two_intervals"].thetas(5) == (5, 6)
    assert FAMILY_KINDS["even_odd"].thetas(6) == (1, 2, 3)
    assert family_members("mod3_wide", 8) == ()


# ---------------------------------------------------------------------------
# top-pair regime


def test_top_pair_family_frozen():
    assert top_pair_family(5).elements == (0, 1, 2, 6, 7)
    assert top_pair_family(4).elements == (0, 1, 4, 5)


def test_top_pair_catalog_counts():
    # one interval family plus the listed sporadics at each k
    assert [len(top_pair_catalog(k)) for k in range(4, 11)] == [1, 1, 2, 4, 4, 6, 2]
    for k in range(4, 11):
        for s in top_pair_catalog(k):
            assert s.k == k and s.l == 2 * k - 3
            assert restricted_size(s.elements) == 3 * k - 7


@pytest.mark.parametrize("k", range(4, 13))
def test_top_pair_catalog_covers_regime(k):
    """The extremal span-(2k-3) sets with second-largest 2k-4 and
    third-largest below 2k-6, read off classify_extremal, are exactly the
    top-pair catalog, plus the four-step set at even k (which the catalog
    omits because it is already a named family)."""
    from sumset_lab.verify import classify_extremal

    found = set()
    for s in classify_extremal(k, 2 * k - 3):
        e = s.elements
        assert restricted_size(e) == 3 * k - 7
        if e[k - 2] == 2 * k - 4 and e[k - 3] < 2 * k - 6:
            found.add(e)
    expected = {s.elements for s in top_pair_catalog(k)}
    if k % 2 == 0:
        expected.add(gen_four_step(k).elements)
    assert found == expected


@pytest.mark.parametrize("k", range(5, 9))
def test_locked_fourth_law_on_extremal_sets(k):
    """Every extremal span-(2k-3) set whose top three elements are
    2k-6, 2k-5, 2k-3 has its fourth-from-top element locked at 2k-8."""
    from sumset_lab.verify import EnumerationQuery, enumerate_sets

    qualifying = 0
    for s in enumerate_sets(EnumerationQuery.exact(k, 2 * k - 3, ("gcd_one",))):
        e = s.elements
        if restricted_size(e) != 3 * k - 7:
            continue
        if e[k - 3] == 2 * k - 6 and e[k - 2] == 2 * k - 5:
            qualifying += 1
            assert has_locked_fourth(NormalizedSet(IntegerSet(e))), e
    assert qualifying > 0


def test_has_locked_fourth():
    # the wide-generator tail at k=6: a_{k-3}=6, a_{k-2}=7, a_{k-1}=9
    a = NormalizedSet((0, 2, 4, 6, 7, 9))
    assert has_locked_fourth(a)  # a_{k-4} = 4 = 2k-8
    with pytest.raises(SetDomainError):
        has_locked_fourth(NormalizedSet((0, 1, 3, 4, 7, 10)))  # wrong top shape


def test_dense_extremal_shape():
    g6 = gen_mod3_wide(6)
    assert dense_extremal_shape(g6)
    expected = IntegerSet((1, 3, 4, 5, 7, 8, 10, 11, 13, 14, 17))
    assert restricted_sumset(g6).elements == expected.elements
    with pytest.raises(SetDomainError):
        dense_extremal_shape(NormalizedSet((0, 1, 3, 4, 8)))  # not extremal


def test_k7_family_below_the_floor():
    from sumset_lab.bounds import freiman_lev_bound
    from sumset_lab.verify import verify_conjecture

    members = {}
    for c in range(4, 301):
        for a in range(1, (c + 1) // 2):
            if gcd(a, c) != 1:
                continue
            s = gen_k7_below_floor(c, a)
            assert s.k == 7 and gcd(*s.elements) == 1, (c, a)
            assert restricted_size(s.elements) == 13, (c, a)
            # one below 3k - 7 once the top 2c reaches 2k - 4; at c = 4
            # the floor is l + k - 2 = 13 and the set attains it
            assert (13 < freiman_lev_bound(7, 2 * c)) == (c >= 5), (c, a)
            members[s.elements] = c
    assert len(members) == 13697
    # c = 3 would give the interval [0, 6], with |2^A| = 11
    with pytest.raises(SetDomainError):
        gen_k7_below_floor(3, 1)
    with pytest.raises(SetDomainError):
        gen_k7_below_floor(10, 5)
    with pytest.raises(SetDomainError):
        gen_k7_below_floor(10, 4)

    observed = set()
    for line in verify_conjecture(9, 22).observations:
        observed.add(parse_set_literal(re.search(r"\{[\d,]*\}", line).group()).elements)
    assert len(observed) == 18
    assert observed == {e for e, c in members.items() if 2 * c <= 22 and c >= 5}
