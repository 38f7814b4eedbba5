"""Core kernel: set types, sumsets, normalization, parsing."""

import pickle
from functools import reduce
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_lab.core import (
    MAX_ELEMENT,
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    double_mask,
    double_size,
    elements_of,
    format_set_literal,
    mask_of,
    normalize,
    parse_set_literal,
    profile,
    reflect,
    restricted_mask,
    restricted_size,
    restricted_sumset,
    sumset,
    _set_masks,
    _sumset_masks,
)

from helpers import QUERY_SEEDS, naive_double, naive_restricted, query_sets

small_sets = st.sets(st.integers(min_value=0, max_value=160), min_size=2, max_size=16)


# ---------------------------------------------------------------------------
# frozen examples


def test_restricted_sumset_frozen():
    a = NormalizedSet((0, 1, 3, 4, 7, 10))
    assert restricted_sumset(a).elements == (1, 3, 4, 5, 7, 8, 10, 11, 13, 14, 17)
    assert restricted_size(a.elements) == 11


def test_double_sumset_frozen():
    a = IntegerSet((0, 1, 4))
    assert sumset(a, a).elements == (0, 1, 2, 4, 5, 8)
    assert double_size(a.elements) == 6


def test_sumset_of_two_different_sets():
    a = IntegerSet((0, 1))
    b = IntegerSet((0, 10, 20))
    assert sumset(a, b).elements == (0, 1, 10, 11, 20, 21)


def test_profile_exceptional_frozen():
    # the low window [1, 2k-4] = [1, 8] minus the head's restricted sums
    p = profile(NormalizedSet((0, 1, 2, 3, 4, 5)))
    assert p.exceptional.elements == (8,)
    p = profile(NormalizedSet((0, 1, 3, 4, 7, 10)))
    assert p.exceptional.elements == (2, 6)


def test_profile_small_k_has_no_window():
    p = profile(NormalizedSet((0, 1)))
    assert p.exceptional is None


def test_restricted_needs_two_elements():
    with pytest.raises(SetDomainError):
        restricted_sumset(IntegerSet((5,)))


# ---------------------------------------------------------------------------
# container behavior


def test_integer_set_dedupes_and_sorts():
    a = IntegerSet([4, 0, 4, 1])
    assert a.elements == (0, 1, 4)
    assert a.mask == 0b10011
    assert len(a) == 3
    assert 4 in a and 2 not in a
    assert list(a) == [0, 1, 4]
    assert repr(a) == "IntegerSet({0,1,4})"


def test_integer_set_rejects_out_of_range():
    with pytest.raises(SetDomainError):
        IntegerSet((-1, 3))
    with pytest.raises(SetDomainError):
        IntegerSet((0, MAX_ELEMENT + 1))


@pytest.mark.parametrize("elements", [
    (0, 1.5, 2.9),      # truncated by int() to {0,1,2}
    (0, 2.0),           # integral, but still a float
    ("3", 0),           # parsed by int() to {0,3}
    (0, None),
])
@pytest.mark.parametrize("cls", [IntegerSet, NormalizedSet])
def test_integer_set_refuses_non_integer_elements(cls, elements):
    with pytest.raises(SetDomainError, match="must be integers"):
        cls(elements)


def test_integer_set_takes_bool_as_the_int_it_is():
    assert IntegerSet((True, 3)).elements == (1, 3)
    assert NormalizedSet((0, True, False, 3)) == NormalizedSet((0, 1, 3))
    with pytest.raises(SetDomainError):
        NormalizedSet((0, 1.7, True))  # truncated by int() to {0,1}


def test_from_mask_bypasses_range_check():
    # sumset outputs legitimately exceed MAX_ELEMENT
    big = IntegerSet.from_mask(1 << (2 * MAX_ELEMENT))
    assert big.elements == (2 * MAX_ELEMENT,)


def test_only_external_input_is_held_to_the_maximum():
    # a sumset of sets within MAX_ELEMENT may reach 2 * MAX_ELEMENT, and
    # is returned as it is; the constructor refuses the same elements
    assert MAX_ELEMENT == 4096
    assert 4097 in restricted_sumset(NormalizedSet((0, 1, 4096))).elements
    assert sumset(IntegerSet((0, 4096)), IntegerSet((0, 4096))).elements == (0, 4096, 8192)
    with pytest.raises(SetDomainError, match="element 4097 exceeds the supported maximum 4096"):
        IntegerSet((4097,))


def test_normalized_set_requirements():
    assert NormalizedSet((0, 2, 3)).k == 3
    with pytest.raises(SetDomainError):
        NormalizedSet((1, 2, 3))  # min not 0
    with pytest.raises(SetDomainError):
        NormalizedSet((0, 2, 4))  # gcd 2
    with pytest.raises(SetDomainError):
        NormalizedSet((0,))  # too small


def test_normalized_set_is_an_integer_set():
    ns = NormalizedSet((0, 1, 3))
    plain = IntegerSet((0, 1, 3))
    assert isinstance(ns, IntegerSet)
    assert ns.elements == plain.elements and ns.mask == plain.mask
    # one set type, two kinds: never equal across them, hashed alike
    assert ns != plain and plain != ns
    assert hash(ns) == hash(plain)
    assert ns == NormalizedSet(plain) and len({ns, NormalizedSet((0, 1, 3))}) == 1
    assert repr(ns) == "NormalizedSet({0,1,3})"
    assert repr(plain) == "IntegerSet({0,1,3})"
    with pytest.raises(SetDomainError):
        NormalizedSet(IntegerSet((0, 2, 4)))  # gcd 2, also from an IntegerSet
    with pytest.raises(AttributeError):
        ns.extra = 1
    with pytest.raises(AttributeError):
        ns.k = 5


def test_normalized_set_pickles_as_itself():
    ns = NormalizedSet((0, 1, 3, 4, 7, 10))
    back = pickle.loads(pickle.dumps(ns))
    assert type(back) is NormalizedSet
    assert back == ns and back.k == 6 and back.l == 10


def test_from_mask_and_range_rules_of_normalized_set():
    # from_mask never skips the normalized checks: it builds a plain set
    built = NormalizedSet.from_mask(0b110)
    assert type(built) is IntegerSet and built.elements == (1, 2)
    # an IntegerSet from a trusted mask carries no range check, so a
    # NormalizedSet built from it keeps its elements past MAX_ELEMENT
    wide = IntegerSet.from_mask(1 | 2 | 1 << 5000)
    ns = NormalizedSet(wide)
    assert ns.elements == (0, 1, 5000) and ns.l == 5000
    # literal input is still range-checked
    with pytest.raises(SetDomainError):
        NormalizedSet((0, 1, MAX_ELEMENT + 1))


def test_format_set_literal_takes_any_ascending_ints():
    elems = (0, 1, 3, 4, 7, 10)
    assert (
        format_set_literal(elems)
        == format_set_literal(IntegerSet(elems))
        == format_set_literal(NormalizedSet(elems))
        == "{0,1,3,4,7,10}"
    )
    assert format_set_literal(()) == "{}"


def test_normalize_frozen():
    ns, offset, scale = normalize(IntegerSet((6, 10, 14)))
    assert ns.elements == (0, 1, 2)
    assert (offset, scale) == (6, 4)


def test_reflect_frozen():
    assert reflect(NormalizedSet((0, 1, 4))).elements == (0, 3, 4)


def test_parse_and_format():
    a = parse_set_literal("{0, 1, 4, 9}")
    assert a.elements == (0, 1, 4, 9)
    assert format_set_literal(a) == "{0,1,4,9}"
    assert parse_set_literal("{}").elements == ()
    with pytest.raises(SetDomainError):
        parse_set_literal("0,1,4")
    with pytest.raises(SetDomainError):
        parse_set_literal("{0,x}")


def test_mask_helpers_roundtrip():
    elems = (0, 3, 5, 11)
    assert elements_of(mask_of(elems)) == elems


def _elements_bit_by_bit(mask: int) -> tuple[int, ...]:
    # the lowest-bit loop that elements_of replaced
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@given(st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**8193),
    st.sets(st.integers(min_value=0, max_value=8193)).map(mask_of),
))
@settings(max_examples=300, deadline=None)
def test_elements_of_matches_the_bit_loop(mask):
    assert elements_of(mask) == _elements_bit_by_bit(mask)


# ---------------------------------------------------------------------------
# cross-checks against the naive oracles


@given(small_sets)
@settings(max_examples=300, deadline=None)
def test_double_mask_matches_naive(values):
    elems = tuple(sorted(values))
    assert set(elements_of(double_mask(mask_of(elems), elems))) == naive_double(elems)


@given(small_sets)
@settings(max_examples=300, deadline=None)
def test_restricted_mask_matches_naive(values):
    elems = tuple(sorted(values))
    got = set(elements_of(restricted_mask(mask_of(elems), elems)))
    assert got == naive_restricted(elems)


@given(small_sets)
@settings(max_examples=300, deadline=None)
def test_sumset_masks_match_naive(values):
    # one sweep gives both masks
    elems = tuple(sorted(values))
    double, restricted = _sumset_masks(mask_of(elems), elems)
    assert set(elements_of(double)) == naive_double(elems)
    assert set(elements_of(restricted)) == naive_restricted(elems)


@given(small_sets)
@settings(max_examples=200, deadline=None)
def test_restricted_subset_of_double(values):
    elems = tuple(sorted(values))
    r = restricted_mask(mask_of(elems), elems)
    d = double_mask(mask_of(elems), elems)
    assert r & ~d == 0


@given(small_sets)
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_and_invariant(values):
    a = IntegerSet(sorted(values))
    ns, offset, scale = normalize(a)
    assert ns.elements[0] == 0
    assert scale >= 1
    assert tuple(offset + scale * v for v in ns.elements) == a.elements
    again, off2, sc2 = normalize(ns)
    assert again.elements == ns.elements and (off2, sc2) == (0, 1)
    # sumset sizes are affine-invariant
    assert restricted_size(ns.elements) == restricted_size(a.elements)
    assert double_size(ns.elements) == double_size(a.elements)


@given(small_sets)
@settings(max_examples=200, deadline=None)
def test_reflect_involution_preserves_sizes(values):
    ns, _, _ = normalize(IntegerSet(sorted(values)))
    r = reflect(ns)
    assert reflect(r).elements == ns.elements
    assert restricted_size(r.elements) == restricted_size(ns.elements)
    assert double_size(r.elements) == double_size(ns.elements)


def naive_normalize(values) -> tuple[tuple[int, ...], int, int]:
    """(elements, offset, scale) of the normalized form, by division."""
    e = sorted(set(values))
    offset = e[0]
    scale = reduce(gcd, (v - offset for v in e))
    return tuple((v - offset) // scale for v in e), offset, scale


def assert_normalizes_like_the_oracle(values) -> None:
    ns, offset, scale = normalize(IntegerSet(values))
    elems, want_offset, want_scale = naive_normalize(values)
    assert type(ns) is NormalizedSet
    assert (ns.elements, offset, scale) == (elems, want_offset, want_scale)
    assert ns.mask == mask_of(elems) == mask_of(ns.elements)
    assert ns == NormalizedSet(elems) and ns._masks is None and ns._head is None


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_normalize_matches_the_oracle_on_query_sets(seed):
    scales = set()
    for raw in query_sets(seed):
        assert_normalizes_like_the_oracle(raw)
        scales.add(naive_normalize(raw)[2])
    assert {1, 2, 3, 4, 5} <= scales


@st.composite
def dilated_sets(draw):
    """A set of at least two elements, dilated by 1..5 and translated by
    any offset that keeps it within MAX_ELEMENT."""
    base = sorted(draw(st.sets(st.integers(min_value=0, max_value=200), min_size=2,
                               max_size=20)))
    scale = draw(st.integers(min_value=1, max_value=5))
    offset = draw(st.integers(min_value=0, max_value=MAX_ELEMENT - scale * base[-1]))
    return [offset + scale * v for v in base]


@given(dilated_sets())
@settings(max_examples=400, deadline=None)
def test_normalize_matches_the_oracle(values):
    assert_normalizes_like_the_oracle(values)


def test_normalize_at_the_top_of_the_range():
    # scale 1 with the largest offsets: the mask is shifted down by it
    for values in ((MAX_ELEMENT - 1, MAX_ELEMENT), (0, MAX_ELEMENT),
                   (MAX_ELEMENT - 9, MAX_ELEMENT - 5, MAX_ELEMENT)):
        assert_normalizes_like_the_oracle(values)


# ---------------------------------------------------------------------------
# the per-set context


def test_context_masks_match_naive_oracles():
    # every normalized set with k <= 7 and l <= 14: the one head sweep
    # gives the set's two sumsets and its head's restricted sumset
    seen_k = set()
    for l in range(1, 15):
        for k in range(2, min(7, l + 1) + 1):
            for interior in combinations(range(1, l), k - 2):
                t = (0, *interior, l)
                if gcd(*t) != 1:
                    continue
                ns = NormalizedSet(t)
                assert ns._masks is None
                double, restricted, head_reach = _set_masks(ns)
                assert set(elements_of(double)) == naive_double(t)
                assert set(elements_of(restricted)) == naive_restricted(t)
                assert set(elements_of(head_reach)) == naive_restricted(t[:-1])
                assert _set_masks(ns) is ns._masks
                seen_k.add(k)
    assert seen_k == set(range(2, 8))


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_context_leaves_identity_alone(seed):
    for raw in query_sets(seed):
        ns = normalize(IntegerSet(raw))[0]
        fresh = NormalizedSet(ns.elements)
        profile(ns)
        assert ns._masks is not None and fresh._masks is None
        assert ns == fresh and fresh == ns and ns != IntegerSet(ns.elements)
        assert hash(ns) == hash(fresh) == hash(ns.mask)
        assert repr(ns) == repr(fresh) == f"NormalizedSet({format_set_literal(ns)})"
        # a pickle carries the carrier only
        assert pickle.dumps(ns) == pickle.dumps(fresh)
        with pytest.raises(AttributeError):
            ns.extra = 1
