"""Lower bounds, exact golden-ratio arithmetic, progression predicates."""

from fractions import Fraction
from itertools import combinations
from math import ceil, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_lab.bounds import (
    GoldenValue,
    ap_cover_length,
    bound_attained,
    bound_satisfied,
    doubling_bound,
    evaluate_bounds,
    freiman_bound,
    freiman_lev_bound,
    golden_ratio_bound,
    halved_span_bound,
    is_arithmetic_progression,
    is_union_two_aps_same_diff,
    narrow_window_bound,
    BoundEntry,
    _entries,
)
from sumset_lab.core import IntegerSet, NormalizedSet, SetDomainError

from helpers import brute_two_ap, golden_leq_oracle, naive_double, naive_restricted


@st.composite
def normalized_sets(draw):
    """Normalized sets with k in [3, 12] and span l <= 40."""
    k = draw(st.integers(min_value=3, max_value=12))
    l = draw(st.integers(min_value=k - 1, max_value=40))
    interior = draw(st.sets(st.integers(min_value=1, max_value=l - 1),
                            min_size=k - 2, max_size=k - 2))
    elems = (0, *sorted(interior), l)
    g = 0
    for v in elems:
        g = gcd(g, v)
    return NormalizedSet(v // g for v in elems)

# ---------------------------------------------------------------------------
# frozen bound values


def test_doubling_bound_frozen():
    assert [doubling_bound(k) for k in (1, 2, 5, 9)] == [1, 3, 9, 17]


def test_freiman_bound_branches():
    # small span: l + k; wide span: 3k - 3
    assert freiman_bound(5, 6) == 11
    assert freiman_bound(5, 7) == 12  # l = 2k-3 boundary
    assert freiman_bound(5, 8) == 12  # wide branch: 3k-3
    assert freiman_bound(9, 30) == 24


def test_freiman_lev_bound_branches():
    assert freiman_lev_bound(9, 10) == 17  # l <= 2k-5: l + k - 2
    assert freiman_lev_bound(9, 13) == 20  # boundary l = 2k-5
    assert freiman_lev_bound(9, 14) == 20  # wide branch: 3k-7
    assert freiman_lev_bound(9, 22) == 20


def test_halved_span_bound_frozen():
    assert halved_span_bound(6, 8) == Fraction(19, 2)  # (l+3k-7)/2
    assert halved_span_bound(6, 9) == Fraction(10)     # l = 2k-3 boundary
    assert halved_span_bound(6, 10) == Fraction(10)    # wide: (5k-10)/2
    assert halved_span_bound(7, 30) == Fraction(25, 2)


def test_narrow_window_bound_hypotheses():
    assert narrow_window_bound(5, 6) == 8
    assert narrow_window_bound(5, 7) == 8
    with pytest.raises(SetDomainError):
        narrow_window_bound(4, 4)
    with pytest.raises(SetDomainError):
        narrow_window_bound(5, 8)


def test_golden_ratio_bound_branches():
    assert golden_ratio_bound(9, 12) == 19  # l <= 2k-5: l + k - 2
    g = golden_ratio_bound(9, 14)           # wide branch: (theta+1)k - 6
    assert isinstance(g, GoldenValue)
    assert (g.p, g.q) == (3 * 9 - 12, 9)


# ---------------------------------------------------------------------------
# exact golden arithmetic vs the decimal oracle


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=200))
@settings(max_examples=400, deadline=None)
def test_golden_leq_matches_decimal_oracle(k, n):
    g = GoldenValue(3 * k - 12, k)
    assert g.leq_int(n) == golden_leq_oracle(3 * k - 12, k, n)


def test_golden_value_ceil_and_float():
    g = GoldenValue(6, 6)  # k = 6: 3 + 3*sqrt(5) ~ 9.708
    assert g.ceil() == 10
    assert abs(float(g) - 9.7082039325) < 1e-9
    assert not g.eq_int(10)
    assert g.leq_int(10) and not g.leq_int(9)


def test_bound_satisfied_and_attained():
    assert bound_satisfied(10, 10) and bound_attained(10, 10)
    assert bound_satisfied(Fraction(19, 2), 10) and not bound_attained(Fraction(19, 2), 10)
    g = GoldenValue(6, 6)
    assert bound_satisfied(g, 10) and not bound_attained(g, 10)


# ---------------------------------------------------------------------------
# report assembly


def test_evaluate_bounds_frozen():
    report = evaluate_bounds(NormalizedSet((0, 1, 4, 5, 6, 9)))
    assert report.card_double == 16 and report.card_restricted == 11
    d = report.to_dict()["bounds"]
    assert set(d) == {
        "doubling", "freiman", "halved_span", "golden_ratio",
        "freiman_lev", "narrow_window",
    }
    assert all(e["satisfied"] for e in d.values())
    assert d["freiman_lev"]["tight"] and d["narrow_window"]["tight"]
    assert not d["doubling"]["tight"]


@given(normalized_sets())
@settings(max_examples=300, deadline=None)
def test_evaluate_bounds_cardinalities_match_naive(ns):
    report = evaluate_bounds(ns)
    assert report.card_double == len(naive_double(ns.elements))
    assert report.card_restricted == len(naive_restricted(ns.elements))


# each entry's public bound function, and the cardinality it is set against
PUBLIC_BOUNDS = {
    "doubling": ("double", lambda k, l: doubling_bound(k)),
    "freiman": ("double", freiman_bound),
    "halved_span": ("restricted", halved_span_bound),
    "golden_ratio": ("restricted", golden_ratio_bound),
    "freiman_lev": ("restricted", freiman_lev_bound),
    "narrow_window": ("restricted", narrow_window_bound),
}


def entry_of(target: str, bound, n: int) -> BoundEntry:
    """The report entry of a public bound's exact value, by the public API."""
    bound_x2 = None if isinstance(bound, GoldenValue) else int(2 * bound)
    return BoundEntry(target, bound_x2, float(bound),
                      bound_satisfied(bound, n), bound_attained(bound, n))


def test_report_entries_match_the_public_bounds():
    # the report builds its entries from the bounds' integer forms; each
    # must equal the entry of the public function's exact value, float
    # included, for every n near the bound
    for k in range(3, 41):
        for l in range(k - 1, 3 * k + 1):
            narrow = k >= 5 and 2 * k - 4 <= l <= 2 * k - 3
            for name, (target, public) in PUBLIC_BOUNDS.items():
                if name == "narrow_window" and not narrow:
                    assert name not in _entries(k, l, 0, 0)
                    continue
                bound = public(k, l)
                near = bound.ceil() if isinstance(bound, GoldenValue) else ceil(bound)
                for n in range(near - 3, near + 4):
                    got = _entries(k, l, n, n)[name]
                    want = entry_of(target, bound, n)
                    assert got == want and list(map(type, got)) == list(map(type, want)), (
                        name, k, l, n)


def test_evaluate_bounds_narrow_window_conditional():
    report = evaluate_bounds(NormalizedSet((0, 1, 2, 3, 4)))  # l = k - 1
    assert "narrow_window" not in report.entries


def test_evaluate_bounds_needs_k3():
    with pytest.raises(SetDomainError):
        evaluate_bounds(NormalizedSet((0, 1)))


# ---------------------------------------------------------------------------
# progression predicates


def test_is_ap_frozen():
    assert is_arithmetic_progression(IntegerSet((3, 5, 7, 9))) == (True, 2)
    assert is_arithmetic_progression(IntegerSet((0, 1, 3))) == (False, None)
    assert is_arithmetic_progression(IntegerSet((4,))) == (True, None)


def test_ap_cover_length():
    assert ap_cover_length(NormalizedSet((0, 1, 7))) == 8


def test_two_ap_frozen_probes():
    assert is_union_two_aps_same_diff(IntegerSet((0, 1, 5, 11, 24))) == (False, None)
    assert is_union_two_aps_same_diff(IntegerSet((0, 1, 2, 3))) == (True, 1)
    assert is_union_two_aps_same_diff(IntegerSet((0, 3, 4, 7, 8, 10, 11, 14, 15)))[0] is False
    ok, d = is_union_two_aps_same_diff(IntegerSet((0, 1, 3, 4, 7, 10)))
    assert ok and d == 3  # {1,4,7,10} and {0,3} share difference 3
    # {0,5,10,15} and {12,17,22}: gaps 2, 3 and 5, the most the test allows
    assert is_union_two_aps_same_diff(IntegerSet((0, 5, 10, 12, 15, 17, 22))) == (True, 5)
    # gaps 1, 2, 3 and 4: refused before any difference is tried
    assert is_union_two_aps_same_diff(IntegerSet((0, 1, 3, 6, 10))) == (False, None)


def test_a_union_of_two_runs_has_at_most_three_gaps():
    # the argument behind the test's refusal of sets with four or more
    # distinct neighbour gaps, checked on every union of two d-runs
    for d in range(1, 7):
        for s1, s2 in combinations(range(13), 2):
            for n1 in range(1, 6):
                for n2 in range(1, 6):
                    elems = sorted({s1 + i * d for i in range(n1)} | {s2 + j * d for j in range(n2)})
                    gaps = {y - x for x, y in zip(elems, elems[1:])}
                    assert len(gaps) <= 3, (d, s1, n1, s2, n2)
                    assert is_union_two_aps_same_diff(IntegerSet(elems))[0]


def _runs(elems, d):
    """Maximal d-runs of elems: an element starts one when v - d is absent."""
    have = set(elems)
    return sum(1 for v in elems if v - d not in have)


@given(st.sets(st.integers(min_value=1, max_value=201), min_size=2, max_size=14))
@settings(max_examples=300, deadline=None)
def test_two_ap_counts_runs_on_sets_without_zero(values):
    elems = sorted(values)
    want = next(((True, d) for d in range(1, elems[-1] - elems[0] + 1)
                 if _runs(elems, d) <= 2), (False, None))
    assert is_union_two_aps_same_diff(IntegerSet(elems)) == want


@given(st.sets(st.integers(min_value=0, max_value=28), min_size=2, max_size=9))
@settings(max_examples=250, deadline=None)
def test_two_ap_matches_bipartition_oracle(values):
    got = is_union_two_aps_same_diff(IntegerSet(sorted(values)))
    want = brute_two_ap(values)
    assert got[0] == want[0]
    if got[0]:
        assert got[1] == want[1]


def test_two_ap_matches_bipartition_oracle_on_every_small_set():
    # the difference search stops at span - k + 3; every set from 0 with
    # k <= 8 up to span 10, and k <= 5 up to span 16 (k = 2 and 3 too)
    for span in range(1, 17):
        for k in range(2, (8 if span <= 10 else 5) + 1):
            for interior in combinations(range(1, span), k - 2):
                e = (0, *interior, span)
                got = is_union_two_aps_same_diff(IntegerSet(e))
                assert got == brute_two_ap(e), e
