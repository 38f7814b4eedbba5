"""Structural checkers: exceptional sets, gap patterns, witnesses, splits."""

import pickle
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumset_lab import bounds, core, structure
from sumset_lab.bounds import evaluate_bounds
from sumset_lab.core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    double_mask,
    mask_of,
    normalize,
    profile,
    reflect,
    restricted_size,
)
from sumset_lab.families import gen_mod3_wide
from sumset_lab.structure import (
    check_exceptional_points,
    decompose,
    diff3_exception_case,
    exceptional_growth_ok,
    exceptional_profile,
    find_admissible_split,
    gap_patterns,
    has_dense_prefix,
    matches_consecutive_exception,
    offset_count_bound,
    split_at,
    tail_pair_counts_ok,
    top_gap_candidates,
    top_gap_structure,
    witness_profile,
)

from helpers import (
    QUERY_SEEDS,
    benchmark_queries,
    enumerate_bruteforce,
    frozen_diff3_case,
    frozen_diff3_shapes,
    naive_decompose,
    naive_witnesses,
    query_sets,
)

GEN6 = NormalizedSet((0, 1, 3, 4, 7, 10))
# k=13 set whose window misses a distance-3 pair (found by search, frozen)
DIFF3_13 = NormalizedSet((0, 1, 3, 4, 6, 9, 10, 12, 13, 15, 18, 21, 24))
# consecutive-gap set from the k=8 sweep (frozen)
CONSEC_8 = NormalizedSet((0, 1, 2, 5, 6, 7, 11, 14))


# ---------------------------------------------------------------------------
# dense-prefix gate


def test_has_dense_prefix():
    assert has_dense_prefix(GEN6)
    assert not has_dense_prefix(NormalizedSet((0, 1, 4, 5, 6, 9)))  # top too low
    assert not has_dense_prefix(NormalizedSet((0, 2, 3, 5, 7, 10)))  # a_1 = 2 >= 2


def test_checkers_reject_out_of_regime():
    with pytest.raises(SetDomainError):
        exceptional_profile(NormalizedSet((0, 1, 4, 5, 6, 9)))


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_exceptional_profile_refuses_every_query_set_outside_the_regime(seed):
    refused = 0
    for raw in query_sets(seed):
        ns = normalize(IntegerSet(raw))[0]
        e, k = ns.elements, ns.k
        if e[-1] >= 2 * k - 2 and all(e[i] < 2 * i for i in range(1, k - 1)):
            continue
        refused += 1
        profile(ns)  # a filled context does not let it through
        with pytest.raises(SetDomainError):
            exceptional_profile(ns)
        assert ns._head is None
    assert refused


DETACHED_TOP_CHECKERS = {
    "exceptional_profile": exceptional_profile,
    "check_exceptional_points": check_exceptional_points,
    "exceptional_growth_ok": exceptional_growth_ok,
    "tail_pair_counts_ok": lambda a: tail_pair_counts_ok(a, 2, 1),
    "gap_patterns": gap_patterns,
    "matches_consecutive_exception": matches_consecutive_exception,
    "diff3_exception_case": diff3_exception_case,
    "top_gap_structure": top_gap_structure,
}


@pytest.mark.parametrize(
    "elems", [(0, 1, 4, 5, 6, 9), (0, 2, 3, 10)], ids=["top_below_2k-2", "a1_breaks_growth"]
)
@pytest.mark.parametrize("name", DETACHED_TOP_CHECKERS)
def test_every_detached_top_checker_rejects_out_of_regime(name, elems):
    with pytest.raises(SetDomainError):
        DETACHED_TOP_CHECKERS[name](NormalizedSet(elems))


# ---------------------------------------------------------------------------
# exceptional profile and pointwise laws


def test_exceptional_profile_frozen():
    prof = exceptional_profile(GEN6)
    assert prof.b_values.elements == (2, 6)
    assert prof.m == 2
    # offsets measured against b_{m-1} = 2: 8+1=9 missed, 8+2=10 covered
    assert prof.d_values.elements == (2,)
    assert prof.c_values.elements == (1,)


def test_exceptional_profile_single_b_has_no_offsets():
    prof = exceptional_profile(NormalizedSet((0, 1, 4)))
    assert prof.b_values.elements == (2,)
    assert prof.m == 1
    assert prof.d_values.elements == () and prof.c_values.elements == ()


def test_check_exceptional_points_clean():
    assert check_exceptional_points(GEN6) == []
    assert check_exceptional_points(NormalizedSet((0, 1, 4))) == []
    assert check_exceptional_points(DIFF3_13) == []


def test_exceptional_growth_frozen():
    assert exceptional_growth_ok(GEN6)  # (2, 6): 6 >= 2*2+2
    assert exceptional_growth_ok(DIFF3_13)  # (2, 8, 20)


def test_tail_pair_counts_frozen():
    # b=2 < k-2=4, u=1: 2k-4+u = 9 missed, interval [3,6] holds {3,4}
    assert tail_pair_counts_ok(GEN6, 2, 1) is True
    # u=2: 2k-4+u = 10 is covered -> vacuous
    assert tail_pair_counts_ok(GEN6, 2, 2) is True
    # out of hypothesis: b=6 is not below k-2
    assert tail_pair_counts_ok(GEN6, 6, 1) is None
    # out of hypothesis: b not in B
    assert tail_pair_counts_ok(GEN6, 4, 1) is None
    assert tail_pair_counts_ok(GEN6, 2, 3) is None  # u > b


# ---------------------------------------------------------------------------
# gap patterns and their exceptional shapes


def test_gap_patterns_frozen():
    gp = gap_patterns(GEN6)
    assert gp.window == (9, 10)
    assert gp.missing.elements == (9,)
    assert not (gp.has_consecutive or gp.has_diff2 or gp.has_diff3)


def test_gap_patterns_need_two_exceptional_values():
    with pytest.raises(SetDomainError):
        gap_patterns(NormalizedSet((0, 1, 4)))


def test_diff3_case_frozen():
    gp = gap_patterns(DIFF3_13)
    assert gp.window == (23, 30)
    assert gp.missing.elements == (26, 29)
    assert gp.has_diff3 and not gp.has_diff2 and not gp.has_consecutive
    assert diff3_exception_case(DIFF3_13) == 1
    assert diff3_exception_case(GEN6) is None


def test_diff3_case_masks_match_the_frozen_shapes():
    # each distance-3 shape at every t in [3, 60], as the head's members
    # up to b_3 just above it, and with each value up to b_3 toggled: the
    # shapes as masks of every third value match the rational-bounded sets
    seen = set()
    for t in range(3, 61):
        for applies, shape in frozen_diff3_shapes(t):
            if not applies:
                continue
            b3 = max(max(shape), t) + 1
            for toggled in [None, *range(b3 + 1)]:
                head = tuple(sorted(shape ^ ({toggled} if toggled is not None else set())))
                b_vals = (2, t, b3)
                h = structure._Head(len(head) + 1, mask_of(head), 0, b_vals)
                got = structure._diff3_case(h)
                assert got == frozen_diff3_case(head, b_vals), (t, head)
                seen.add(got)
    assert seen == {None, 1, 2, 3, 4, 5, 6}


def test_consecutive_exception_frozen():
    gp = gap_patterns(CONSEC_8)
    assert gp.has_consecutive
    assert matches_consecutive_exception(CONSEC_8)
    # three exceptional values -> wrong arity for the consecutive shape
    assert not matches_consecutive_exception(DIFF3_13)


def test_offset_count_bound():
    assert offset_count_bound(2) == Fraction(1)
    assert offset_count_bound(8) == Fraction(6)
    assert offset_count_bound(6) == Fraction(4)


# ---------------------------------------------------------------------------
# top-gap characterization


def test_top_gap_candidates_frozen():
    names = {c.name: c for c in top_gap_candidates(5)}
    assert set(names) == {"two_blocks_odd"}
    assert names["two_blocks_odd"].head == (0, 1, 3, 4)
    assert names["two_blocks_odd"].b_values == (2, 6)
    names6 = {c.name: c for c in top_gap_candidates(6)}
    assert set(names6) == {"three_blocks_mod0"}
    assert names6["three_blocks_mod0"].head == (0, 1, 3, 4, 6)
    names7 = {c.name: c for c in top_gap_candidates(7)}
    assert set(names7) == {"two_blocks_odd", "three_blocks_mod1"}
    assert names7["three_blocks_mod1"].head == (0, 1, 3, 4, 7, 8)
    assert names7["two_blocks_odd"].head == (0, 1, 2, 5, 6, 7)


def test_top_gap_structure_frozen():
    # the two-block odd shape at k=5 with any admissible top
    a = NormalizedSet((0, 1, 3, 4, 8))
    gap, case = top_gap_structure(a)
    assert gap and case == "two_blocks_odd"
    # gen6 covers 2k-2+b: no double gap
    gap, case = top_gap_structure(GEN6)
    assert not gap and case == "none"


# ---------------------------------------------------------------------------
# witnesses and the grid-orbit decomposition


def test_witness_profile_frozen():
    wp = witness_profile(NormalizedSet((0, 1, 4, 5, 6, 9)))
    assert wp.values.elements == (3, 8)
    assert (wp.w1, wp.w2, wp.modulus) == (3, 8, 1)


def test_witness_profile_empty():
    wp = witness_profile(NormalizedSet((0, 1, 2, 3)))
    assert wp.values.elements == () and wp.w1 is None


def test_decompose_modulus_one_frozen():
    a = NormalizedSet((0, 1, 4, 5, 6, 9))
    dec = decompose(a, 3, 8)
    assert dec.modulus == 1
    assert dec.seeds == (4,)
    assert dec.x_max == 4
    assert dec.orbit_tables[4] == ((4, 0), (0, 1), (5, 1), (1, 2), (6, 2))
    assert dec.orbits[4].elements == (0, 1, 4, 5, 6)
    assert dec.residues.elements == ()
    assert dec.reconstructed


def test_decompose_modulus_four_frozen():
    # from the k=8 witness sweep: W = {2, 10}, top 12, m = gcd(8, 12) = 4
    a = NormalizedSet((0, 1, 4, 5, 7, 8, 11, 12))
    wp = witness_profile(a)
    assert wp.values.elements == (2, 10) and wp.modulus == 4
    dec = decompose(a, 2, 10)
    assert dec.modulus == 4
    assert dec.seeds == (5, 11)
    assert dec.x_max == 1
    assert dec.grid.elements == (0, 4, 8)
    assert dec.residues.elements == (0,)
    assert dec.orbits[5].elements == (1, 5)
    assert dec.orbits[11].elements == (7, 11)
    assert dec.reconstructed


def test_decompose_validates_witness_pair():
    a = NormalizedSet((0, 1, 4, 5, 6, 9))
    with pytest.raises(SetDomainError):
        decompose(a, 8, 3)  # unordered
    with pytest.raises(SetDomainError):
        decompose(a, 2, 8)  # not the witness pair


@pytest.mark.parametrize("pair", [(8, 3), (3, 3), (8, 8)])
def test_decompose_refuses_an_unordered_pair(pair):
    # the witness pair of this set is (3, 8); an unordered pair is refused
    # by its order, before its values are looked at
    with pytest.raises(SetDomainError, match="must be ordered"):
        decompose(NormalizedSet((0, 1, 4, 5, 6, 9)), *pair)


@pytest.mark.parametrize("elems, pair", [
    ((0, 1, 4, 5, 6, 9), (2, 7)),  # two values, both wrong
    ((0, 1, 4, 5, 6, 9), (0, 3)),  # an element of the set and a witness
    ((0, 1, 4, 5, 6, 9), (3, 12)),  # a witness and its sum with the top
    ((0, 1, 3, 4, 7, 10), (5, 6)),  # a set with no witness pair
])
def test_decompose_refuses_a_pair_that_is_not_the_witness_pair(elems, pair):
    with pytest.raises(SetDomainError, match="not the witness pair"):
        decompose(NormalizedSet(elems), *pair)


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_decompose_accepts_only_the_witness_pair_on_query_sets(seed):
    # every ordered pair of values in [0, l] other than the witness pair
    # is refused, on the query sets with a witness pair
    checked = 0
    for raw in query_sets(seed)[:300]:
        ns = normalize(IntegerSet(raw))[0]
        wits = naive_witnesses(ns.elements)
        if len(wits) != 2:
            continue
        checked += 1
        for w1 in range(ns.l + 1):
            for w2 in range(w1 + 1, ns.l + 1):
                if [w1, w2] != wits:
                    with pytest.raises(SetDomainError, match="not the witness pair"):
                        decompose(ns, w1, w2)
    assert checked


def test_decompose_matches_the_set_based_reference():
    # every two-witness gcd-1 set with 3 <= k <= 8 and k-1 <= l <= 2k+2:
    # all eight fields equal the reference's, each set with its mask, and
    # a pair one off the witness pair is refused
    seen = {True: 0, False: 0, None: 0}
    for k in range(3, 9):
        for l in range(k - 1, 2 * k + 3):
            for t in enumerate_bruteforce(k, l, ("gcd_one",)):
                wits = naive_witnesses(t)
                if len(wits) != 2:
                    continue
                w1, w2 = wits
                a = NormalizedSet(t)
                want = naive_decompose(t)
                if want is None:
                    seen[None] += 1
                    with pytest.raises(SetDomainError, match="no integral half point"):
                        decompose(a, w1, w2)
                else:
                    seen[want["reconstructed"]] += 1
                    got = decompose(a, w1, w2)._asdict()
                    for name in ("grid", "residues"):
                        got[name] = (got[name].elements, got[name].mask)
                        want[name] = (want[name], mask_of(want[name]))
                    got["orbits"] = {v: (o.elements, o.mask) for v, o in got["orbits"].items()}
                    want["orbits"] = {v: (o, mask_of(o)) for v, o in want["orbits"].items()}
                    assert got == want, t
                with pytest.raises(SetDomainError,
                                   match=rf"^\({w1}, {w2 + 1}\) is not the witness pair of this set$"):
                    decompose(a, w1, w2 + 1)
    assert seen == {True: 78, False: 9232, None: 3208}


# ---------------------------------------------------------------------------
# split machinery


def test_split_at_frozen():
    a = NormalizedSet((0, 2, 3, 5, 7, 10))
    s = find_admissible_split(a)
    assert s == 2
    st = split_at(a, s)
    assert st.left.elements == (0, 2, 3, 5)
    assert st.right.elements == (2, 3, 5, 7, 10)
    assert st.overlap.elements == (5, 7, 8)
    assert (st.card_left, st.card_right) == (5, 9)
    assert st.lower_bound == 11
    assert st.card_restricted == 11  # tight here
    assert st.right_shifted.elements == (0, 1, 3, 5, 8)


def test_split_premise_checked():
    a = NormalizedSet((0, 2, 3, 5, 7, 10))
    with pytest.raises(SetDomainError):
        split_at(a, 3)  # a_2 = 3 != 4


def test_find_admissible_split_none_when_all_slow():
    # gen6 is inside the regime but every interior grows slowly
    assert find_admissible_split(GEN6) is None


def test_find_admissible_split_regime_gate():
    with pytest.raises(SetDomainError):
        find_admissible_split(NormalizedSet((0, 1, 9, 10)))  # a_{k-2} >= 2k-4
    # all-slow interiors: no split position exists
    assert find_admissible_split(NormalizedSet((0, 1, 2, 3, 11))) is None


def test_split_positions_agree_with_restricted_size():
    # every admissible split yields a valid lower bound on the full set
    for elems in ((0, 2, 3, 4, 7, 12), (0, 1, 2, 5, 6, 12), (0, 2, 3, 6, 7, 8, 13)):
        a = NormalizedSet(elems)
        s = find_admissible_split(a)
        if s is None:
            continue
        st = split_at(a, s)
        assert st.lower_bound <= restricted_size(elems)
        assert st.lower_bound >= 3 * len(elems) - 7


# ---------------------------------------------------------------------------
# result sets built without re-validation equal the validating constructors


@st.composite
def dense_prefix_sets(draw):
    k = draw(st.integers(min_value=3, max_value=12))
    elems = [0]
    for i in range(1, k - 1):
        elems.append(draw(st.integers(min_value=elems[-1] + 1, max_value=2 * i - 1)))
    elems.append(draw(st.integers(min_value=2 * k - 2, max_value=2 * k + 8)))
    return tuple(elems)


# every two-witness set with 4 <= k <= 8 and span at most 2k-3
TWO_WITNESS = tuple(
    t
    for k in range(4, 9)
    for l in range(k - 1, 2 * k - 2)
    for t in enumerate_bruteforce(k, l, ("gcd_one",))
    if len(witness_profile(NormalizedSet(t)).values) == 2
)


@st.composite
def splittable_sets(draw):
    k = draw(st.integers(min_value=4, max_value=10))
    interior = draw(
        st.lists(st.integers(min_value=1, max_value=2 * k - 5),
                 min_size=k - 2, max_size=k - 2, unique=True)
    )
    t = (0, *sorted(interior), draw(st.integers(min_value=2 * k - 2, max_value=2 * k + 6)))
    assume(gcd(*t) == 1 and find_admissible_split(NormalizedSet(t)) is not None)
    return t


def assert_validated(s: IntegerSet) -> None:
    ref = IntegerSet(s.elements)
    assert type(s) is IntegerSet
    assert s.elements == ref.elements
    assert s.mask == ref.mask
    assert hash(s) == hash(ref)


@given(st.one_of(dense_prefix_sets(), st.sampled_from(TWO_WITNESS), splittable_sets()))
@settings(max_examples=200, deadline=None)
def test_trusted_result_sets_match_validating_constructors(t):
    ns = NormalizedSet(t)
    trusted = NormalizedSet._from_trusted(t, mask_of(t))
    assert trusted == ns and hash(trusted) == hash(ns)
    assert trusted.elements == ns.elements and trusted.mask == ns.mask
    assert_validated(witness_profile(ns).values)
    if has_dense_prefix(ns):
        prof = exceptional_profile(ns)
        for s in (prof.b_values, prof.d_values, prof.c_values):
            assert_validated(s)
    if t[-2] < 2 * len(t) - 4 and t[-1] >= 2 * len(t) - 2:
        s = find_admissible_split(ns)
        if s is not None:
            split = split_at(ns, s)
            for part in (split.left, split.right, split.overlap):
                assert_validated(part)
            ref = NormalizedSet(split.right_shifted.elements)
            assert split.right_shifted == ref and hash(split.right_shifted) == hash(ref)
            assert split.right_shifted.elements == ref.elements
            assert split.right_shifted.mask == ref.mask


def assert_canonical(s: IntegerSet) -> None:
    # strictly ascending elements in sync with the mask
    e = s.elements
    assert all(x < y for x, y in zip(e, e[1:])), s
    assert s.mask == mask_of(e), s


def result_sets(out: dict) -> dict[str, list[IntegerSet]]:
    """Every IntegerSet held by one analyze query's result, by kind."""
    sets = {"normalized": [out["ns"]], "witnesses": [out["witnesses"].values]}
    prof = out["profile"]
    sets["profile"] = [prof.double, prof.restricted, prof.exceptional]
    if "exceptional" in out:
        ep = out["exceptional"]
        sets["exceptional_profile"] = [ep.b_values, ep.d_values, ep.c_values]
    if "gaps" in out:
        sets["gaps"] = [out["gaps"].missing]
    dec = out.get("decomposition")
    if dec is not None:
        sets["decomposition"] = [dec.grid, dec.residues, *dec.orbits.values()]
    if "split" in out:
        split = out["split"]
        sets["split"] = [split.left, split.right, split.overlap]
        sets["normalized"].append(split.right_shifted)
    return sets


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_analyze_results_hold_canonical_sets(seed):
    # the trusted constructors on the analyze path build what the
    # validating ones would, on every benchmark query set
    queries = benchmark_queries()
    lab = SimpleNamespace(core=core, bounds=bounds, structure=structure, verify=None)
    seen = set()
    for raw in query_sets(seed):
        out = queries.run_query(lab, ("analyze", raw))
        for kind, sets in result_sets(out).items():
            seen.add(kind)
            for s in sets:
                assert_canonical(s)
                assert type(s) is (NormalizedSet if kind == "normalized" else IntegerSet)
    assert seen == {"normalized", "witnesses", "profile", "exceptional_profile", "gaps",
                    "decomposition", "split"}


# ---------------------------------------------------------------------------
# the detached-top checks read only the head, never the top


def _is_dense_head(head) -> bool:
    return head[0] == 0 and all(head[i - 1] < head[i] < 2 * i for i in range(1, len(head)))


# heads that reach the rarer branches: two or more exceptional values,
# the top-gap shapes, the distance-3 and consecutive exceptions
KNOWN_HEADS = tuple(
    h
    for h in (
        GEN6.elements[:-1],
        DIFF3_13.elements[:-1],
        CONSEC_8.elements[:-1],
        *(c.head for k in range(4, 14) for c in top_gap_candidates(k)),
        *(gen_mod3_wide(k).elements[:-1] for k in range(6, 14) if k % 3 in (0, 1)),
    )
    if len(h) >= 2 and _is_dense_head(h)
)


@st.composite
def dense_heads_and_two_tops(draw):
    """A dense head (a_i < 2i) and two distinct detached tops for it."""
    if draw(st.booleans()):
        head = draw(st.sampled_from(KNOWN_HEADS))
    else:
        k = draw(st.integers(min_value=3, max_value=12))
        head = [0]
        for i in range(1, k - 1):
            head.append(draw(st.integers(min_value=head[-1] + 1, max_value=2 * i - 1)))
        head = tuple(head)
    k = len(head) + 1
    tops = st.integers(min_value=2 * k - 2, max_value=2 * k + 8)
    l1, l2 = draw(st.lists(tops, min_size=2, max_size=2, unique=True))
    return head, l1, l2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SetDomainError as exc:
        return ("SetDomainError", str(exc))


def head_checks(t) -> dict:
    """Every detached-top check the structure sweep runs, on one set."""
    ns = NormalizedSet(t)
    k = len(t)
    window = (1 << (2 * k - 3)) - 1
    prof = exceptional_profile(ns)
    return {
        "dense": has_dense_prefix(ns),
        "window": double_mask(ns.mask ^ 1 << t[-1], t[:-1]) & window == window,
        "profile": (prof.b_values.elements, prof.m, prof.d_values.elements,
                    prof.c_values.elements),
        "points": check_exceptional_points(ns),
        "growth": exceptional_growth_ok(ns),
        "tail": [tail_pair_counts_ok(ns, b, u) for b in range(2 * k - 3) for u in range(b + 2)],
        "gaps": _outcome(gap_patterns, ns),
        "consecutive": matches_consecutive_exception(ns),
        "diff3": diff3_exception_case(ns),
        "top_gap": _outcome(top_gap_structure, ns),
    }


@given(dense_heads_and_two_tops())
@settings(max_examples=200, deadline=None)
def test_structure_checks_depend_only_on_the_head(case):
    # the structure sweep checks each head once for all of its tops
    head, l1, l2 = case
    first = head_checks(head + (l1,))
    assert first["dense"]
    assert first == head_checks(head + (l2,))


# ---------------------------------------------------------------------------
# one context per set: built once, shared, never seen from outside


def _witness_pair(t) -> tuple[int, int]:
    wits = naive_witnesses(t)
    return (wits[0], wits[1]) if len(wits) == 2 else (0, 1)


def _split_pos(t) -> int:
    k = len(t)
    fast = [i for i in range(1, k - 2) if t[i] >= 2 * i]
    return fast[-1] + 1 if fast else 1


# every public function that takes one normalized set, with the other
# arguments it needs computed without the library
PER_SET = {
    "profile": profile,
    "evaluate_bounds": evaluate_bounds,
    "exceptional_profile": exceptional_profile,
    "check_exceptional_points": check_exceptional_points,
    "exceptional_growth_ok": exceptional_growth_ok,
    "tail_pair_counts_ok": lambda a: [
        tail_pair_counts_ok(a, b, u) for b in range(2, a.k - 2) for u in range(1, b + 1)],
    "gap_patterns": gap_patterns,
    "matches_consecutive_exception": matches_consecutive_exception,
    "diff3_exception_case": diff3_exception_case,
    "top_gap_structure": top_gap_structure,
    "witness_profile": witness_profile,
    "decompose": lambda a: decompose(a, *_witness_pair(a.elements)),
    "find_admissible_split": find_admissible_split,
    "split_at": lambda a: split_at(a, _split_pos(a.elements)),
}


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_public_functions_agree_in_any_order_on_one_set(seed):
    rng = random.Random(seed)
    names = list(PER_SET)
    for raw in query_sets(seed):
        ns = normalize(IntegerSet(raw))[0]
        alone = {name: _outcome(fn, NormalizedSet(ns.elements)) for name, fn in PER_SET.items()}
        rng.shuffle(names)
        shared = {name: _outcome(PER_SET[name], ns) for name in names}
        assert shared == alone, (ns, names)


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_every_constructor_starts_with_an_empty_context(seed):
    for raw in query_sets(seed):
        ns = normalize(IntegerSet(raw))[0]
        assert ns._masks is None and ns._b is None and ns._head is None
        profile(ns)
        if has_dense_prefix(ns):
            exceptional_profile(ns)
            assert ns._head is not None
        assert ns._masks is not None
        built = [
            NormalizedSet(IntegerSet(ns.elements)),
            NormalizedSet(ns),
            reflect(ns),
            NormalizedSet._from_trusted(ns.elements, ns.mask),
            pickle.loads(pickle.dumps(ns)),
        ]
        s = _outcome(find_admissible_split, ns)
        if isinstance(s, int):
            built.append(split_at(ns, s).right_shifted)
        for b in built:
            assert type(b) is NormalizedSet and b._masks is b._b is b._head is None
        assert built[0] == built[1] == built[3] == built[4] == ns


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_analyze_pipeline_sweeps_each_set_once(seed, monkeypatch):
    # the benchmark's analyze query: one sweep of the set's head, plus
    # split_at's own sweeps, which exist to test the masks
    queries = benchmark_queries()
    lab = SimpleNamespace(core=core, bounds=bounds, structure=structure, verify=None)
    sweep = core._sumset_masks
    sweeps = []

    def counted(mask, elements):
        sweeps.append(mask)
        return sweep(mask, elements)

    monkeypatch.setattr(core, "_sumset_masks", counted)
    for raw in query_sets(seed):
        sweeps.clear()
        out = queries.run_query(lab, ("analyze", raw))
        pipeline = len(sweeps)
        sweeps.clear()
        if "split" in out:
            ns = out["ns"]
            split_at(NormalizedSet(ns.elements), out["split"].s)
        assert pipeline - len(sweeps) == 1, raw


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_analyze_pipeline_unpacks_the_exceptional_set_once(seed):
    # the profile's B, cached in the set's context, is the one the head
    # context and the exceptional profile read: one unpack per set
    queries = benchmark_queries()
    lab = SimpleNamespace(core=core, bounds=bounds, structure=structure, verify=None)
    dense = 0
    for raw in query_sets(seed):
        out = queries.run_query(lab, ("analyze", raw))
        ns, b = out["ns"], out["profile"].exceptional
        assert b is ns._b
        if "exceptional" in out:
            dense += 1
            assert structure._context(ns).b_vals is b.elements
            assert out["exceptional"].b_values.elements is b.elements
    assert dense > 0
