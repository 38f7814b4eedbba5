"""Every driver cell's walker against plain enumeration.

Every cell dict of the five drivers (the conjecture, theorem 1,
dense-prefix, classification, structure and witness cells), and every
classify_extremal result, must equal what a plain ``enumerate_tuples``
loop with the naive restricted-sumset oracle gives: node and set
counts, findings in stream order, and, under a budget, the node at
which the budget runs out.  The walker itself must hand each leaf the
element tuple and restricted mask of its set, and its lookahead prune
must hold on every prefix of a set.  Each cell must also match at the
budgets around its planned node count, where the walker switches
between taking its counts from the plan and walking in stream order.
A theorem 1 or structure row, whose cells share one walk over their
heads when their plans fit the budget and walk alone when they do not,
must give each cell the dict a lone cell gives, and theorem 1's split
check, made once per head and once per top, must give the halves and
the messages ``split_at`` gives.
"""

from math import gcd

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumset_lab.bounds import freiman_lev_bound
from sumset_lab.core import (
    NormalizedSet, SetDomainError, elements_of, mask_of, restricted_mask,
)
from sumset_lab import structure
from sumset_lab.families import dense_extremal_shape
from sumset_lab.structure import (
    _split_head,
    _split_top,
    check_exceptional_points,
    decompose,
    diff3_exception_case,
    exceptional_growth_ok,
    exceptional_profile,
    find_admissible_split,
    gap_patterns,
    matches_consecutive_exception,
    offset_count_bound,
    split_at,
    tail_pair_counts_ok,
    top_gap_candidates,
    top_gap_structure,
    witness_profile,
)
from sumset_lab.verify import (
    BudgetExceeded,
    EnumerationQuery,
    classify_extremal,
    enumerate_tuples,
    _walk_span,
    _classification_cell,
    _conjecture_cell,
    _dense_prefix_cell,
    _detached_top_cells,
    _low_second_row,
    _structure_row,
    _sweep,
    _walk_row,
    _witness_cell,
)

from helpers import naive_double, naive_restricted

DENSE = ("gcd_one", "growth_a_i_lt_2i", "last_ge_2k_minus_2")
LOW_SECOND = ("gcd_one", "interior_lt_2k_minus_4", "last_ge_2k_minus_2")
# small budgets cut cells mid-walk; the large one lets every cell finish
budgets = st.one_of(st.integers(min_value=1, max_value=4000), st.just(10**9))


def lit(tup) -> str:
    return "{" + ",".join(str(v) for v in tup) + "}"


def plain_sets(k, l, constraints, budget):
    """(nodes, truncated, [(tup, n)]) by plain enumeration, in stream
    order, n being the naive restricted size of tup."""
    query = EnumerationQuery.exact(k, l, constraints, budget=budget)
    counter = [0]
    streamed = []
    truncated = False
    try:
        for tup in enumerate_tuples(query, counter=counter):
            streamed.append((tup, len(naive_restricted(tup))))
    except BudgetExceeded:
        truncated = True
    return counter[0], truncated, streamed


def plain_walk(k, l, constraints, budget, bound):
    """(nodes, sets, truncated, [(tup, n) with n <= bound]) by plain
    enumeration, in stream order."""
    nodes, truncated, streamed = plain_sets(k, l, constraints, budget)
    return nodes, len(streamed), truncated, [(t, n) for t, n in streamed if n <= bound]


@st.composite
def walk_cases(draw):
    """(k, l, constraints, budget, bound): bound 2l prunes nothing, a
    smaller one prunes every subtree whose prefix already exceeds it."""
    k = draw(st.integers(min_value=3, max_value=8))
    l = draw(st.integers(min_value=k - 1, max_value=2 * k + 4))
    constraints = draw(st.sampled_from([(), ("gcd_one",), DENSE, LOW_SECOND]))
    bound = draw(st.one_of(st.just(2 * l), st.integers(min_value=0, max_value=2 * l - 1)))
    return k, l, constraints, draw(budgets), bound


@given(walk_cases())
@settings(max_examples=120, deadline=None)
def test_walker_hands_each_leaf_its_elements_and_restricted_mask(case):
    k, l, constraints, budget, bound = case
    leaves = []

    def on_leaf(tup, mask, r, n):
        assert tup == elements_of(mask)
        assert r == restricted_mask(mask, tup)
        assert n == r.bit_count()
        leaves.append(tup)

    cell = _walk_span(EnumerationQuery.exact(k, l, constraints, budget=budget), bound, on_leaf)
    nodes, sets, truncated, low = plain_walk(k, l, constraints, budget, bound)
    assert (cell["nodes"], cell["sets"], cell["truncated"]) == (nodes, sets, truncated)
    assert leaves == [t for t, _n in low]


@st.composite
def gcd_one_sets(draw):
    k = draw(st.integers(min_value=3, max_value=12))
    l = draw(st.integers(min_value=k - 1, max_value=3 * k))
    interior = draw(st.lists(st.integers(min_value=1, max_value=l - 1),
                             min_size=k - 2, max_size=k - 2, unique=True))
    t = (0, *sorted(interior), l)
    assume(gcd(*t) == 1)
    return t


@given(gcd_one_sets())
@settings(max_examples=200, deadline=None)
def test_lookahead_bound_holds_on_every_prefix(t):
    # the walker's prune: each interior element still to come adds its sum
    # with the top, above every sum of the prefix and the top
    n = len(naive_restricted(t))
    for pos in range(len(t) - 1):
        prefix = t[:pos + 1] + (t[-1],)
        assert n >= len(naive_restricted(prefix)) + (len(t) - 2 - pos)


@st.composite
def conjecture_cells(draw):
    k = draw(st.integers(min_value=3, max_value=7))
    return k, draw(st.integers(min_value=k - 1, max_value=2 * k + 2)), draw(budgets)


@st.composite
def dense_cells(draw):
    k = draw(st.integers(min_value=3, max_value=9))
    return k, draw(st.integers(min_value=2 * k - 2, max_value=2 * k + 6)), draw(budgets)


def conjecture_reference(k, l, budget):
    bound = freiman_lev_bound(k, l)
    nodes, sets, truncated, low = plain_walk(k, l, ("gcd_one",), budget, bound)
    return {
        "k": k,
        "l": l,
        "bound": bound,
        "nodes": nodes,
        "sets": sets,
        "tight": sum(1 for _t, n in low if n == bound),
        "bad": [(lit(t), n) for t, n in low if n < bound],
        "truncated": truncated,
    }


@given(conjecture_cells())
@settings(max_examples=80, deadline=None)
def test_conjecture_cell_matches_plain_enumeration(cell):
    assert _conjecture_cell(cell) == conjecture_reference(*cell)


def dense_prefix_reference(k, l, budget):
    bound = 3 * k - 7
    nodes, sets, truncated, low = plain_walk(k, l, DENSE, budget, bound)
    equality = [t for t, n in low if n == bound]
    return {
        "k": k,
        "l": l,
        "nodes": nodes,
        "sets": sets,
        "equality": [lit(t) for t in equality],
        "shape_failures": [
            lit(t) for t in equality if not dense_extremal_shape(NormalizedSet(t))
        ],
        "bad": [f"{lit(t)}: restricted size {n} < {bound}" for t, n in low if n < bound],
        "truncated": truncated,
    }


@given(dense_cells())
@settings(max_examples=80, deadline=None)
def test_dense_prefix_cell_matches_plain_enumeration(cell):
    assert _dense_prefix_cell(cell) == dense_prefix_reference(*cell)


def classification_reference(k, l, budget):
    bound = 3 * k - 7
    nodes, sets, truncated, low = plain_walk(k, l, ("gcd_one",), budget, bound)
    return {
        "k": k,
        "l": l,
        "nodes": nodes,
        "sets": sets,
        "extremal": [lit(t) for t, n in low if n == bound],
        "bad": [f"{lit(t)}: restricted size {n} < {bound}" for t, n in low if n < bound],
        "truncated": truncated,
    }


@given(st.integers(min_value=4, max_value=9), budgets)
@settings(max_examples=60, deadline=None)
def test_classification_cell_matches_plain_enumeration(k, budget):
    cell = (k, 2 * k - 3, budget)
    assert _classification_cell(cell) == classification_reference(*cell)


@st.composite
def classify_args(draw):
    k = draw(st.integers(min_value=4, max_value=7))
    return k, draw(st.integers(min_value=k - 1, max_value=2 * k + 2)), draw(budgets)


def classify_cell(args):
    """classify_extremal's tuples, or the node count it raised at."""
    k, l, budget = args
    try:
        return [s.elements for s in classify_extremal(k, l, budget=budget)]
    except BudgetExceeded as exc:
        return exc.nodes


def classify_reference(k, l, budget):
    bound = 3 * k - 7
    nodes, _sets, truncated, low = plain_walk(k, l, ("gcd_one",), budget, bound)
    return nodes if truncated else [t for t, n in low if n == bound]


@given(classify_args())
@settings(max_examples=60, deadline=None)
def test_classify_extremal_matches_plain_enumeration(args):
    assert classify_cell(args) == classify_reference(*args)


# ---------------------------------------------------------------------------
# Cells that check every set: theorem 1, structure and witness


def low_second_cell(args):
    """One theorem 1 cell (k, l, budget) alone: a row with the one top l."""
    k, l, budget = args
    return _low_second_row((k, (l,), budget))[0]


def structure_cell(args):
    """One structure cell (k, l, budget) alone: a row with the one top l."""
    k, l, budget = args
    return _structure_row((k, (l,), budget))[0]


@st.composite
def low_second_cells(draw):
    k = draw(st.integers(min_value=3, max_value=9))
    return k, draw(st.integers(min_value=2 * k - 2, max_value=2 * k + 6)), draw(budgets)


def low_second_reference(k, l, budget):
    bound = 3 * k - 7
    nodes, truncated, streamed = plain_sets(k, l, LOW_SECOND, budget)
    bad = []
    splits = 0
    for t, n in streamed:
        if n < bound:
            bad.append(f"{lit(t)}: restricted size {n} < {bound}")
        ns = NormalizedSet(t)
        s = find_admissible_split(ns)
        if s is not None:
            splits += 1
            try:
                split_at(ns, s)
            except RuntimeError as exc:
                bad.append(f"{lit(t)}: {exc}")
    return {
        "k": k,
        "l": l,
        "nodes": nodes,
        "sets": len(streamed),
        "tight": sum(1 for _t, n in streamed if n == bound),
        "splits": splits,
        "bad": bad,
        "truncated": truncated,
    }


@given(low_second_cells())
@settings(max_examples=60, deadline=None)
def test_low_second_cell_matches_plain_enumeration(cell):
    assert low_second_cell(cell) == low_second_reference(*cell)


def structure_failures(t) -> list[str]:
    """What the structure cell reports on one detached-top set."""
    k = len(t)
    head = t[:-1]
    ns = NormalizedSet(t)
    out = []
    if not set(range(2 * k - 3)) <= naive_double(head):
        out.append("head sumset misses part of [0, 2k-4]")
    out += check_exceptional_points(ns)
    if not exceptional_growth_ok(ns):
        out.append("exceptional values grow too slowly")
    prof = exceptional_profile(ns)
    for b in prof.b_values:
        for u in range(1, b + 1):
            if b < k - 2 and tail_pair_counts_ok(ns, b, u) is False:
                out.append(f"tail pair counts fail at b={b}, u={u}")
    if prof.m >= 2:
        gp = gap_patterns(ns)
        consec = matches_consecutive_exception(ns)
        diff3 = diff3_exception_case(ns)
        if gp.has_consecutive and not consec:
            out.append("consecutive missing pair without the low shape")
        if gp.has_diff2:
            out.append("distance-2 missing pair")
        if gp.has_diff3 and diff3 is None:
            out.append("distance-3 missing pair without a mod-3 shape")
        top_b = prof.b_values.elements[-2]
        if not consec and diff3 is None and len(prof.d_values) < offset_count_bound(top_b):
            out.append(f"covered offsets {len(prof.d_values)} below the floor for b={top_b}")
        gap, case = top_gap_structure(ns)
        if gap and case == "none":
            out.append("double gap above the window without a rigid shape")
        for cand in top_gap_candidates(k):
            if (prof.m == 2 and head == cand.head
                    and tuple(prof.b_values.elements) == cand.b_values and not gap):
                out.append(f"rigid shape {cand.name} without the double gap")
    return [f"{lit(t)}: {msg}" for msg in out]


def structure_reference(k, l, budget):
    nodes, truncated, streamed = plain_sets(k, l, DENSE, budget)
    return {
        "k": k,
        "l": l,
        "nodes": nodes,
        "sets": len(streamed),
        "extremal": sum(1 for _t, n in streamed if n == 3 * k - 7),
        "bad": [msg for t, _n in streamed for msg in structure_failures(t)],
        "truncated": truncated,
    }


@given(dense_cells())
@settings(max_examples=60, deadline=None)
def test_structure_cell_matches_plain_enumeration(cell):
    assert structure_cell(cell) == structure_reference(*cell)


@st.composite
def detached_rows(draw):
    """(k, tops): a run of consecutive detached tops of one k."""
    k = draw(st.integers(min_value=3, max_value=8))
    lo = draw(st.integers(min_value=2 * k - 2, max_value=2 * k + 6))
    hi = draw(st.integers(min_value=lo, max_value=2 * k + 6))
    return k, tuple(range(lo, hi + 1))


# each row function with its lone cell, its reference and its constraints
ROWS = [
    (_structure_row, structure_cell, structure_reference, DENSE),
    (_low_second_row, low_second_cell, low_second_reference, LOW_SECOND),
]


@given(detached_rows(), budgets)
@settings(max_examples=40, deadline=None)
def test_structure_row_matches_lone_cells_and_plain_enumeration(row, budget):
    k, tops = row
    got = _structure_row((k, tops, budget))
    assert got == [structure_cell((k, l, budget)) for l in tops]
    assert got == [structure_reference(k, l, budget) for l in tops]


@given(detached_rows(), budgets)
@settings(max_examples=40, deadline=None)
def test_low_second_row_matches_lone_cells_and_plain_enumeration(row, budget):
    k, tops = row
    got = _low_second_row((k, tops, budget))
    assert got == [low_second_cell((k, l, budget)) for l in tops]
    assert got == [low_second_reference(k, l, budget) for l in tops]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rows_mixing_head_walked_and_lone_cells_match_plain_enumeration(data):
    # the budget is one top's planned node total -1, +0 or +1: the cells
    # with smaller plans share the head walk, the larger ones walk alone
    # in stream order and run out, and the pivot sits on either side
    row_fn, cell_fn, reference, constraints = data.draw(st.sampled_from(ROWS))
    k, tops = data.draw(detached_rows())
    pivot = data.draw(st.sampled_from(tops))
    planned = plain_sets(k, pivot, constraints, 10**9)[0]
    for budget in (planned - 1, planned, planned + 1):
        got = row_fn((k, tops, budget))
        assert got == [cell_fn((k, l, budget)) for l in tops]
        assert got == [reference(k, l, budget) for l in tops]


@pytest.mark.parametrize("constraints", [DENSE, LOW_SECOND], ids=["dense", "low_second"])
@pytest.mark.parametrize("k", range(3, 10))
def test_detached_tops_share_their_heads(k, constraints):
    # the row walks one set of heads for all its tops: under both
    # detached-top constraints every top >= 2k-2 streams the same heads
    # (gcd aside), though under interior_lt_2k_minus_4 the caps at low
    # positions differ between tops
    no_gcd = tuple(c for c in constraints if c != "gcd_one")
    heads = [
        {t[:-1] for t in enumerate_tuples(EnumerationQuery.exact(k, l, no_gcd))}
        for l in range(2 * k - 2, 2 * k + 7)
    ]
    assert heads[0] and all(h == heads[0] for h in heads)


def test_row_walker_refuses_tops_with_different_heads():
    # without a detached top the heads depend on the top: (0, 3) is a
    # head at l = 5 and not at l = 3
    with pytest.raises(SetDomainError):
        _walk_row(3, (3, 5), ("gcd_one",), 10**9, lambda tup, mask: None,
                  lambda head, l, r, n, state: None)


@given(st.integers(min_value=3, max_value=7),
       st.one_of(st.integers(min_value=1, max_value=300_000), st.just(10**9)))
@settings(max_examples=30, deadline=None)
def test_sweep_gives_row_cells_the_budget_share_of_lone_cells(k_max, budget):
    cells, _cap = _detached_top_cells(3, k_max, None)
    for row_fn, cell_fn, _reference, _constraints in ROWS:
        rows = [(row_fn, k, tuple(l for kk, l in cells if kk == k))
                for k in range(3, k_max + 1)]
        assert _sweep(rows, budget, 1) == _sweep(
            [(cell_fn, k, l) for k, l in cells], budget, 1
        )


@st.composite
def witness_cells(draw):
    k = draw(st.integers(min_value=4, max_value=9))
    return k, draw(st.integers(min_value=k - 1, max_value=2 * k - 3)), draw(budgets)


def witness_reference(k, l, budget):
    nodes, truncated, streamed = plain_sets(k, l, ("gcd_one",), budget)
    extremal = pairs = 0
    bad = []
    notes = []
    for t, n in streamed:
        ns = NormalizedSet(t)
        wp = witness_profile(ns)
        if len(wp.values) > 2:
            bad.append(f"{lit(t)}: {len(wp.values)} witnesses {lit(wp.values.elements)}")
            continue
        if wp.w1 is None:
            continue
        pairs += 1
        extremal += n == 3 * k - 7
        try:
            dec = decompose(ns, wp.w1, wp.w2)
        except SetDomainError as exc:
            notes.append(f"k={k} l={l}: {lit(t)} not decomposed ({exc})")
            continue
        if not dec.reconstructed:
            bad.append(f"{lit(t)}: decomposition does not rebuild the set")
        if l == 2 * k - 3:
            m = dec.modulus
            u_set = set(dec.residues.elements)
            if len(u_set) != (m - 1) // 2:
                bad.append(f"{lit(t)}: residue count {len(u_set)} != (m-1)/2 for m={m}")
            for u1 in range(m):
                for u2 in range(u1 + 1, m):
                    if (u1 + u2 - wp.w2) % m == 0 and (u1 in u_set) + (u2 in u_set) != 1:
                        bad.append(
                            f"{lit(t)}: residue pair ({u1},{u2}) not split by the half-grid"
                        )
    return {
        "k": k,
        "l": l,
        "nodes": nodes,
        "sets": len(streamed),
        "extremal": extremal,
        "pairs": pairs,
        "bad": bad,
        "notes": notes,
        "truncated": truncated,
    }


@given(witness_cells())
@settings(max_examples=60, deadline=None)
def test_witness_cell_matches_plain_enumeration(cell):
    assert _witness_cell(cell) == witness_reference(*cell)


# each driver cell with its plain-enumeration reference, its constraints
# and a strategy for its (k, l), whose drawn budget is not used
DRIVER_CELLS = [
    (_conjecture_cell, conjecture_reference, ("gcd_one",), conjecture_cells()),
    (_dense_prefix_cell, dense_prefix_reference, DENSE, dense_cells()),
    (_classification_cell, classification_reference, ("gcd_one",),
     st.integers(min_value=4, max_value=9).map(lambda k: (k, 2 * k - 3, None))),
    (classify_cell, classify_reference, ("gcd_one",), classify_args()),
    (low_second_cell, low_second_reference, LOW_SECOND, low_second_cells()),
    (structure_cell, structure_reference, DENSE, dense_cells()),
    (_witness_cell, witness_reference, ("gcd_one",), witness_cells()),
]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cells_match_plain_enumeration_on_both_sides_of_the_plan(data):
    # a cell whose planned nodes fit its budget takes its counts from the
    # plan; one node less and it walks in stream order and truncates
    fn, reference, constraints, cells = data.draw(st.sampled_from(DRIVER_CELLS))
    k, l, _budget = data.draw(cells)
    planned = plain_sets(k, l, constraints, 10**9)[0]
    for budget in (planned - 1, planned, planned + 1):
        assert fn((k, l, budget)) == reference(k, l, budget)


def split_parts(t, s, n):
    """The per-head, then per-top split check of the set t at s, with
    |2^A| given as n."""
    l = t[-1]
    head_mask = NormalizedSet(t).mask ^ 1 << l
    r = restricted_mask(NormalizedSet(t).mask, t)
    return _split_top(_split_head(t[:-1], head_mask, s), l, r, n)


# every set of a theorem 1 box with a split position, k <= 8
SPLITTABLE = tuple(
    t
    for k in range(4, 9)
    for l in range(2 * k - 2, 2 * k + 3)
    for t, _n in plain_sets(k, l, LOW_SECOND, 10**9)[2]
    if find_admissible_split(NormalizedSet(t)) is not None
)


@given(st.sampled_from(SPLITTABLE))
@settings(max_examples=80, deadline=None)
def test_split_check_fails_with_the_message_split_at_gives(t):
    ns = NormalizedSet(t)
    s = find_admissible_split(ns)
    split = split_at(ns, s)
    assert split_parts(t, s, split.card_restricted) == (
        split.left.mask, split.right.mask, split.overlap.mask,
        split.card_left, split.card_right,
    )
    short = split.lower_bound - 1
    with pytest.raises(RuntimeError) as from_check:
        split_parts(t, s, short)
    message = f"additive split bound failed at s={s} for {t}: {short} < {split.lower_bound}"
    assert str(from_check.value) == message
    if s == len(t) - 2:
        return  # the left half is the whole set: no way to cut only |2^A|
    real = structure.restricted_mask

    def cut_whole_set(mask, elems):
        # the whole set's restricted sumset shrunk to lower_bound - 1 sums
        return (1 << short) - 1 if mask == ns.mask else real(mask, elems)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "restricted_mask", cut_whole_set)
        with pytest.raises(RuntimeError) as from_split:
            split_at(ns, s)
    assert str(from_split.value) == message


def test_split_parts_match_split_at_and_the_oracle_on_every_theorem1_set():
    # every set with a split position in the theorem 1 boxes k <= 9 (tops
    # up to 2k+6): the per-head part, then the per-top part on the set's
    # own restricted size, give split_at's halves, overlap and sizes, and
    # the naive ones; with |2^A| cut to lower_bound - 1 they raise the
    # bound's message.  At s = k-2 the left half is the whole set, whose
    # third shared element is the top.
    by_s = {"s = k-2": 0, "s < k-2": 0}
    for k in range(4, 10):
        for l in range(2 * k - 2, 2 * k + 7):
            for t in enumerate_tuples(EnumerationQuery.exact(k, l, LOW_SECOND)):
                ns = NormalizedSet(t)
                s = find_admissible_split(ns)
                if s is None:
                    continue
                n = len(naive_restricted(t))
                left, right = t[:s + 2], t[s - 1:]
                two_left, two_right = naive_restricted(left), naive_restricted(right)
                split = split_at(ns, s)
                got = split_parts(t, s, n)
                assert got == (
                    split.left.mask, split.right.mask, split.overlap.mask,
                    split.card_left, split.card_right,
                )
                assert got[:2] == (mask_of(left), mask_of(right))
                assert got[3:] == (len(two_left), len(two_right))
                assert elements_of(got[2]) == tuple(sorted(two_left & two_right))
                if s == k - 2:
                    by_s["s = k-2"] += 1
                    assert left == t and got[0] == ns.mask
                    assert elements_of(got[2]) == (t[-3] + t[-2], t[-3] + l, t[-2] + l)
                else:
                    by_s["s < k-2"] += 1
                short = split.lower_bound - 1
                with pytest.raises(RuntimeError) as exc:
                    split_parts(t, s, short)
                assert str(exc.value) == (
                    f"additive split bound failed at s={s} for {t}: "
                    f"{short} < {split.lower_bound}"
                )
    assert by_s["s = k-2"] > 0 and by_s["s < k-2"] > 0
