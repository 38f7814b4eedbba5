"""Every driver cell's walker against plain enumeration.

Every cell dict of the five drivers (the conjecture's floor cell, the
classification sweep's, and the theorem 1, theorem 2, structure and
witness cells), run by the task runner that counts each
cell and decides whether it is walked, and every classify_extremal
result, must equal what a plain ``enumerate_tuples`` loop with the
naive restricted-sumset oracle gives: node and set counts and findings
in stream order.  A cell whose stream the budget
cuts short (the enumerator raises) is skipped: it counts no node and no
set, finds nothing, records its planned nodes, and classify_extremal
raises at the node past its budget.  The walker itself must return
each finding with the element tuple and restricted size of its set,
its lookahead prune must hold on every prefix of a set, and its
witness prune must cut exactly the prefixes with fewer than two naive
candidate witnesses that the gap law allows; every naive witness must
obey that law.  A witness cell must read each set's witnesses and
restricted size off the set's own sweep, so that it names a handed
set without two witnesses and ignores a wrong size from the walk.
The structure row's head checks, bit tests on the head's masks, must
give the messages of the frozen tuple-based checks in
``tests/helpers.py``, on the true restricted masks and on faulted ones.
Every cell the walker walks is closed under the mirror A -> l - A and
walked in half: it must return the same findings in the same order,
mirrored findings included, and refuse a cell that is not closed.  Each
cell must
also match at the budgets around its planned node count, where the
walker switches between walking the cell whole and skipping it.  A
theorem 1, theorem 2 or structure row, whose walked cells share one
walk over their heads, must give each cell the dict a lone cell (a row
with one top) gives; the theorem 2 row's cut of a head prefix must hold
on every prefix of a dense set.  The halved gcd-1 floor cells, filtered
to theorem 1's and theorem 2's sets, must find what those rows find.
Theorem 1's split check, made once per head, must read ``split_at``'s
halves off the walk, hand each set of a head it cannot settle to
``split_at``, record the message ``split_at`` gives, and raise when
``split_at`` passes the set.  The bounds by which a row head settles
all its tops at once must be at most what the naive oracle gives, on
every theorem 1 and dense head with k <= 10 at every top up to 4k-10,
and must settle a head with faulted masks only when every top passes;
the row walk's floor step must record a head's sets exactly when its
floor bound leaves the head.
"""

import re
import sys
from contextlib import contextmanager
from itertools import combinations
from math import gcd

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumset_lab.bounds import freiman_lev_bound
from sumset_lab.core import (
    IntegerSet, NormalizedSet, SetDomainError, double_mask, elements_of, mask_of,
    restricted_mask,
)
from sumset_lab import structure, verify
from sumset_lab.structure import (
    check_exceptional_points,
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
    sweep_structure,
    _walk_span,
    _dense_row,
    _detached_top_rows,
    _conjecture_cell,
    _floor_cells,
    _head_floor,
    _low_second_row,
    _run_task,
    _split_settled,
    _structure_row,
    _sweep,
    _walk_row,
    _witness_cell,
)

from helpers import frozen_head_failures, naive_double, naive_restricted, naive_witnesses

DENSE = ("gcd_one", "growth_a_i_lt_2i", "last_ge_2k_minus_2")
LOW_SECOND = ("gcd_one", "interior_lt_2k_minus_4", "last_ge_2k_minus_2")
# small budgets skip cells; the large one walks every cell
budgets = st.one_of(st.integers(min_value=1, max_value=4000), st.just(10**9))


def lit(tup) -> str:
    return "{" + ",".join(str(v) for v in tup) + "}"


def plain_sets(k, l, constraints, budget):
    """(counts, [(tup, n)]) by plain enumeration, in stream order, n
    being the naive restricted size of tup.  ``counts`` holds the cell
    dict's planned, nodes, sets and truncated.  A cell whose stream the
    budget cuts short is skipped: it counts no node and no set and
    streams nothing; planned is its node count with no budget."""
    counter = [0]
    try:
        streamed = [
            (tup, len(naive_restricted(tup)))
            for tup in enumerate_tuples(
                EnumerationQuery.exact(k, l, constraints, budget=budget), counter=counter
            )
        ]
    except BudgetExceeded:
        planned = [0]
        for _tup in enumerate_tuples(EnumerationQuery.exact(k, l, constraints), planned):
            pass
        return {"planned": planned[0], "nodes": 0, "sets": 0, "truncated": True}, []
    counts = {"planned": counter[0], "nodes": counter[0], "sets": len(streamed),
              "truncated": False}
    return counts, streamed


def plain_walk(k, l, constraints, budget, bound):
    """(counts, [(tup, n) with n <= bound]) by plain enumeration, in
    stream order."""
    counts, streamed = plain_sets(k, l, constraints, budget)
    return counts, [(t, n) for t, n in streamed if n <= bound]


@st.composite
def walk_cases(draw):
    """(k, l, bound): bound 2l prunes nothing, a smaller one prunes every
    subtree whose prefix already exceeds it.  The walker walks the gcd-1
    cell (k, l)."""
    k = draw(st.integers(min_value=3, max_value=8))
    l = draw(st.integers(min_value=k - 1, max_value=2 * k + 4))
    bound = draw(st.one_of(st.just(2 * l), st.integers(min_value=0, max_value=2 * l - 1)))
    return k, l, bound


@given(walk_cases())
@settings(max_examples=120, deadline=None)
def test_walker_hands_each_leaf_its_elements_and_restricted_mask(case):
    # the walker takes no budget: it walks the whole cell, and the task
    # runner decides whether it is walked
    k, l, bound = case
    found, tallied = _walk_span(k, l, bound)
    assert isinstance(found, list) and tallied == 0
    for tup, n in found:
        assert n == restricted_mask(mask_of(tup), tup).bit_count()
    _counts, low = plain_walk(k, l, ("gcd_one",), 10**9, bound)
    assert [tup for tup, _n in found] == [t for t, _n in low]


def mirror(tup):
    """l - A, ascending."""
    return tuple(tup[-1] - v for v in reversed(tup))


@pytest.mark.parametrize("k", range(3, 9))
def test_halved_walk_hands_over_every_leaf_of_plain_enumeration_in_order(k):
    # no prune is passed, so every gcd-1 cell is walked in half and
    # handed its findings' mirrors; the bound 2l makes every streamed set
    # a finding
    ties = self_mirrors = 0
    for l in range(k - 1, 2 * k + 5):
        streamed = [(t, len(naive_restricted(t)))
                    for t in enumerate_tuples(EnumerationQuery.exact(k, l, ("gcd_one",)))]
        for bound in (freiman_lev_bound(k, l), 2 * l):
            assert _walk_span(k, l, bound) == ([(t, n) for t, n in streamed if n <= bound], 0)
        ties += sum(t[1] + t[-2] == l for t, _n in streamed)
        self_mirrors += sum(t == mirror(t) for t, _n in streamed)
    # the cells hold sets on the tie a_1 + a_{k-2} = l, which is every
    # set that is its own mirror; for k <= 4 every tie is its own mirror
    assert ties >= self_mirrors > 0
    assert k <= 4 or ties > self_mirrors


@st.composite
def gcd_one_sets(draw):
    k = draw(st.integers(min_value=3, max_value=12))
    l = draw(st.integers(min_value=k - 1, max_value=3 * k))
    interior = draw(st.lists(st.integers(min_value=1, max_value=l - 1),
                             min_size=k - 2, max_size=k - 2, unique=True))
    t = (0, *sorted(interior), l)
    assume(gcd(*t) == 1)
    return t


def first_interior(mask):
    """a_1 of a set or prefix with mask ``mask``: its second-lowest member."""
    rest = mask >> 1
    return (rest & -rest).bit_length()


@contextmanager
def kept_prefixes():
    """Record the prefixes that a span walk keeps, in walk order, each as
    the mask of its elements with the top: the walk descends into its
    ``find`` once for each placement that neither its bound nor its
    prune cuts, handing it that mask.  A profile hook sees each call.
    The witness walk's root call, whose mask holds only 0 and the top,
    places a_1 and keeps no prefix, so it is skipped."""
    kept: list[int] = []
    outer = sys.getprofile()

    def recording(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_name == "find" and code.co_filename == verify.__file__:
            mask = frame.f_locals["mask"]
            if mask.bit_count() > 2:
                kept.append(mask)

    sys.setprofile(recording)
    try:
        yield kept
    finally:
        sys.setprofile(outer)


def in_window(prefix, k, l, w):
    """Whether the gap law lets w be a witness of a k-set with top l below
    the prefix a_0..a_p (the top not among them): some count j of
    elements below w puts w in [2j-2, l-2k+2j+2].  j counts the prefix
    elements below w, plus as many of the values between a_p and w as a
    set below the prefix may hold, when w is above a_p."""
    below = sum(a < w for a in prefix)
    free = max(0, w - prefix[-1] - 1)
    return any(2 * j - 2 <= w <= l - 2 * k + 2 * j + 2 for j in range(below, below + free + 1))


def witness_prune_reference(k, l, law=True):
    """(kept, cut): the prefixes that the halved witness walk of a cell
    (k, l) reaches, by the naive witnesses, each as the mask of its
    elements with the top.  It reaches every prefix a_0..a_p, 1 <= p <=
    k-2, under the span caps and the mirror caps a_1 <= (l-k+3)//2 and
    a_j <= l - a_1 - (k-2-j), whose own prefixes it keeps; it keeps
    those with two or more candidate witnesses, in walk order, and cuts
    the others.  A candidate is a naive witness of the prefix with the
    top that, with ``law``, the gap law allows (``in_window``); without
    it, every such witness is one, as before the walk cut by the law.
    With the law, a cell with l <= 2k-5 reaches no prefix: there no
    value lies in any window, and the walk returns at once."""
    kept, cut = [], []
    if law and l <= 2 * k - 5:
        return kept, cut

    def extend(prefix):
        pos = len(prefix)
        if pos == k - 1:
            return
        cap = (l - k + 3) // 2 if pos == 1 else l - prefix[1] - (k - 2 - pos)
        for v in range(prefix[-1] + 1, min(l - (k - 1 - pos), cap) + 1):
            grown = prefix + (v,)
            candidates = [w for w in naive_witnesses(grown + (l,))
                          if not law or in_window(grown, k, l, w)]
            if len(candidates) >= 2:
                kept.append(mask_of(grown + (l,)))
                extend(grown)
            else:
                cut.append(mask_of(grown + (l,)))

    extend((0,))
    return kept, cut


@pytest.mark.parametrize("k", range(3, 9))
def test_halved_walk_with_a_sound_prune_hands_over_every_finding_in_order(k):
    # a gcd-1 cell is walked in half under the witness prune, as the
    # prune is sound (it cuts only prefixes below which no set is a
    # finding) and a set is a finding exactly when its mirror is: two or
    # more witnesses, as W(l - A) = l - W(A).  Every finding, mirrors
    # included, is returned in stream order, and the walk keeps no prefix
    # past a_1 <= (l-k+3)//2: it keeps exactly the naive reference's
    # prefixes
    findings = mirrored = 0
    for l in range(k - 1, 2 * k + 3):
        with kept_prefixes() as kept:
            found, _tallied = _walk_span(k, l, 2 * l, prune_witnesses=True)
        want = [(t, len(naive_restricted(t)))
                for t in enumerate_tuples(EnumerationQuery.exact(k, l, ("gcd_one",)))
                if len(naive_witnesses(t)) >= 2]
        assert found == want
        assert kept == witness_prune_reference(k, l)[0]
        assert max(map(first_interior, kept), default=0) <= (l - k + 3) // 2
        findings += len(found)
        mirrored += sum(t[1] + t[-2] > l for t, *_ in found)
    assert findings > mirrored > 0


@pytest.mark.parametrize("k", range(3, 10))
def test_witness_walk_cuts_exactly_the_prefixes_with_fewer_than_two_candidates(k):
    # on every prefix of every gcd-1 cell with l <= 2k-3, the span of the
    # witness cells: the walk keeps a prefix exactly when its elements
    # with the top have two or more naive candidate witnesses that the gap
    # law allows, so it cuts exactly the others among the prefixes it
    # reaches.  Each prefix it keeps the rule without the law keeps too
    kept_total = cut_total = 0
    for l in range(k - 1, 2 * k - 2):
        with kept_prefixes() as kept:
            found, _tallied = _walk_span(k, l, 2 * l, prune_witnesses=True)
        want, cut = witness_prune_reference(k, l)
        assert kept == want, l
        assert set(kept) <= set(witness_prune_reference(k, l, law=False)[0]), l
        # the prune cuts every set with fewer than two witnesses
        assert all(len(naive_witnesses(t)) >= 2 for t, *_ in found), l
        kept_total += len(kept)
        cut_total += len(cut)
    assert (kept_total, cut_total) == {3: (0, 2), 4: (4, 3), 5: (14, 12), 6: (51, 50),
                                       7: (130, 169), 8: (367, 559), 9: (981, 1608)}[k]


def test_every_witness_lies_in_the_window_of_the_gap_law():
    # a witness w of a k-set A with 0 and top l, with j elements of A
    # below it, lies in [2j-2, l-2k+2j+2]: below w no pair {a, w-a} lies
    # in A, nor above it a pair {x, w+l-x}.  So no set with l <= 2k-5 has
    # a witness, and at l = 2k-4 every witness is even.  Every set, of
    # any gcd, with 3 <= k <= 8 and k-1 <= l <= 2k+2
    sets = witnesses = 0
    for k in range(3, 9):
        for l in range(k - 1, 2 * k + 3):
            for interior in combinations(range(1, l), k - 2):
                elems = (0, *interior, l)
                wits = naive_witnesses(elems)
                for w in wits:
                    j = sum(a < w for a in elems)
                    assert 2 * j - 2 <= w <= l - 2 * k + 2 * j + 2, (elems, w)
                assert l >= 2 * k - 4 or not wits, elems
                sets += 1
                witnesses += len(wits)
    assert (sets, witnesses) == (42477, 98614)


@pytest.mark.parametrize("k", range(3, 9))
def test_witness_walk_holds_its_findings_to_a_bound_that_cuts(k):
    # the witness cells pass the bound 2l, which no set reaches; a smaller
    # bound, which the witness loop does not cut on, must still leave
    # exactly the sets with two or more witnesses and |2^A| <= bound, in
    # stream order.  3k-7 keeps some of them and drops others from k = 6
    kept = [0] * 4
    for l in range(k - 1, 2 * k - 2):
        sets = [(t, len(naive_restricted(t)))
                for t in enumerate_tuples(EnumerationQuery.exact(k, l, ("gcd_one",)))
                if len(naive_witnesses(t)) >= 2]
        for i, bound in enumerate((2 * k - 3, 3 * k - 7, 2 * l - 2, 2 * l)):
            want = [f for f in sets if f[1] <= bound]
            assert _walk_span(k, l, bound, prune_witnesses=True) == (want, 0), (l, bound)
            kept[i] += len(want)
    assert kept == {3: [0, 0, 0, 0], 4: [2, 2, 2, 2], 5: [0, 6, 6, 6], 6: [0, 13, 15, 15],
                    7: [0, 20, 22, 22], 8: [0, 25, 33, 33]}[k]


@given(gcd_one_sets())
@settings(max_examples=300, deadline=None)
def test_the_witnesses_of_the_mirror_are_the_mirrored_witnesses(t):
    # W(l - A) = l - W(A): the mirror keeps the top l and maps A to l - A
    # and 2^A to 2l - 2^A.  So l - w is outside l - A exactly when w is
    # outside A, and the two sum conditions swap: l - w is in 2l - 2^A
    # exactly when w + l is in 2^A, and (l - w) + l exactly when w is.
    # The library's witnesses are the oracle's
    l = t[-1]
    wits = naive_witnesses(t)
    assert naive_witnesses(mirror(t)) == sorted(l - w for w in wits)
    assert witness_profile(NormalizedSet(t)).values.elements == tuple(wits)


def closed_under_mirror(constraints):
    """Whether every small cell under ``constraints`` holds the mirror of
    each of its sets."""
    return all(
        {mirror(t) for t in sets} == sets
        for k in range(3, 9)
        for l in range(k - 1, 2 * k + 3)
        for sets in [set(enumerate_tuples(EnumerationQuery.exact(k, l, constraints)))]
    )


def test_every_gcd_one_cell_holds_the_mirror_of_each_of_its_sets():
    # the fact the span walker rests on: A -> l - A keeps a set's gcd and
    # its span, so every gcd-1 cell of exact span maps onto itself and is
    # walked in half.  A constraint that caps low or interior positions
    # does not: the mirror moves what it caps
    assert closed_under_mirror(("gcd_one",))
    assert not closed_under_mirror(DENSE)
    assert not closed_under_mirror(LOW_SECOND)


# the ids are those the k = 2 cases had in the earlier, longer table,
# which also held constraint cases the walker can no longer be handed
@pytest.mark.parametrize("k, constraints", [
    pytest.param(2, (), id="2-constraints4"),
    pytest.param(2, ("gcd_one",), id="2-constraints5"),
])
def test_span_walker_refuses_a_cell_it_cannot_walk_in_half(k, constraints):
    # at k = 2 there is no interior a_1 to cap: the walker refuses every
    # span, those whose cell holds a set under the constraints included,
    # rather than return a walk that misses it
    spans = [l for l in range(1, 2 * k + 2)
             if any(enumerate_tuples(EnumerationQuery.exact(k, l, constraints)))]
    assert spans
    for l in range(1, 2 * k + 2):
        with pytest.raises(SetDomainError, match="in half"):
            _walk_span(k, l, 4 * k)


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


# theorem 3's cells: span 2k-3
classification_cells = st.builds(
    lambda k, budget: (k, 2 * k - 3, budget), st.integers(min_value=4, max_value=9), budgets
)


def floor_cell(fn, constraints):
    """The floor cell of ``fn`` (``_floor_cells`` or the dense row) under
    ``constraints`` alone, as a function of (k, l, budget): a task with
    the one top l, run by the task runner."""

    def cell(args):
        k, l, budget = args
        return _run_task((fn, constraints, k, (l,), budget))[0]

    return cell


def floor_reference(constraints):
    """The floor cell under ``constraints`` by plain enumeration, as a
    function of (k, l, budget)."""

    def reference(k, l, budget):
        bound = freiman_lev_bound(k, l)
        counts, low = plain_walk(k, l, constraints, budget, bound)
        return {
            "k": k,
            "l": l,
            **counts,
            "bound": bound,
            "below": [(t, n) for t, n in low if n < bound],
            "at": [t for t, n in low if n == bound],
        }

    return reference


def conjecture_reference(k, l, budget):
    """The conjecture's floor cell by plain enumeration: the floor
    cell's dict, with the number ``tight`` of the sets on the bound in
    place of their tuples."""
    cell = floor_reference(("gcd_one",))(k, l, budget)
    at = cell.pop("at")
    return {**cell, "tight": len(at)}


# each floor sweep's cell function and constraints, with that sweep's
# cells: theorem 2's is its dense row, the others walk in half
FLOOR_SWEEPS = [
    (_floor_cells, ("gcd_one",), conjecture_cells()),
    (_dense_row, DENSE, dense_cells()),
    (_floor_cells, ("gcd_one",), classification_cells),
]
dense_cell = floor_cell(_dense_row, DENSE)


@given(conjecture_cells())
@settings(max_examples=80, deadline=None)
def test_conjecture_cell_matches_plain_enumeration(cell):
    # the conjecture's cell counts the sets on the floor that the floor
    # cell lists
    assert floor_cell(_floor_cells, ("gcd_one",))(cell) == floor_reference(("gcd_one",))(*cell)
    assert floor_cell(_conjecture_cell, ("gcd_one",))(cell) == conjecture_reference(*cell)


@pytest.mark.parametrize("k", range(3, 9))
def test_conjecture_walk_lists_the_sets_below_the_floor_and_tallies_those_on_it(k):
    # on every conjecture cell, at the Freiman-Lev floor: the walk that
    # keeps n <= keep lists exactly the full walk's findings with n <=
    # keep, and its tally counts the others, as the full walk and plain
    # enumeration count them.  A walked set with a_1 + a_{k-2} < l
    # counts its mirror too, which the halved walk does not visit: from
    # k = 5 on, some sets on the floor are listed only as such mirrors,
    # so a tally that drops the mirror's 1 is short
    reference = floor_reference(("gcd_one",))
    tight = mirrored = 0
    for l in range(k - 1, 2 * k + 5):
        bound = freiman_lev_bound(k, l)
        full, none = _walk_span(k, l, bound)
        assert none == 0
        for keep in (bound - 2, bound - 1, bound):
            listed, tallied = _walk_span(k, l, bound, keep=keep)
            assert listed == [f for f in full if f[1] <= keep], (l, keep)
            assert tallied == sum(keep < f[1] for f in full), (l, keep)
        on = [t for t, n in full if n == bound]
        assert _walk_span(k, l, bound, keep=bound - 1)[1] == len(on) == len(
            reference(k, l, 10**9)["at"])
        tight += len(on)
        mirrored += sum(t[1] + t[-2] > l for t in on)
    assert (tight, mirrored) == {3: (0, 0), 4: (22, 0), 5: (75, 18), 6: (163, 37),
                                 7: (211, 54), 8: (394, 89)}[k]


@given(dense_cells())
@settings(max_examples=80, deadline=None)
def test_dense_prefix_cell_matches_plain_enumeration(cell):
    assert dense_cell(cell) == floor_reference(DENSE)(*cell)


@given(classification_cells)
@settings(max_examples=60, deadline=None)
def test_classification_cell_matches_plain_enumeration(cell):
    assert floor_cell(_floor_cells, ("gcd_one",))(cell) == floor_reference(("gcd_one",))(*cell)


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
    # a skipped cell raises at the node past the budget, as the enumerator does
    bound = 3 * k - 7
    counts, low = plain_walk(k, l, ("gcd_one",), budget, bound)
    return budget + 1 if counts["truncated"] else [t for t, n in low if n == bound]


@given(classify_args())
@settings(max_examples=60, deadline=None)
def test_classify_extremal_matches_plain_enumeration(args):
    assert classify_cell(args) == classify_reference(*args)


# ---------------------------------------------------------------------------
# Cells that check every set: theorem 1, structure and witness


def low_second_cell(args):
    """One theorem 1 cell (k, l, budget) alone: a row with the one top l."""
    k, l, budget = args
    return _run_task((_low_second_row, LOW_SECOND, k, (l,), budget))[0]


def structure_cell(args):
    """One structure cell (k, l, budget) alone: a row with the one top l."""
    k, l, budget = args
    return _run_task((_structure_row, DENSE, k, (l,), budget))[0]


@st.composite
def low_second_cells(draw):
    k = draw(st.integers(min_value=3, max_value=9))
    return k, draw(st.integers(min_value=2 * k - 2, max_value=2 * k + 6)), draw(budgets)


def low_second_reference(k, l, budget):
    """The theorem 1 cell by plain enumeration: the floor's findings as
    the floor cells word them, and split_at's message on every set with
    a split position that it fails."""
    bound = 3 * k - 7
    counts, streamed = plain_sets(k, l, LOW_SECOND, budget)
    bad = []
    splits = 0
    for t, _n in streamed:
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
        **counts,
        "bound": bound,
        "below": [(t, n) for t, n in streamed if n < bound],
        "at": [t for t, n in streamed if n == bound],
        "splits": splits,
        "bad": bad,
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
    counts, streamed = plain_sets(k, l, DENSE, budget)
    return {
        "k": k,
        "l": l,
        **counts,
        "extremal": sum(1 for _t, n in streamed if n == 3 * k - 7),
        "bad": [msg for t, _n in streamed for msg in structure_failures(t)],
    }


@given(dense_cells())
@settings(max_examples=60, deadline=None)
def test_structure_cell_matches_plain_enumeration(cell):
    assert structure_cell(cell) == structure_reference(*cell)


# every dense head with k <= 10, from its cell at top 2k-2: a dense head
# has a_1 = 1, so it has gcd 1 and streams at every top
DENSE_HEADS = tuple(
    t[:-1]
    for k in range(3, 11)
    for t in enumerate_tuples(EnumerationQuery.exact(k, 2 * k - 2, DENSE))
)


def test_head_failures_match_the_public_checkers_on_every_dense_head():
    # _head_failures takes the head's restricted mask from its caller (the
    # row walk's), here the oracle's.  A head whose B is empty returns at
    # once: every public checker passes it, as its restricted sums cover
    # [1, 2k-4]
    assert len(DENSE_HEADS) == 2055
    empty_b = 0
    for head in DENSE_HEADS:
        k = len(head) + 1
        t = head + (2 * k - 2,)
        prefix = f"{lit(t)}: "
        want = [msg.removeprefix(prefix) for msg in structure_failures(t)]
        reach = naive_restricted(head)
        got = structure._head_failures(head, mask_of(head), mask_of(reach))
        assert list(got) == want
        if set(range(1, 2 * k - 3)) <= reach:
            empty_b += 1
            assert want == [] and exceptional_profile(NormalizedSet(t)).m == 0
    assert empty_b == 1027


def test_every_dense_head_sumset_covers_the_low_window():
    # _head_failures makes no coverage check: by pigeonhole, a head with
    # a_i <= 2i-1 has a and x-a in it for every x <= 2k-4
    for head in DENSE_HEADS:
        window = (1 << 2 * len(head) - 1) - 1
        assert double_mask(mask_of(head), head) & window == window, head


def test_head_failures_return_at_once_exactly_on_the_heads_with_empty_b(monkeypatch):
    # with the growth check faulted to fail on every head it runs on, a
    # head reports a failure exactly when _head_failures runs its checks:
    # on the 1028 dense heads whose B is not empty
    monkeypatch.setattr(structure, "_growth_ok", lambda h: False)
    checked = 0
    for head in DENSE_HEADS:
        k = len(head) + 1
        reach = naive_restricted(head)
        fails = structure._head_failures(head, mask_of(head), mask_of(reach))
        assert bool(fails) == (not set(range(1, 2 * k - 3)) <= reach)
        checked += bool(fails)
    assert checked == 1028


def test_head_failures_match_the_frozen_tuple_checks_on_every_dense_head():
    # the bit tests on the head's masks give the messages of the frozen
    # tuple-based checks, in order, on every dense head with its true
    # restricted mask, which passes every check, and with that mask
    # faulted by one bit flip anywhere in [1, 2k-4+b_last], b_last the
    # largest member of B (0 when B is empty).  The faults reach every
    # message but the sumset coverage, which the frozen checks read off
    # the elements and which no dense head fails
    faulted = 0
    kinds: set[str] = set()
    for head in DENSE_HEADS:
        k = len(head) + 1
        mask, reach = mask_of(head), mask_of(naive_restricted(head))
        b_last = max((b for b in range(1, 2 * k - 3) if not reach >> b & 1), default=0)
        assert structure._head_failures(head, mask, reach) == frozen_head_failures(head, reach)
        assert frozen_head_failures(head, reach) == ()
        for bit in range(1, 2 * k - 3 + b_last):
            got = structure._head_failures(head, mask, reach ^ 1 << bit)
            assert got == frozen_head_failures(head, reach ^ 1 << bit), (head, bit)
            faulted += 1
            kinds.update(re.sub(r"\d+", "N", msg) for msg in got)
    assert faulted == 36164
    assert kinds == {
        "b=N: odd", "b=N: lies in the head set", "b=N: half N missing from the head set",
        "b=N: prefix count N != N", "b=N: pair (N,N) hit count N != N",
        "b=N: successor N not at position N", "exceptional values grow too slowly",
        "tail pair counts fail at b=N, u=N", "consecutive missing pair without the low shape",
        "distance-N missing pair", "distance-N missing pair without a mod-N shape",
        "covered offsets N below the floor for b=N",
        "double gap above the window without a rigid shape",
        "rigid shape two_blocks_odd without the double gap",
        "rigid shape three_blocks_modN without the double gap",
    }


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
    (_dense_row, dense_cell, floor_reference(DENSE), DENSE),
]


@given(detached_rows(), budgets)
@settings(max_examples=40, deadline=None)
def test_structure_row_matches_lone_cells_and_plain_enumeration(row, budget):
    k, tops = row
    got = _run_task((_structure_row, DENSE, k, tops, budget))
    assert got == [structure_cell((k, l, budget)) for l in tops]
    assert got == [structure_reference(k, l, budget) for l in tops]


@given(detached_rows(), budgets)
@settings(max_examples=40, deadline=None)
def test_low_second_row_matches_lone_cells_and_plain_enumeration(row, budget):
    k, tops = row
    got = _run_task((_low_second_row, LOW_SECOND, k, tops, budget))
    assert got == [low_second_cell((k, l, budget)) for l in tops]
    assert got == [low_second_reference(k, l, budget) for l in tops]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rows_mixing_head_walked_and_lone_cells_match_plain_enumeration(data):
    # the budget is one top's planned node total -1, +0 or +1: the cells
    # with smaller plans walk every head, the larger ones are skipped and
    # take no head, and the pivot sits on either side
    row_fn, cell_fn, reference, constraints = data.draw(st.sampled_from(ROWS))
    k, tops = data.draw(detached_rows())
    pivot = data.draw(st.sampled_from(tops))
    planned = plain_sets(k, pivot, constraints, 10**9)[0]["planned"]
    for budget in (planned - 1, planned, planned + 1):
        got = _run_task((row_fn, constraints, k, tops, budget))
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


@pytest.mark.parametrize("constraints", [DENSE, LOW_SECOND], ids=["dense", "low_second"])
@pytest.mark.parametrize("k", range(3, 11))
def test_every_row_head_has_gcd_one(k, constraints):
    # the row walker takes no gcd: every head it walks, which is every
    # head of the constraints without gcd_one, has gcd 1 already
    no_gcd = tuple(c for c in constraints if c != "gcd_one")
    want = [t[:-1] for t in enumerate_tuples(EnumerationQuery.exact(k, 2 * k - 2, no_gcd))]
    walked = []
    _walk_row(k, (2 * k - 2, 2 * k + 1), constraints,
              lambda head, *_: walked.append(head))
    assert walked == want
    for head in walked:
        g = 0
        for v in head:
            g = gcd(g, v)
        assert g == 1


def test_row_walker_refuses_tops_with_different_heads():
    # without a detached top the heads depend on the top: (0, 3) is a
    # head at l = 5 and not at l = 3
    with pytest.raises(SetDomainError):
        _walk_row(3, (3, 5), ("gcd_one",), lambda *_: None)


@given(st.integers(min_value=3, max_value=7),
       st.one_of(st.integers(min_value=1, max_value=300_000), st.just(10**9)))
@settings(max_examples=30, deadline=None)
def test_sweep_gives_row_cells_the_budget_share_of_lone_cells(k_max, budget):
    rows, _cap = _detached_top_rows(3, k_max, None)
    n_cells = sum(len(tops) for _k, tops in rows)
    for row_fn, _cell_fn, _reference, constraints in ROWS:
        row_tasks = [(row_fn, constraints, k, tops) for k, tops in rows]
        cell_tasks = [(row_fn, constraints, k, (l,)) for k, tops in rows for l in tops]
        if budget < n_cells:
            # too small to give each cell a node: both sides refuse it
            for tasks in (row_tasks, cell_tasks):
                with pytest.raises(SetDomainError, match="budget"):
                    _sweep(tasks, budget, 1)
        else:
            assert _sweep(row_tasks, budget, 1) == _sweep(cell_tasks, budget, 1)


@st.composite
def witness_cells(draw):
    k = draw(st.integers(min_value=4, max_value=9))
    return k, draw(st.integers(min_value=k - 1, max_value=2 * k - 3)), draw(budgets)


def witness_reference(k, l, budget):
    """The witness cell by plain enumeration, each set's witnesses from
    the naive oracle."""
    counts, streamed = plain_sets(k, l, ("gcd_one",), budget)
    extremal = pairs = 0
    bad = []
    notes = []
    for t, n in streamed:
        ns = NormalizedSet(t)
        wits = naive_witnesses(t)
        if len(wits) > 2:
            bad.append(f"{lit(t)}: {len(wits)} witnesses {lit(wits)}")
            continue
        if len(wits) < 2:
            continue
        pairs += 1
        extremal += n == 3 * k - 7
        w1, w2 = wits
        try:
            dec = structure.decompose(ns, w1, w2)
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
                    if (u1 + u2 - w2) % m == 0 and (u1 in u_set) + (u2 in u_set) != 1:
                        bad.append(
                            f"{lit(t)}: residue pair ({u1},{u2}) not split by the half-grid"
                        )
    return {
        "k": k,
        "l": l,
        **counts,
        "extremal": extremal,
        "pairs": pairs,
        "bad": bad,
        "notes": notes,
    }


def witness_cell(args):
    """One witness cell (k, l, budget), run by the task runner."""
    k, l, budget = args
    return _run_task((_witness_cell, ("gcd_one",), k, (l,), budget))[0]


@given(witness_cells())
@settings(max_examples=60, deadline=None)
def test_witness_cell_matches_plain_enumeration(cell):
    assert witness_cell(cell) == witness_reference(*cell)


@pytest.mark.parametrize("fault", [None, "notes", "bad", "residues"])
@pytest.mark.parametrize("k", [8, 9])
def test_every_witness_cell_of_the_sweep_matches_plain_enumeration(k, fault, monkeypatch):
    # the lemma sweep's witness cells at k = 8 and 9, each walked in half
    # under its prune, give the reference's dict: counts, and bad and
    # notes in stream order.  These cells find neither, so decompose is
    # also faulted to refuse every pair (a note each), to rebuild none
    # (a bad entry each), or to give the residues below m that are
    # multiples of 3, which the residue pairs at span 2k-3 split or not
    # by no law: the cell's one partner per u1 must then list the
    # reference's residue-pair messages, from its loop over every pair,
    # in the same order
    real = structure.decompose

    def faulted(ns, w1, w2):
        if fault == "notes":
            raise SetDomainError(f"refused ({w1}, {w2})")
        dec = real(ns, w1, w2)
        if fault == "residues":
            return dec._replace(residues=IntegerSet(range(0, dec.modulus, 3)))
        return dec._replace(reconstructed=False)

    if fault is not None:
        monkeypatch.setattr(structure, "decompose", faulted)
    cells = [witness_cell((k, l, 10**9)) for l in range(k - 1, 2 * k - 2)]
    assert cells == [witness_reference(k, l, 10**9) for l in range(k - 1, 2 * k - 2)]
    pairs = sum(cell["pairs"] for cell in cells)
    found = {key: sum(len(cell[key]) for cell in cells) for key in ("bad", "notes")}
    residue_pairs = sum("residue pair" in msg for cell in cells for msg in cell["bad"])
    assert pairs > 0
    if fault is None:
        assert found == {"bad": 0, "notes": 0}
    elif fault == "residues":
        # span 13 is prime, so every pair at k = 8 has m = 1 and no
        # residue pair; at k = 9, span 15, m is 3 or 5
        assert residue_pairs == {8: 0, 9: 22}[k]
    else:
        assert found[fault] >= pairs


def hand_witness_cell(monkeypatch, cell, change):
    """Patch the span walk so that the witness walk of the cell (k, l)
    hands over ``change(findings)`` in place of its findings."""
    walk_span = verify._walk_span

    def span(k, l, bound, *args, **kwargs):
        found, tallied = walk_span(k, l, bound, *args, **kwargs)
        if (k, l) == cell and kwargs.get("prune_witnesses"):
            found = change(found)
        return found, tallied

    monkeypatch.setattr(verify, "_walk_span", span)


@pytest.mark.parametrize("count", [0, 1])
def test_witness_cell_names_a_handed_set_without_two_witnesses(count, monkeypatch):
    # the cell counts each set's witnesses on the set's own sweep, not on
    # the walk's word: a set of the cell with 0 or 1 naive witnesses that
    # the walk hands over is bad, worded as a set with too many, and
    # refutes the sweep.  Nothing else in the cell changes
    k, l = 8, 13
    tup = next(t for t in enumerate_tuples(EnumerationQuery.exact(k, l, ("gcd_one",)))
               if len(naive_witnesses(t)) == count)
    hand_witness_cell(monkeypatch, (k, l),
                      lambda found: sorted(found + [(tup, len(naive_restricted(tup)))]))
    message = f"{lit(tup)}: {count} witnesses {lit(naive_witnesses(tup))}"
    cell = witness_cell((k, l, 10**9))
    assert cell["bad"] == [message]
    assert {**cell, "bad": []} == witness_reference(k, l, 10**9)
    cert = sweep_structure(k)
    assert cert.outcome == "refuted"
    assert cert.counterexamples == [f"k={k} l={l}: {message}"]


def test_witness_cell_reads_the_restricted_size_off_the_set(monkeypatch):
    # extremal counts the pairs on the 3k-7 floor by the set's own sweep:
    # a walk that moves each finding's n across the floor (at l = 13, 22
    # of the 30 pairs sit on it) leaves the cell as the reference has it
    k, l = 8, 13
    floor = 3 * k - 7
    hand_witness_cell(monkeypatch, (k, l),
                      lambda found: [(t, floor + (n == floor)) for t, n in found])
    cell = witness_cell((k, l, 10**9))
    assert cell == witness_reference(k, l, 10**9)
    assert (cell["pairs"], cell["extremal"]) == (30, 22)


def test_halved_witness_walk_asks_its_prune_about_no_prefix_past_the_mirror_cap():
    # every witness cell is mirror-closed, so its walk places a_1 at most
    # (l-k+3)//2: it keeps no prefix past it, and keeps exactly the naive
    # reference's prefixes, so it reaches every a_1 up to it
    for k in range(4, 10):
        for l in range(k - 1, 2 * k - 2):
            with kept_prefixes() as kept:
                got = witness_cell((k, l, 10**9))
            assert got == witness_reference(k, l, 10**9)
            assert kept == witness_prune_reference(k, l)[0]
            assert max(map(first_interior, kept), default=0) <= (l - k + 3) // 2


# each driver cell with its plain-enumeration reference, its constraints
# and a strategy for its (k, l), whose drawn budget is not used
DRIVER_CELLS = [
    *((floor_cell(fn, constraints), floor_reference(constraints), constraints, cells)
      for fn, constraints, cells in FLOOR_SWEEPS),
    (floor_cell(_conjecture_cell, ("gcd_one",)), conjecture_reference, ("gcd_one",),
     conjecture_cells()),
    (classify_cell, classify_reference, ("gcd_one",), classify_args()),
    (low_second_cell, low_second_reference, LOW_SECOND, low_second_cells()),
    (structure_cell, structure_reference, DENSE, dense_cells()),
    (witness_cell, witness_reference, ("gcd_one",), witness_cells()),
]


# the cell functions, each with the constraints its sweep gives it, and
# the findings of a top they do not walk
FINDERS = [
    (_floor_cells, ("gcd_one",), lambda k, l: {"bound": freiman_lev_bound(k, l),
                                               "below": [], "at": []}),
    (_conjecture_cell, ("gcd_one",), lambda k, l: {"bound": freiman_lev_bound(k, l),
                                                   "below": [], "tight": 0}),
    (_dense_row, DENSE, lambda k, l: {"bound": freiman_lev_bound(k, l),
                                      "below": [], "at": []}),
    (_low_second_row, LOW_SECOND, lambda k, l: {"bound": 3 * k - 7, "below": [], "at": [],
                                                 "splits": 0, "bad": []}),
    (_structure_row, DENSE, lambda k, l: {"extremal": 0, "bad": []}),
    (_witness_cell, ("gcd_one",), lambda k, l: {"extremal": 0, "pairs": 0, "bad": [],
                                                "notes": []}),
]


@given(st.integers(min_value=3, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_task_runner_walks_exactly_the_tops_that_fit_and_stream_a_set(k, data):
    # last_eq_2k_minus_3 rules out every top but 2k-3: those cells have
    # planned nodes and no set, so they fit a large share and are not walked
    constraints = data.draw(st.sampled_from(
        [(), ("gcd_one",), DENSE, LOW_SECOND, ("gcd_one", "last_eq_2k_minus_3")]))
    tops = tuple(data.draw(st.lists(st.integers(min_value=k - 1, max_value=2 * k + 4),
                                    min_size=1, max_size=4)))
    budget = data.draw(budgets)
    handed = []

    def fn(k_, tops_, walked, constraints_):
        assert (k_, tops_, constraints_) == (k, tops, constraints)
        handed.append(walked)
        return [{"walked": l in walked} for l in tops_]

    got = _run_task((fn, constraints, k, tops, budget))
    counts = [plain_sets(k, l, constraints, budget)[0] for l in tops]
    assert handed == [tuple(l for l, c in zip(tops, counts)
                            if not c["truncated"] and c["sets"])]
    assert got == [{"k": k, "l": l, **c, "walked": l in handed[0]}
                   for l, c in zip(tops, counts)]
    # each cell function finds nothing on a top it is not handed
    detached = (2 * k - 2, 2 * k + 1)
    for cell_fn, cell_constraints, empty in FINDERS:
        one_top = cell_fn in (_floor_cells, _conjecture_cell, _witness_cell)
        row = detached[:1] if one_top else detached
        assert cell_fn(k, row, (), cell_constraints) == [empty(k, l) for l in row]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cells_match_plain_enumeration_on_both_sides_of_the_plan(data):
    # a cell whose planned nodes fit its budget is walked whole; one node
    # less and the enumerator raises at its last node, so it is skipped
    fn, reference, constraints, cells = data.draw(st.sampled_from(DRIVER_CELLS))
    k, l, _budget = data.draw(cells)
    planned = plain_sets(k, l, constraints, 10**9)[0]["planned"]
    for budget in (planned - 1, planned, planned + 1):
        assert fn((k, l, budget)) == reference(k, l, budget)


# every set of a theorem 1 box with a split position, k <= 6
SPLITTABLE = tuple(
    t
    for k in range(4, 7)
    for l in range(2 * k - 2, 2 * k + 3)
    for t, _n in plain_sets(k, l, LOW_SECOND, 10**9)[1]
    if find_admissible_split(NormalizedSet(t)) is not None
)


def test_split_check_fails_with_the_message_split_at_gives():
    # the row reads the right half's restricted mask without the top from
    # the head walk, which carries it down, and split_at computes it by
    # core's kernel; faulting both for one set, both ways, must leave that
    # set's head unsettled and make the row record split_at's message on
    # exactly that set: dropping the shared sum a_{s-1} + a_s breaks the
    # overlap identity, and one sum more than |2^A| leaves room for,
    # placed above 2l, breaks only the bound.  Each cell is one top, so a
    # head holds one set
    by_s = {"s = k-2": 0, "s < k-2": 0}
    for t in SPLITTABLE:
        k, l = len(t), t[-1]
        ns = NormalizedSet(t)
        s = find_admissible_split(ns)
        split = split_at(ns, s)
        lo, hi = t[s - 1], t[s]
        right_head_mask = mask_of(t[s - 1:-1])
        spare = split.card_restricted - split.lower_bound
        faults = {
            f"overlap identity failed at s={s} for {t}: "
            f"the restricted overlaps are not the three shared pairwise sums":
                lambda m: m & ~(1 << lo + hi),
            f"additive split bound failed at s={s} for {t}: "
            f"{split.card_restricted} < {split.card_restricted + 1}":
                lambda m: m | ((2 << spare) - 1) << 2 * l + 1,
        }
        for message, fault in faults.items():
            real_mask, real_split = structure.restricted_mask, structure.split_at
            splitting = [None]

            def faulted_mask(mask, elems):
                got = real_mask(mask, elems)
                return fault(got) if splitting[0] == t and mask == right_head_mask else got

            def faulted_split(a, s_):
                splitting[0] = a.elements
                try:
                    return real_split(a, s_)
                finally:
                    splitting[0] = None

            def faulted_walk(k_, tops, constraints, check):
                def faulted_check(head, head_mask, rs, s_, right_r):
                    check(head, head_mask, rs, s_, fault(right_r) if head == t[:-1] else right_r)

                return _walk_row(k_, tops, constraints, faulted_check)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(structure, "restricted_mask", faulted_mask)
                mp.setattr(structure, "split_at", faulted_split)
                mp.setattr(verify, "_walk_row", faulted_walk)
                (got,) = _low_second_row(k, (l,), (l,), LOW_SECOND)
                want = []
                for u, _n in plain_sets(k, l, LOW_SECOND, 10**9)[1]:
                    nu = NormalizedSet(u)
                    su = find_admissible_split(nu)
                    if su is None:
                        continue
                    try:
                        structure.split_at(nu, su)
                    except RuntimeError as exc:
                        want.append(f"{lit(u)}: {exc}")
            assert want == [f"{lit(t)}: {message}"]
            assert got["bad"] == want
        by_s["s = k-2" if s == k - 2 else "s < k-2"] += 1
    assert by_s["s = k-2"] > 0 and by_s["s < k-2"] > 0


@pytest.mark.parametrize("head", [(0, 1, 2, 3, 8, 9), (0, 1, 2, 6, 7, 8)],
                         ids=["s = k-2", "s < k-2"])
def test_a_right_half_walked_without_one_element_fails_the_split_check(head):
    # the walk builds right_r from the right half's mask it carries down;
    # a carried mask that lost one element gives right_r the sums of the
    # right half without it.  The row reads the right half from the head
    # mask, so the split check fails on the set, which split_at passes
    k, l = len(head) + 1, 12
    s = find_admissible_split(NormalizedSet(head + (l,)))
    right = head[s - 1:]
    for dropped in right:
        rest = tuple(v for v in right if v != dropped)
        fault = mask_of(naive_restricted(rest))

        def faulted_walk(k_, tops, constraints, check):
            def faulted_check(head_, head_mask, rs, s_, right_r):
                check(head_, head_mask, rs, s_, fault if head_ == head else right_r)

            return _walk_row(k_, tops, constraints, faulted_check)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_walk_row", faulted_walk)
            with pytest.raises(AssertionError, match=f"{lit(head + (l,))} at s={s}, which"):
                _low_second_row(k, (l,), (l,), LOW_SECOND)


def test_split_parts_match_split_at_and_the_oracle_on_every_theorem1_set():
    # every set with a split position in the theorem 1 rows k <= 10 (tops
    # up to 2k+6), walked as the row walks them.  The split position and
    # the right half's masks carried down the walk are core's and the
    # kernel's on every head, and the position is find_admissible_split's.  The walk's restricted
    # masks of the head's prefixes are the naive ones.  For s < k-2 the
    # left half is the prefix a_0..a_{s+1}, whose restricted mask rs[s+1]
    # meets no sum of the top: the overlap and |2^left| read once per
    # head are split_at's and the oracle's for every top.  At s = k-2 the
    # left half is the whole set, whose third shared element is the top.
    # The right half's restricted mask is its head's plus the head shifted
    # by the top.  The row itself finds no failure and counts every set
    # with a split position.
    by_s = {"s = k-2": 0, "s < k-2": 0}
    for k in range(4, 11):
        tops = tuple(range(2 * k - 2, 2 * k + 7))
        splits = dict.fromkeys(tops, 0)

        def check(head, head_mask, rs, s, right_head_r):
            assert rs[-1] == restricted_mask(head_mask, head)
            # the split state the walk carries down: the right half from
            # a_{s-1} up, or the whole head when there is no split position;
            # s is find_admissible_split's at every top (below)
            right = head if s is None else head[s - 1:]
            right_head_mask = head_mask >> right[0] << right[0]
            assert right_head_mask == mask_of(right)
            assert right_head_r == restricted_mask(mask_of(right), right)
            for l in tops:
                t = head + (l,)
                ns = NormalizedSet(t)
                assert s == find_admissible_split(ns)
                if s is None:
                    continue
                splits[l] += 1
                split = split_at(ns, s)
                right_r = right_head_r | right_head_mask << l
                assert right_head_mask | 1 << l == split.right.mask
                assert right_r.bit_count() == split.card_right
                if s == k - 2:
                    by_s["s = k-2"] += 1
                    assert split.left.mask == ns.mask
                    overlap = (rs[-1] | head_mask << l) & right_r
                    assert elements_of(overlap) == (t[-3] + t[-2], t[-3] + l, t[-2] + l)
                else:
                    by_s["s < k-2"] += 1
                    left_r = rs[s + 1]
                    assert left_r & right_head_mask << l == 0
                    overlap = left_r & right_head_r
                    assert left_r.bit_count() == split.card_left
                    assert split.left.mask == mask_of(head[:s + 2])
                left, right = t[:s + 2], t[s - 1:]
                two_left, two_right = naive_restricted(left), naive_restricted(right)
                assert elements_of(right_r) == tuple(sorted(two_right))
                assert split.card_left == len(two_left)
                assert elements_of(overlap) == tuple(sorted(two_left & two_right))
                assert overlap == split.overlap.mask

        _walk_row(k, tops, LOW_SECOND, check)
        got = _low_second_row(k, tops, tops, LOW_SECOND)
        assert [cell["splits"] for cell in got] == [splits[l] for l in tops]
        assert all(cell["bad"] == [] for cell in got)
    assert by_s == {"s = k-2": 21177, "s < k-2": 39420}


# ---------------------------------------------------------------------------
# Per-head bounds: a row head settles all its tops at once


def row_heads(k):
    """Every theorem 1 head of k: k-2 interior values in [1, 2k-5].  The
    dense heads (a_i < 2i) are among them."""
    return [(0,) + c for c in combinations(range(1, 2 * k - 4), k - 2)]


def far_tops(k):
    """The tops [2k-2, 4k-10]: from 4k-10 on, past every sum of a head."""
    return range(2 * k - 2, max(2 * k - 2, 4 * k - 10) + 1)


def oracle_masks(head):
    """The head's mask and the oracle's restricted masks of its prefixes
    a_0..a_i, as the row walk hands them over in ``rs``."""
    return mask_of(head), [mask_of(naive_restricted(head[:i + 1])) for i in range(len(head))]


def split_passes(k, head, m, rs, s, right_r, l):
    """Whether the set with top l passes split_at's two identities, read
    from the given masks (``m`` the head's, whose bits from a_{s-1} up
    are the right half's): this test's own per-top statement of them,
    as split_at states them on one set."""
    lo, hi = head[s - 1], head[s]
    right_mask = m >> lo << lo
    n_set = rs[-1] | m << l
    right_l = right_r | right_mask << l
    if s == k - 2:
        return n_set & right_l == 1 << lo + hi | right_mask << l and right_l.bit_count() <= 3
    c, left_r = head[s + 1], rs[s + 1]
    return (left_r & right_r == 1 << lo + hi | 1 << lo + c | 1 << hi + c
            and n_set.bit_count() >= left_r.bit_count() - 3 + right_l.bit_count())


@pytest.mark.parametrize("k", range(3, 11))
def test_head_bounds_are_at_most_the_oracle_on_every_row_head(k):
    # every theorem 1 head, dense ones included, at every least top l_min
    # and every top l >= l_min in [2k-2, 4k-10], on the oracle's masks:
    # the floor bound is at most |2^A| and equals it once l_min passes
    # every head sum; below s = k-2 the left half's sums lie in the
    # head's, meet the right half's in the three shared sums, and stop
    # below a_{s-1} + l_min, so they meet the right half's with every
    # top l in those three sums; at s = k-2 each top's overlap is the
    # shared sum plus the right half's sums with the top, and
    # |2^right| <= 3; and the split checks settle every head with a
    # split position
    tops = far_tops(k)
    by_s = {"none": 0, "s = k-2": 0, "s < k-2": 0}
    for head in row_heads(k):
        m, rs = oracle_masks(head)
        reach = naive_restricted(head)
        n = {l: len(naive_restricted(head + (l,))) for l in tops}
        s = find_admissible_split(NormalizedSet(head + (2 * k - 2,)))
        if s is not None:
            right = head[s - 1:]
            right_r = mask_of(naive_restricted(right))
            two_right = {l: naive_restricted(right + (l,)) for l in tops}
            if s < k - 2:
                lo, hi, c = head[s - 1:s + 2]
                shared = {lo + hi, lo + c, hi + c}
                two_left = naive_restricted(head[:s + 2])
                assert two_left <= reach
                assert two_left & naive_restricted(right) == shared
        by_s["none" if s is None else "s = k-2" if s == k - 2 else "s < k-2"] += 1
        for l_min in tops:
            floor = _head_floor(rs[-1], m, l_min)
            assert all(floor <= n[l] for l in tops if l >= l_min)
            if l_min > max(reach):
                assert floor == n[l_min]
            if s is None:
                continue
            assert _split_settled(k, head, m, rs, s, right_r, l_min)
            if s < k - 2:
                assert max(two_left) < lo + l_min
            for l in tops:
                if l < l_min:
                    continue
                if s < k - 2:
                    assert two_left & two_right[l] == shared
                else:
                    shared = {head[-2] + head[-1], head[-2] + l, head[-1] + l}
                    assert naive_restricted(head + (l,)) & two_right[l] == shared
                    assert len(two_right[l]) <= 3
    assert sum(by_s.values()) == len(row_heads(k))
    if k == 10:
        assert by_s == {"none": 1430, "s = k-2": 1716, "s < k-2": 3289}


# single-bit faults of the masks a split check reads, k <= 8, every head
# with a split position: rs[-1], rs[s+1], right_r, head_mask
FAULTED = ("r_head", "left_r", "right_r", "head_mask")


def split_faults(k, head, s):
    """Every (head_mask, rs, right_r) with one bit below 4k of one mask
    flipped, the oracle's masks otherwise."""
    m, rs = oracle_masks(head)
    right_r = mask_of(naive_restricted(head[s - 1:]))
    for bit in range(4 * k):
        flip = 1 << bit
        for which in FAULTED:
            if which == "left_r" and s == k - 2:
                continue  # the left half is the whole set: rs[-1]
            fs = list(rs)
            if which == "r_head":
                fs[-1] ^= flip
            elif which == "left_r":
                fs[s + 1] ^= flip
            yield (m ^ flip if which == "head_mask" else m, fs,
                   right_r ^ flip if which == "right_r" else right_r)


@pytest.mark.parametrize("k", range(4, 9))
def test_split_bounds_settle_a_faulted_head_only_when_every_top_passes(k):
    # the bounds are facts about masks: on any masks, a head they settle
    # passes the per-top split check at every top >= l_min, with the
    # right half read from the head mask, and the floor bound is at most
    # the restricted size the masks give
    settled = unsettled = 0
    for head in row_heads(k):
        s = find_admissible_split(NormalizedSet(head + (2 * k - 2,)))
        if s is None:
            continue
        for m, rs, right_r in split_faults(k, head, s):
            # the least top: 2k-2 to 2k, varying with the fault
            l_min = 2 * k - 2 + (m ^ right_r) % 3
            tops = range(l_min, 4 * k - 5)
            floor = _head_floor(rs[-1], m, l_min)
            assert all(floor <= (rs[-1] | m << l).bit_count() for l in tops)
            if _split_settled(k, head, m, rs, s, right_r, l_min):
                settled += 1
                assert all(split_passes(k, head, m, rs, s, right_r, l) for l in tops)
            else:
                unsettled += 1
    assert settled and unsettled


@pytest.mark.parametrize("k", range(3, 9))
def test_rows_past_every_head_sum_match_plain_enumeration(k):
    # at cap 4k-10 the top tops pass every sum of the head, where the
    # floor bound is exact
    tops = tuple(far_tops(k))
    assert (_run_task((_low_second_row, LOW_SECOND, k, tops, 10**9))
            == [low_second_reference(k, l, 10**9) for l in tops])
    assert (_run_task((_structure_row, DENSE, k, tops, 10**9))
            == [structure_reference(k, l, 10**9) for l in tops])


@pytest.mark.parametrize("kind", ["tight", "below"])
@pytest.mark.parametrize("k", range(5, 10))
def test_a_faulted_head_mask_reaches_the_per_top_loop(k, kind, monkeypatch):
    # the row walk's floor step decides from _head_floor of a head's masks
    # whether the head reaches the per-top loop, the one path that records
    # a set below or on the floor.  _head_floor is faulted to settle (a
    # floor over 3k-7) the first head that holds a set of the kind, and to
    # send to the loop (a floor of 0) the first head it settled that holds
    # none: the row must differ from plain enumeration on exactly the
    # settled head's sets.  No theorem 1 or dense set lies below the floor,
    # so the walk runs on the cell of top 2k-2 with no gcd, which holds
    # sets below it (the progressions of difference 2); at its one top a
    # cell is a row.  The theorem 1 row, whose check sees every head, is
    # faulted on a head with a tight set
    bound = 3 * k - 7
    l = 2 * k - 2
    holds = (lambda n: n == bound) if kind == "tight" else (lambda n: n < bound)
    streamed = plain_sets(k, l, ("last_ge_2k_minus_2",), 10**9)[1]
    real_floor = verify._head_floor
    faults, asked = {}, []

    def faulted_floor(r, m, l_min):
        asked.append((m, real_floor(r, m, l_min)))
        return faults.get(m, asked[-1][1])

    def walk():
        below, at = _walk_row(k, (l,), ("last_ge_2k_minus_2",))
        return below[l], at[l]

    monkeypatch.setattr(verify, "_head_floor", faulted_floor)
    assert walk() == ([(t, n) for t, n in streamed if n < bound],
                      [t for t, n in streamed if n == bound])
    settled = [m for m, f in asked if m.bit_count() == k - 1 and f > bound]
    hidden = next(t[:-1] for t, n in streamed if holds(n))
    faults = {mask_of(hidden): bound + 1, settled[0]: 0}
    asked.clear()
    kept = [(t, n) for t, n in streamed if t[:-1] != hidden]
    assert walk() == ([(t, n) for t, n in kept if n < bound], [t for t, n in kept if n == bound])
    assert {mask_of(hidden), settled[0]} <= {m for m, _f in asked}
    assert any(holds(n) for t, n in streamed if t[:-1] == hidden)
    if kind == "tight":
        tops = tuple(range(2 * k - 2, 2 * k + 7))
        want = [low_second_reference(k, u, 10**9) for u in tops]
        hidden = next(t[:-1] for cell in want for t in cell["at"])
        faults = {mask_of(hidden): bound + 1}
        got = _run_task((_low_second_row, LOW_SECOND, k, tops, 10**9))
        assert got != want
        for cell in want:
            cell["at"] = [t for t in cell["at"] if t[:-1] != hidden]
        assert got == want


@pytest.mark.parametrize("k, low_second, dense", [(9, 66, 19), (10, 138, 51)])
def test_per_top_loops_run_only_on_heads_the_bounds_leave(k, low_second, dense, monkeypatch):
    # pinned head counts at the default tops: a bound that stops settling
    # heads it settled shows here.  The row walk's floor step loops the
    # tops of a head only when _head_floor of the walk's masks is at most
    # 3k-7, as the oracle's masks give it: 66 theorem 1 heads at k = 9,
    # 7 of them with a tight set, and 138 at k = 10, 10 with one.  The
    # split bounds settle every head with a split position, so no set
    # goes to split_at
    tops = tuple(range(2 * k - 2, 2 * k + 7))
    floors = []
    real_floor = verify._head_floor
    monkeypatch.setattr(verify, "_head_floor",
                        lambda *a: floors.append((a[1], real_floor(*a))) or floors[-1][1])
    settled = []
    real_settled = verify._split_settled
    monkeypatch.setattr(verify, "_split_settled",
                        lambda *a: settled.append(real_settled(*a)) or settled[-1])
    rows = _low_second_row(k, tops, tops, LOW_SECOND)
    looped = [elements_of(m) for m, f in floors if f <= 3 * k - 7]
    assert len(looped) == low_second
    assert all(real_floor(mask_of(naive_restricted(h)), mask_of(h), tops[0]) <= 3 * k - 7
               for h in looped)
    assert len({t[:-1] for row in rows for t in row["at"]}) == {9: 7, 10: 10}[k]
    assert len(settled) == rows[0]["splits"] and all(settled)
    floors.clear()
    _structure_row(k, tops, tops, DENSE)
    assert sum(f <= 3 * k - 7 for _m, f in floors) == dense


@pytest.mark.parametrize("k", range(3, 10))
def test_row_cut_holds_on_every_prefix_of_a_dense_set(k):
    # the theorem 2 row cuts a head prefix a_0..a_p once _head_floor of
    # its masks at the least top, plus the k-2-p head elements still to
    # come, passes the floor: that sum must be at most |2^A| for every
    # dense set with a top in [2k-2, 2k+6], on every prefix of its head
    heads = [t[:-1] for t in enumerate_tuples(EnumerationQuery.exact(k, 2 * k - 2, DENSE))]
    for head in heads:
        floors = [_head_floor(mask_of(naive_restricted(head[:p + 1])), mask_of(head[:p + 1]),
                              2 * k - 2) + (k - 2 - p) for p in range(k - 1)]
        for l in range(2 * k - 2, 2 * k + 7):
            assert len(naive_restricted(head + (l,))) >= max(floors)


@pytest.mark.parametrize("k, handed, dense_floors", [(9, 118, 301), (10, 196, 682)])
def test_only_the_theorem_2_row_cuts_head_prefixes(k, handed, dense_floors, monkeypatch):
    # pinned at the default tops: with no check the walk cuts head prefixes
    # by the floor bound, so the theorem 2 row asks _head_floor about
    # prefixes as well as heads, and its floor step sees 118 of the 429
    # dense heads at k = 9.  The structure and theorem 1 rows pass a
    # check: they see every head and ask _head_floor once per head, never
    # per prefix
    tops = tuple(range(2 * k - 2, 2 * k + 7))
    calls = []
    real_floor = verify._head_floor
    monkeypatch.setattr(verify, "_head_floor", lambda *a: calls.append(a) or real_floor(*a))
    _dense_row(k, tops, tops, DENSE)
    assert len(calls) == dense_floors
    cut = [elements_of(mask) for _r, mask, _l_min in calls if mask.bit_count() == k - 1]
    whole = []
    _walk_row(k, tops, DENSE, lambda head, *_: whole.append(head))
    assert len(cut) == handed and set(cut) < set(whole)
    n_heads = {}
    for row_fn, constraints in [(_structure_row, DENSE), (_low_second_row, LOW_SECOND)]:
        calls.clear()
        row_fn(k, tops, tops, constraints)
        n_heads[row_fn] = len(calls)
    assert n_heads == {_structure_row: len(whole), _low_second_row: len(row_heads(k))}


@pytest.mark.parametrize("head", [(0, 1, 2, 3, 8, 9), (0, 1, 2, 6, 7, 8)],
                         ids=["s = k-2", "s < k-2"])
def test_a_split_head_the_bounds_leave_goes_to_split_at(head, monkeypatch):
    # _split_settled faulted to leave one head with a split position: each
    # of its sets goes to split_at, which passes it, and the row raises
    # naming the set, as the row and split_at then disagree
    k, tops = len(head) + 1, (12, 13)
    s = find_admissible_split(NormalizedSet(head + tops[:1]))
    real = verify._split_settled
    monkeypatch.setattr(verify, "_split_settled",
                        lambda k_, head_, *a: head_ != head and real(k_, head_, *a))
    with pytest.raises(AssertionError, match=f"{lit(head + tops[:1])} at s={s}, which split_at"):
        _low_second_row(k, tops, tops, LOW_SECOND)


def is_dense(t):
    """Whether a_i < 2i for every interior position i."""
    return all(t[i] < 2 * i for i in range(1, len(t) - 1))


@pytest.mark.parametrize("k, tight", [(3, 0), (4, 0), (5, 3), (6, 6), (7, 9), (8, 9), (9, 8),
                                      (10, 10)])
def test_halved_gcd_one_cells_filtered_to_theorems_1_and_2_give_their_rows(k, tight):
    # a second walker checks the first: the gcd-1 floor cells, walked in
    # half with their findings' mirrors, hold every theorem 1 and
    # theorem 2 set.  Kept to a_{k-2} < 2k-4 their tight sets are theorem
    # 1's, top by top, and none is below the floor; kept to a_i < 2i
    # their findings are the dense row's
    tops = tuple(range(2 * k - 2, 2 * k + 7))
    cells = [_floor_cells(k, (l,), (l,), ("gcd_one",))[0] for l in tops]
    low = [[t for t in cell["at"] if t[-2] < 2 * k - 4] for cell in cells]
    assert [t for cell in cells for t, _n in cell["below"] if t[-2] < 2 * k - 4] == []
    rows = _low_second_row(k, tops, tops, LOW_SECOND)
    assert low == [row["at"] for row in rows]
    extremal = verify.verify_low_second_max(k, k).counts["extremal"]
    assert sum(map(len, low)) == extremal == tight
    assert [{"bound": cell["bound"],
             "below": [(t, n) for t, n in cell["below"] if is_dense(t)],
             "at": [t for t in cell["at"] if is_dense(t)]} for cell in cells] == (
        _dense_row(k, tops, tops, DENSE))
