"""The floor cells' pruning walker against plain enumeration.

Every cell dict of the conjecture, dense-prefix and classification
drivers, and every classify_extremal result, must equal what a plain
``enumerate_tuples`` loop with the naive restricted-sumset oracle
gives: node and set counts, findings in stream order, and, under a
budget, the node at which the budget runs out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_lab.bounds import freiman_lev_bound
from sumset_lab.core import NormalizedSet
from sumset_lab.families import dense_extremal_shape
from sumset_lab.verify import (
    BudgetExceeded,
    EnumerationQuery,
    classify_extremal,
    enumerate_tuples,
    _classification_cell,
    _conjecture_cell,
    _dense_prefix_cell,
)

from helpers import naive_restricted

DENSE = ("gcd_one", "growth_a_i_lt_2i", "last_ge_2k_minus_2")
# small budgets cut cells mid-walk; the large one lets every cell finish
budgets = st.one_of(st.integers(min_value=1, max_value=4000), st.just(10**9))


def lit(tup) -> str:
    return "{" + ",".join(str(v) for v in tup) + "}"


def plain_walk(k, l, constraints, budget, bound):
    """(nodes, sets, truncated, [(tup, n) with n <= bound]) by plain
    enumeration, in stream order."""
    query = EnumerationQuery.exact(k, l, constraints, budget=budget)
    counter = [0]
    sets = 0
    low = []
    truncated = False
    try:
        for tup in enumerate_tuples(query, counter=counter):
            sets += 1
            n = len(naive_restricted(tup))
            if n <= bound:
                low.append((tup, n))
    except BudgetExceeded:
        truncated = True
    return counter[0], sets, truncated, low


@st.composite
def conjecture_cells(draw):
    k = draw(st.integers(min_value=3, max_value=7))
    return k, draw(st.integers(min_value=k - 1, max_value=2 * k + 2)), draw(budgets)


@st.composite
def dense_cells(draw):
    k = draw(st.integers(min_value=3, max_value=9))
    return k, draw(st.integers(min_value=2 * k - 2, max_value=2 * k + 6)), draw(budgets)


@given(conjecture_cells())
@settings(max_examples=80, deadline=None)
def test_conjecture_cell_matches_plain_enumeration(cell):
    k, l, budget = cell
    bound = freiman_lev_bound(k, l)
    nodes, sets, truncated, low = plain_walk(k, l, ("gcd_one",), budget, bound)
    assert _conjecture_cell(cell) == {
        "k": k,
        "l": l,
        "bound": bound,
        "nodes": nodes,
        "sets": sets,
        "tight": sum(1 for _t, n in low if n == bound),
        "bad": [(lit(t), n) for t, n in low if n < bound],
        "truncated": truncated,
    }


@given(dense_cells())
@settings(max_examples=80, deadline=None)
def test_dense_prefix_cell_matches_plain_enumeration(cell):
    k, l, budget = cell
    bound = 3 * k - 7
    nodes, sets, truncated, low = plain_walk(k, l, DENSE, budget, bound)
    equality = [t for t, n in low if n == bound]
    assert _dense_prefix_cell(cell) == {
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


@given(st.integers(min_value=4, max_value=9), budgets)
@settings(max_examples=60, deadline=None)
def test_classification_cell_matches_plain_enumeration(k, budget):
    bound = 3 * k - 7
    nodes, sets, truncated, low = plain_walk(k, 2 * k - 3, ("gcd_one",), budget, bound)
    assert _classification_cell((k, budget)) == {
        "k": k,
        "nodes": nodes,
        "sets": sets,
        "extremal": [lit(t) for t, n in low if n == bound],
        "bad": [f"{lit(t)}: restricted size {n} < {bound}" for t, n in low if n < bound],
        "truncated": truncated,
    }


@st.composite
def classify_args(draw):
    k = draw(st.integers(min_value=4, max_value=7))
    return k, draw(st.integers(min_value=k - 1, max_value=2 * k + 2)), draw(budgets)


@given(classify_args())
@settings(max_examples=60, deadline=None)
def test_classify_extremal_matches_plain_enumeration(args):
    k, l, budget = args
    bound = 3 * k - 7
    nodes, _sets, truncated, low = plain_walk(k, l, ("gcd_one",), budget, bound)
    try:
        got = [s.elements for s in classify_extremal(k, l, budget=budget)]
    except BudgetExceeded as exc:
        assert truncated and exc.nodes == nodes
    else:
        assert not truncated
        assert got == [t for t, n in low if n == bound]
