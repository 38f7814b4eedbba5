"""The planner against a memoized walk and against closed forms.

``verify._plan`` counts a cell's nodes and gcd-1 sets without walking
it: increasing chains under the caps, and Möbius inversion over the
divisors of the top.  It must equal the memo over (position, previous
value, gcd) in ``tests/helpers.py`` on every combination of the named
constraints, cells whose top range is empty included, and the closed
forms written out below.  Its chain counts, binomials where the caps
rise by at most one per position, must equal the running sums on
random caps.  The task runner plans a task's cells with one
memo of chain counts, and must give each cell the counts that planning
it alone gives.
"""

import random
from itertools import accumulate, combinations
from math import comb

import pytest

from sumset_lab import verify
from sumset_lab.verify import (
    KNOWN_CONSTRAINTS,
    EnumerationQuery,
    _DENSE,
    _LOW_SECOND,
    _caps,
    _detached_top_rows,
    _plan,
    _run_task,
)

from helpers import memo_plan

CONSTRAINT_SETS = [c for r in range(len(KNOWN_CONSTRAINTS) + 1)
                   for c in combinations(KNOWN_CONSTRAINTS, r)]


def mobius(n: int) -> int:
    """mu(n) by trial division."""
    sign = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
    return sign


@pytest.mark.parametrize("constraints", CONSTRAINT_SETS, ids="+".join)
def test_plan_equals_the_memo_on_every_cell(constraints):
    leafless = 0
    for k in range(2, 13):
        for l in range(k - 1, 2 * k + 9):
            query = EnumerationQuery.exact(k, l, constraints)
            caps = _caps(query)
            got = _plan(query)
            assert got == memo_plan(l, caps, "gcd_one" in constraints), (k, l)
            if caps[0] > caps[1]:
                leafless += 1
                assert got[1] == 0
    # last_ge_2k_minus_2 rules out the tops below 2k-2, last_eq_2k_minus_3
    # every top but 2k-3: their cells count prefix nodes and no set
    rule_out = {"last_ge_2k_minus_2", "last_eq_2k_minus_3"} & set(constraints)
    assert bool(leafless) == bool(rule_out)


@pytest.mark.parametrize("k", range(3, 17))
def test_gcd_one_cells_match_their_closed_forms(k):
    # the span cap at position p of a prefix of length p is l-k+1+p, and
    # a chain whose values are multiples of d is one of l/d - 1 values
    for l in range(k - 1, max(2 * k + 9, 4 * k + 1)):
        nodes = sum(comb(l - k + 1 + p, p) for p in range(1, k - 1)) + comb(l - 1, k - 2)
        sets = sum(mobius(d) * comb(l // d - 1, k - 2) for d in range(1, l + 1) if l % d == 0)
        assert _plan(EnumerationQuery.exact(k, l, ("gcd_one",))) == (nodes, sets), l


def running_sum_chains(his):
    """The chains under the caps by running sums alone: the row of
    chain counts by end value, for each position, from the row before."""
    row, counts = [1], [1]
    for cap in his[1:]:
        below = list(accumulate(row))
        row = [0, *below[:cap]] + [below[-1]] * (cap - len(below))
        counts.append(sum(row))
    return counts


def test_chains_binomials_equal_the_running_sums_on_random_caps():
    # _chains counts by binomials where the caps his[1:] rise by at most
    # one per position, and by running sums otherwise; both must give
    # the running sums' counts, and on short caps the brute count
    rng = random.Random(35)
    seen = set()
    for _ in range(4000):
        steps = rng.choice([(0, 1), (-1, 0, 1), (-2, 1), (1, 2), (0, 2)])
        his = [rng.randint(-3, 3), rng.randint(0, 4)]
        for _ in range(rng.randint(0, 9)):
            his.append(max(0, his[-1] + rng.choice(steps)))
        got = verify._chains(his)
        assert got == running_sum_chains(his), his
        if len(his) <= 7:
            brute = [sum(all(a <= h for a, h in zip(chain, his[1:]))
                         for chain in combinations(range(1, max(his[1:p + 1]) + 1), p))
                     if p else 1 for p in range(len(his))]
            assert got == brute, his
        rises = [b - a for a, b in zip(his[1:], his[2:])]
        seen.add("steps <= 1" if max(rises, default=0) <= 1 else "a step of 2")
        seen |= {"a cap below p" for p, h in enumerate(his) if 0 < p and h < p}
        seen |= {"a negative position-0 cap"} if his[0] < 0 else set()
    assert seen == {"steps <= 1", "a step of 2", "a cap below p", "a negative position-0 cap"}


@pytest.mark.parametrize("k", range(3, 14))
def test_theorem1_cells_have_a_binomial_of_sets_at_every_top(k):
    # every head is k-2 values in [1, 2k-5] and has gcd 1 (_walk_row's
    # docstring), so each top l >= 2k-2 streams the same C(2k-5, k-2) sets
    for l in range(2 * k - 2, 4 * k):
        assert _plan(EnumerationQuery.exact(k, l, _LOW_SECOND))[1] == comb(2 * k - 5, k - 2), l


def test_open_region_count_at_k12_is_the_floor_cells_minus_theorem_1():
    tops = range(22, 29)
    floor = sum(_plan(EnumerationQuery.exact(12, l, ("gcd_one",)))[1] for l in tops)
    low_second = sum(_plan(EnumerationQuery.exact(12, l, _LOW_SECOND))[1] for l in tops)
    assert floor == 21_121_100
    assert low_second == 7 * 92_378 == 7 * comb(19, 10)
    assert floor - low_second == 20_474_454


@pytest.mark.parametrize("cap", [None, 30])
def test_task_plans_equal_lone_cell_plans_on_every_detached_top_box_row(cap, monkeypatch):
    # the theorem 1, theorem 2 and lemmas boxes for k <= 12: every row
    # (the lemmas box's structure rows are theorem 2's) and every witness
    # cell, at a share that walks every cell and at one that skips some.
    # The task's memo of chain counts changes no count, and spares calls
    rows, _top_cap = _detached_top_rows(3, 12, cap)
    tasks = [(constraints, k, tops) for constraints in (_LOW_SECOND, _DENSE)
             for k, tops in rows]
    tasks += [(("gcd_one",), k, (l,)) for k in range(8, 13) for l in range(k - 1, 2 * k - 2)]
    calls = [0]
    real = verify._chains

    def counted(his):
        calls[0] += 1
        return real(his)

    monkeypatch.setattr(verify, "_chains", counted)
    skipped = 0
    for per in (10**12, 10**5):
        for constraints, k, tops in tasks:
            got = _run_task((lambda k_, tops_, walked, c: [{} for _l in tops_],
                             constraints, k, tops, per))
            task_calls, calls[0] = calls[0], 0
            want = []
            for l in tops:
                planned, sets = _plan(EnumerationQuery.exact(k, l, constraints))
                fits = planned <= per
                want.append({"k": k, "l": l, "planned": planned, "nodes": planned if fits else 0,
                             "sets": sets if fits else 0, "truncated": not fits})
                skipped += not fits
            assert got == want, (constraints, k)
            assert task_calls <= calls[0]
            if len(tops) > 1:
                assert task_calls < calls[0]
            calls[0] = 0
    assert skipped > 0
