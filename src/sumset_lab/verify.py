"""Exhaustive desk-scale verification with machine-readable certificates.

:func:`enumerate_tuples` is the public streaming API: it yields every
normalized set matching a query (span range, named constraints, an
optional membership mask) in lexicographic order of element lists,
skipping only values that no matching set can hold.  Budget accounting
counts every candidate value placement; exceeding the budget raises
:class:`BudgetExceeded`, never a silent partial result.

Every certificate driver splits its box into exact-span cells (k, l)
and walks each cell with one private walker that counts the same nodes
in the same order as the enumerator.  It places the top first and
carries the restricted sumset of the prefix down the search, so placing
a value costs one shift-or and a set's restricted size is one popcount.
A leaf gets its element tuple, mask and restricted mask from the walk,
so no cell unpacks or re-validates a set the walk has already built.
Each cell passes the largest restricted size it reports, and may pass a
prune predicate on a prefix's masks that holds only when no set below
the prefix can give a finding.  Each element still to be placed adds a
sum with the top above every sum already present, so once a prefix's
restricted size plus the number of elements still to come exceeds that
bound, or the predicate holds, no set below the prefix is a finding.
The floor checks prune on the bound; the witness cells prune once a
prefix has fewer than two candidate witnesses left; the other cells
that check every set pass 2l, which no restricted sumset inside [0, l]
reaches.

The walker plans a cell before walking it: a memo keyed by (position,
previous value, gcd) gives the cell's node and gcd-1 set counts.  When
they fit the cell's budget, the walk takes its counts from the plan and
only looks for findings, skipping pruned subtrees outright; a cell with
no constraint but ``gcd_one`` and no prune predicate walks only the sets
with a_1 + a_{k-2} <= l and adds the mirror l - A of each finding, then
hands the findings to the cell sorted into stream order.  When the
counts do not fit, the walk goes node for node in stream order, adds a
pruned subtree's counts from the memo, and descends a subtree whose
nodes would pass the budget, so a truncated walk stops at the same node
as the enumerator, with the same partial counts and findings.  Either
way the counts are exact, so certificates match plain enumeration byte
for byte.

One driver path splits a sweep's budget evenly among its cells, walks
them in task order (in a process pool when ``jobs > 1``) and sums their
node, set and truncation counts.  A task is one cell, or a row: all the
detached-top cells of one k, walked in one call by a row walker.  Every
cell of a row streams the same heads (the set minus its top), so the
row walker plans each cell, and the cells whose counts fit their budget
share one walk over the heads: at each head's leaf the per-head work
runs once, and each top costs a gcd, one shift-or and one popcount.  A
cell whose plan does not fit walks alone in stream order, as above.
Theorem 1 and the structure sweep run their cells as rows: the split
position and the halves of the split, and every structural check,
depend only on k and the head.  On top of the driver path sit five
certificate drivers, each adding only its own merge:

* :func:`verify_conjecture` — the conjectured restricted-sumset floor,
  swept over all small sets; sub-threshold cardinalities (k <= 7) are
  outside the conjecture's hypothesis and reported as observations.
* :func:`verify_low_second_max` — the 3k-7 floor when the
  second-largest element stays below 2k-4 and the top is detached,
  including the overlap identities of the split argument.
* :func:`verify_dense_prefix` — the 3k-7 floor under slow interior
  growth, with the exact equality classification and its rigid
  restricted-sumset shape.
* :func:`verify_span_classification` — completeness of the extremal
  catalog at span 2k-3.
* :func:`sweep_structure` — every structural checker (exceptional-set
  pointwise structure, growth, gap patterns, offset density, top-gap
  characterization, witness bound, two-witness reconstruction) over the
  qualifying search spaces.

Certificates serialize to canonical JSON: sorted keys, two-space
indent, sorted string lists, a single trailing newline.  Reruns are
byte-identical except for ``wall_time_ms``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import __version__ as TOOL_VERSION
from .core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    double_mask,
    mask_of,
    restricted_mask,
)
from .bounds import freiman_lev_bound
from .structure import (
    check_exceptional_points,
    decompose,
    diff3_exception_case,
    exceptional_growth_ok,
    exceptional_profile,
    find_admissible_split,
    gap_patterns,
    matches_consecutive_exception,
    offset_count_bound,
    tail_pair_counts_ok,
    top_gap_candidates,
    top_gap_structure,
    witness_profile,
    _split_head,
    _split_top,
)
from .families import (
    dense_extremal_shape,
    extremal_catalog,
    flagged_sporadics,
    gen_mod3_wide,
)

__all__ = [
    "TOOL_VERSION",
    "SCHEMA_VERSION",
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "EnumerationQuery",
    "Certificate",
    "enumerate_tuples",
    "enumerate_sets",
    "classify_extremal",
    "verify_conjecture",
    "verify_low_second_max",
    "verify_dense_prefix",
    "verify_span_classification",
    "sweep_structure",
]

SCHEMA_VERSION = 1
DEFAULT_BUDGET = 10**9

KNOWN_CONSTRAINTS = (
    "gcd_one",
    "growth_a_i_lt_2i",
    "last_ge_2k_minus_2",
    "last_eq_2k_minus_3",
    "interior_lt_2k_minus_4",
)

_LOW_SECOND = ("gcd_one", "interior_lt_2k_minus_4", "last_ge_2k_minus_2")
_DENSE = ("gcd_one", "growth_a_i_lt_2i", "last_ge_2k_minus_2")


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration visits more nodes than its budget."""

    def __init__(self, nodes: int):
        super().__init__(f"enumeration budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class EnumerationQuery:
    """One enumeration task: cardinality, span range, named constraints.

    Sets are streamed with minimum 0 and maximum in [l_min, l_max].
    ``mask`` restricts every element to the mask's bits.  ``budget``
    caps the number of candidate value placements visited.
    """

    k: int
    l_min: int
    l_max: int
    constraints: tuple[str, ...] = ()
    mask: Optional[int] = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.k < 2:
            raise SetDomainError(f"enumeration needs k >= 2, got k={self.k}")
        if self.l_min < self.k - 1:
            raise SetDomainError(
                f"a {self.k}-set spans at least [0, {self.k - 1}], got l_min={self.l_min}"
            )
        if self.l_max < self.l_min:
            raise SetDomainError(f"empty span range [{self.l_min}, {self.l_max}]")
        if self.budget < 1:
            raise SetDomainError("budget must be positive")
        if self.mask is not None and self.mask < 0:
            raise SetDomainError("mask must be nonnegative")
        normalized = tuple(sorted(set(self.constraints)))
        for name in normalized:
            if name not in KNOWN_CONSTRAINTS:
                raise SetDomainError(f"unknown constraint {name!r}")
        object.__setattr__(self, "constraints", normalized)

    @classmethod
    def exact(cls, k: int, l: int, constraints: Sequence[str] = (), **kw) -> "EnumerationQuery":
        return cls(k, l, l, tuple(constraints), **kw)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l_min": self.l_min,
            "l_max": self.l_max,
            "constraints": list(self.constraints),
            "mask": self.mask,
            "budget": self.budget,
        }


def _effective_bounds(query: EnumerationQuery) -> tuple[int, int, Optional[int]]:
    """(last_lo, last_hi, interior_cap) after folding named constraints."""
    k = query.k
    lo, hi = query.l_min, query.l_max
    if "last_ge_2k_minus_2" in query.constraints:
        lo = max(lo, 2 * k - 2)
    if "last_eq_2k_minus_3" in query.constraints:
        lo = max(lo, 2 * k - 3)
        hi = min(hi, 2 * k - 3)
    cap = 2 * k - 5 if "interior_lt_2k_minus_4" in query.constraints else None
    return lo, hi, cap


def _interior_hi(query: EnumerationQuery, pos: int, l_hi: int, cap: Optional[int]) -> int:
    hi = l_hi - (query.k - 1 - pos)
    if "growth_a_i_lt_2i" in query.constraints:
        hi = min(hi, 2 * pos - 1)
    if cap is not None:
        hi = min(hi, cap)
    return hi


def enumerate_tuples(
    query: EnumerationQuery, counter: Optional[list[int]] = None
) -> Iterator[tuple[int, ...]]:
    """Yield ascending element tuples matching the query, in lexicographic
    order of element lists, starting at 0.

    ``counter`` is a shared one-cell node count, so several enumerations
    can draw from one budget, and a caller can read how many nodes a
    stream visited (the benchmark's enumerator probe does).  Raises
    :class:`BudgetExceeded` mid-stream when the budget runs out;
    everything yielded before that is valid.
    """
    k = query.k
    l_lo, l_hi, cap = _effective_bounds(query)
    if counter is None:
        counter = [0]
    mask = query.mask
    budget = query.budget
    need_gcd = "gcd_one" in query.constraints

    def rec(pos: int, prev: int, g: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if pos == k - 1:
            for last in range(max(l_lo, prev + 1), l_hi + 1):
                if mask is not None and not mask >> last & 1:
                    continue
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceeded(counter[0])
                if need_gcd and gcd(g, last) != 1:
                    continue
                yield chosen + (last,)
            return
        hi = _interior_hi(query, pos, l_hi, cap)
        for v in range(prev + 1, hi + 1):
            if mask is not None and not mask >> v & 1:
                continue
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceeded(counter[0])
            yield from rec(pos + 1, v, gcd(g, v), chosen + (v,))

    yield from rec(1, 0, 0, (0,))


def enumerate_sets(
    query: EnumerationQuery, counter: Optional[list[int]] = None
) -> Iterator[IntegerSet]:
    """Like :func:`enumerate_tuples`, wrapped as IntegerSets."""
    for tup in enumerate_tuples(query, counter):
        yield IntegerSet._from_trusted(tup, mask_of(tup))


class _Plan(NamedTuple):
    """A cell's node and gcd-1 set totals, its interior caps, and the
    memo that counts any subtree: ``subtree(pos, prev, g)`` is the
    (nodes, sets) strictly below the node that placed prev at pos - 1,
    g being the gcd of that prefix and the top."""

    nodes: int
    sets: int
    his: list[int]
    subtree: Callable[[int, int, int], tuple[int, int]]


def _plan(query: EnumerationQuery) -> _Plan:
    """Plan an exact-span, mask-free query: its totals come from a memo
    keyed by (position, previous value, gcd), with the top placed first."""
    k, l = query.k, query.l_max
    l_lo, l_hi, cap = _effective_bounds(query)
    has_leaf = l_lo <= l_hi
    need_gcd = "gcd_one" in query.constraints
    last = k - 1
    his = [_interior_hi(query, pos, l_hi, cap) for pos in range(last)]
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def subtree(pos: int, prev: int, g: int) -> tuple[int, int]:
        key = (pos, prev, g)
        got = memo.get(key)
        if got is None:
            if pos == last:
                got = (1, int(not need_gcd or g == 1)) if has_leaf else (0, 0)
            else:
                nodes = sets = 0
                for v in range(prev + 1, his[pos] + 1):
                    n, s = subtree(pos + 1, v, gcd(g, v))
                    nodes += 1 + n
                    sets += s
                got = (nodes, sets)
            memo[key] = got
        return got

    return _Plan(*subtree(1, 0, l), his, subtree)


def _walk_span(
    query: EnumerationQuery,
    bound: int,
    on_leaf: Callable[[tuple[int, ...], int, int, int], None],
    prune: Optional[Callable[[int, int], bool]] = None,
    plan: Optional[_Plan] = None,
) -> dict:
    """Walk an exact-span, mask-free query with the counts of
    :func:`enumerate_tuples`, calling ``on_leaf(tup, mask, r, n)`` in
    stream order for each streamed set whose restricted sumset has
    n <= bound members: ``tup`` is the set's ascending element tuple,
    ``mask`` its bit mask and ``r`` the mask of its restricted sumset.
    Every restricted sum lies in [1, 2l-1], so a bound of 2l calls
    ``on_leaf`` on every streamed set.  With ``gcd_one`` in the query,
    ``on_leaf`` only sees sets of gcd 1.

    ``prune(mask, r)``, if given, is asked about each prefix (its
    elements with the top, and their restricted mask) that the bound
    does not prune.  When it returns true, the leaves below the prefix
    are not visited: the caller promises that ``on_leaf`` would do
    nothing on any of them.  Pruned subtrees are counted like those the
    bound prunes, so the counts and the truncation node do not change.

    Returns the cell dict skeleton: k, l, nodes, sets, truncated; on
    truncation the counts are those of the enumerator when it raises
    :class:`BudgetExceeded`.

    The walk is planned first (:func:`_plan`; a row walker that has
    already planned the cell passes its ``plan``): the memo gives the
    cell's node and set totals.  If the nodes fit the budget, the cell
    cannot truncate, so the totals are returned as they are and the walk
    only looks for leaves: it counts no node and skips pruned subtrees
    outright.  Otherwise the walk goes node for node in stream order, so
    that it stops where the enumerator does.

    Both walks prune on a lookahead bound.  The top is placed first, so
    each element still to be placed adds a sum with the top that is
    larger than every sum already present: a set's restricted size is at
    least the prefix's plus the number of elements still to come.

    A planned walk whose query has no constraint but ``gcd_one`` and no
    ``prune`` walks only half the cell.  The mirror A -> l - A keeps gcd
    1, the span and the restricted size, so only the sets with
    a_1 + a_{k-2} <= l are walked, and each leaf found brings its mirror
    too, unless a_1 + a_{k-2} = l, when the mirror is walked as well.
    The leaves are held, sorted and then handed to ``on_leaf``, so it
    still sees them in stream order; only leaves with n <= bound are
    held, which in the cells that halve are the few findings.
    """
    k, l = query.k, query.l_max
    l_lo, l_hi, _cap = _effective_bounds(query)
    has_leaf = l_lo <= l_hi
    need_gcd = "gcd_one" in query.constraints
    budget = query.budget
    last = k - 1
    if plan is None:
        plan = _plan(query)
    his, subtree = plan.his, plan.subtree
    # a prefix ending at pos is pruned once its restricted size passes
    # lims[pos]: each of the last - 1 - pos elements still to come adds one
    lims = [bound - (last - 1 - pos) for pos in range(last)]
    # the elements on the current root-to-node path; the leaf's tuple
    path = [0] * k
    path[last] = l

    if plan.nodes <= budget:
        halve = set(query.constraints) <= {"gcd_one"} and prune is None
        held: list[tuple[tuple[int, ...], int, int, int]] = []

        def find(pos: int, prev: int, g: int, mask: int, r: int) -> None:
            if pos == last:
                n = r.bit_count()
                if has_leaf and (not need_gcd or g == 1) and n <= bound:
                    tup = tuple(path)
                    if not halve:
                        on_leaf(tup, mask, r, n)
                        return
                    held.append((tup, mask, r, n))
                    if tup[1] + tup[-2] != l:
                        mirror = tuple(l - v for v in reversed(tup))
                        m = mask_of(mirror)
                        held.append((mirror, m, restricted_mask(m, mirror), n))
                return
            hi = his[pos]
            if halve and pos == last - 1:
                # a_{k-2} <= l - a_1; for k = 3, a_{k-2} is a_1 itself
                hi = min(hi, l - path[1] if pos > 1 else l // 2)
            lim = lims[pos]
            for v in range(prev + 1, hi + 1):
                rv = r | mask << v
                if rv.bit_count() > lim or prune is not None and prune(mask | 1 << v, rv):
                    continue
                path[pos] = v
                find(pos + 1, v, gcd(g, v), mask | 1 << v, rv)

        find(1, 0, l, 1 | 1 << l, 1 << l)
        # tuples are distinct, so this is the stream order
        held.sort()
        for leaf in held:
            on_leaf(*leaf)
        return {"k": k, "l": l, "nodes": plan.nodes, "sets": plan.sets, "truncated": False}

    nodes = sets = 0

    def walk(pos: int, prev: int, g: int, mask: int, r: int) -> None:
        nonlocal nodes, sets
        if pos == last:
            if has_leaf:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(nodes)
                if not need_gcd or g == 1:
                    sets += 1
                    n = r.bit_count()
                    if n <= bound:
                        on_leaf(tuple(path), mask, r, n)
            return
        lim = lims[pos]
        for v in range(prev + 1, his[pos] + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            gv = gcd(g, v)
            rv = r | mask << v
            # with the elements still to come, nothing below can be a finding
            if rv.bit_count() > lim or prune is not None and prune(mask | 1 << v, rv):
                n, s = subtree(pos + 1, v, gv)
                if nodes + n <= budget:
                    nodes += n
                    sets += s
                    continue
            path[pos] = v
            walk(pos + 1, v, gv, mask | 1 << v, rv)

    try:
        walk(1, 0, l, 1 | 1 << l, 1 << l)
        truncated = False
    except BudgetExceeded:
        truncated = True
    return {"k": k, "l": l, "nodes": nodes, "sets": sets, "truncated": truncated}


def _walk_row(
    k: int,
    tops: Sequence[int],
    constraints: tuple[str, ...],
    per_budget: int,
    on_head: Callable[[tuple[int, ...], int], object],
    on_set: Callable[[tuple[int, ...], int, int, int, object], None],
) -> list[dict]:
    """Walk the detached-top cells (k, l), l in ``tops``, each with the
    budget ``per_budget``, and return their cell dicts in order: each is
    the dict :func:`_walk_span` returns for the cell alone with bound 2l.

    Every set a cell streams is handed to ``on_set(head, l, r, n,
    state)``: ``head`` is the set minus its top l, ``r`` the set's
    restricted mask and n its popcount.  ``state`` is what
    ``on_head(tup, mask)`` returned on a set with that head (its element
    tuple and mask), so it may depend on the head only.  Each cell sees
    its sets in stream order.

    Every cell is planned first (:func:`_plan`).  The cells whose planned
    nodes fit the budget take their counts from the plan and share one
    walk over the heads, in lexicographic order.  At each head's leaf
    ``on_head`` runs once, and each top costs a gcd, one shift-or
    (r = r_head | head_mask << l) and one popcount.  A cell whose plan
    does not fit walks alone through :func:`_walk_span` in stream order,
    so it stops at the node where the enumerator does; its sets take the
    state of a head already seen, and ``on_head`` runs on the others.

    Sharing the walk needs every cell to stream the same heads.  The
    head walk cuts each interior cap to one below the next position's
    (the values rise strictly), so it visits only prefixes of complete
    heads.  Under the detached-top constraints the cut caps do not
    depend on the top.  With l >= 2k-2 the span cap l - (k-1-pos) is at
    least k-1+pos: above the growth cap 2pos-1, and above k-3+pos, which
    the cut makes of the cap 2k-5 of ``interior_lt_2k_minus_4``.  Under
    that constraint the uncut caps do differ between tops, at the low
    positions where the span cap is below 2k-5, but only on prefixes
    that no head completes.  A row whose cut caps differ between its
    walked tops is refused.
    """
    need_gcd = "gcd_one" in constraints
    last = k - 1
    cells: list[Optional[dict]] = []
    walked: list[int] = []
    alone: list[tuple[int, int, EnumerationQuery, _Plan]] = []
    caps: Optional[list[int]] = None
    for l in tops:
        query = EnumerationQuery.exact(k, l, constraints, budget=per_budget)
        plan = _plan(query)
        if plan.nodes > per_budget:
            alone.append((len(cells), l, query, plan))
            cells.append(None)
            continue
        cells.append({"k": k, "l": l, "nodes": plan.nodes, "sets": plan.sets,
                      "truncated": False})
        if not plan.sets:
            continue
        # position 0 always holds 0, so its cap is unused
        cut = [0] + plan.his[1:]
        for pos in range(last - 2, 0, -1):
            cut[pos] = min(cut[pos], cut[pos + 1] - 1)
        if caps is None:
            caps = cut
        elif cut != caps:
            raise SetDomainError(f"the cells of row k={k} stream different heads")
        walked.append(l)

    # when some cell walks alone, each head's state is kept by the head's
    # mask, so that the lone cells do not compute it again
    states: dict[int, object] = {}
    if walked:
        path = [0] * last

        def heads(pos: int, prev: int, g: int, mask: int, r: int) -> None:
            if pos == last:
                head = tuple(path)
                first = True
                for l in walked:
                    if need_gcd and gcd(g, l) != 1:
                        continue
                    if first:
                        state = on_head(head + (l,), mask | 1 << l)
                        if alone:
                            states[mask] = state
                        first = False
                    rl = r | mask << l
                    on_set(head, l, rl, rl.bit_count(), state)
                return
            for v in range(prev + 1, caps[pos] + 1):
                path[pos] = v
                heads(pos + 1, v, gcd(g, v), mask | 1 << v, r | mask << v)

        heads(1, 0, 0, 1, 0)

    for i, l, query, plan in alone:
        def leaf(tup: tuple[int, ...], mask: int, r: int, n: int, l: int = l) -> None:
            head_mask = mask ^ 1 << l
            if head_mask not in states:
                states[head_mask] = on_head(tup, mask)
            on_set(tup[:-1], l, r, n, states[head_mask])

        cells[i] = _walk_span(query, 2 * l, leaf, plan=plan)
    return cells


def _literal(tup: Sequence[int]) -> str:
    return "{%s}" % ",".join(str(v) for v in tup)


def _normalized(tup: tuple[int, ...], mask: int) -> NormalizedSet:
    """The NormalizedSet of a leaf, built without re-validation.

    Sound because every cell that calls this walks a query with
    ``gcd_one``, and the walker calls its leaf only on sets of gcd 1;
    each leaf set starts at 0 and has k >= 2 elements.
    """
    return NormalizedSet._from_trusted(tup, mask)


@dataclass
class Certificate:
    """Outcome of one verification run, serializable to canonical JSON.

    ``outcome`` is refuted exactly when ``counterexamples`` is nonempty;
    ``budget_exhausted`` marks an inconclusive sweep that found nothing.
    ``observations`` carries out-of-hypothesis findings that are not
    refutations; ``missing``/``spurious`` detail classification deltas
    (also folded into ``counterexamples``); ``extremal_sets`` lists
    equality/classification results when the claim tracks them.
    """

    claim: str
    query: dict
    outcome: str
    counterexamples: list[str] = field(default_factory=list)
    observations: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    spurious: list[str] = field(default_factory=list)
    extremal_sets: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    cap: Optional[int] = None
    tool_version: str = TOOL_VERSION
    schema_version: int = SCHEMA_VERSION
    wall_time_ms: int = 0

    def to_payload(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "claim": self.claim,
            "query": self.query,
            "outcome": self.outcome,
            "counterexamples": self.counterexamples,
            "observations": self.observations,
            "missing": self.missing,
            "spurious": self.spurious,
            "extremal_sets": self.extremal_sets,
            "counts": self.counts,
            "cap": self.cap,
            "tool_version": self.tool_version,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"


def _finalize(
    claim: str,
    query: dict,
    cap: Optional[int],
    counts: dict,
    t0: float,
    *,
    counterexamples: Sequence[str] = (),
    observations: Sequence[str] = (),
    missing: Sequence[str] = (),
    spurious: Sequence[str] = (),
    extremal_sets: Sequence[str] = (),
) -> Certificate:
    if counterexamples:
        outcome = "refuted"
    elif counts["truncated"]:
        outcome = "budget_exhausted"
    else:
        outcome = "verified"
    return Certificate(
        claim=claim,
        query=query,
        outcome=outcome,
        counterexamples=sorted(set(counterexamples)),
        observations=sorted(set(observations)),
        missing=sorted(set(missing)),
        spurious=sorted(set(spurious)),
        extremal_sets=sorted(set(extremal_sets)),
        counts=counts,
        cap=cap,
        wall_time_ms=int((time.monotonic() - t0) * 1000),
    )


def _run_task(task: tuple[Callable[[tuple], object], int, object, int]) -> list[dict]:
    fn, k, ls, per = task
    if isinstance(ls, tuple):
        return fn((k, ls, per))
    return [fn((k, ls, per))]


def _sweep(
    tasks: list[tuple[Callable[[tuple], object], int, object]], budget: int, jobs: int
) -> tuple[list[dict], dict]:
    """Walk cell and row tasks, the budget split evenly among their
    cells, and return the cell dicts in task order with their summed
    counts: enumerated, nodes, truncated.

    A task (fn, k, l) with an int l is one cell: ``fn((k, l, per))``
    returns its dict.  A task (fn, k, tops) with a tuple of tops is a
    row: ``fn((k, tops, per))`` returns the dicts of the cells (k, l),
    l in tops, in order.  Every cell gets the same share ``per`` either
    way, so grouping cells into rows changes no count.

    With jobs > 1 the tasks run in a pool of ``jobs`` workers, sent one
    at a time: a cell's cost grows steeply with k, so batches of
    neighbouring cells would leave one worker with all the heavy ones.
    """
    if jobs < 1:
        raise SetDomainError(f"jobs must be at least 1, got {jobs}")
    n_cells = sum(len(ls) if isinstance(ls, tuple) else 1 for _fn, _k, ls in tasks)
    per = max(1, budget // max(1, n_cells))
    sent = [(fn, k, ls, per) for fn, k, ls in tasks]
    if jobs > 1 and len(sent) > 1:
        # imported here: the pool's modules cost a serial run's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_task, sent, chunksize=1))
    else:
        rows = [_run_task(t) for t in sent]
    results = [cell for row in rows for cell in row]
    counts = {
        "enumerated": sum(r["sets"] for r in results),
        "nodes": sum(r["nodes"] for r in results),
        "truncated": any(r["truncated"] for r in results),
    }
    return results, counts


def _detached_top_cells(
    k_min: int, k_max: int, cap: Optional[int]
) -> tuple[list[tuple[int, int]], int]:
    """(k, l) cells with the top l in [2k-2, cap] (default cap 2k+6) for
    every k in [k_min, k_max], and the largest top swept.  A box in which
    some k has no top is refused: it would certify nothing."""
    if not 3 <= k_min <= k_max:
        raise SetDomainError(f"need 3 <= k_min <= k_max, got [{k_min}, {k_max}]")
    if cap is not None and cap < 2 * k_max - 2:
        raise SetDomainError(
            f"cap {cap} leaves k={k_max} no top in [2k-2, cap]; "
            f"need cap >= {2 * k_max - 2}"
        )
    cells = []
    for k in range(k_min, k_max + 1):
        cap_k = cap if cap is not None else 2 * k + 6
        cells += [(k, l) for l in range(2 * k - 2, cap_k + 1)]
    return cells, cap if cap is not None else 2 * k_max + 6


def _top_rows(cells: list[tuple[int, int]]) -> list[tuple[int, tuple[int, ...]]]:
    """The (k, l) cells grouped into one (k, tops) row per k, in order."""
    tops_by_k: dict[int, list[int]] = {}
    for k, l in cells:
        tops_by_k.setdefault(k, []).append(l)
    return [(k, tuple(tops)) for k, tops in tops_by_k.items()]


# ---------------------------------------------------------------------------
# Conjectured floor sweep


def _conjecture_cell(args: tuple) -> dict:
    k, l, per_budget = args
    query = EnumerationQuery.exact(k, l, ("gcd_one",), budget=per_budget)
    bound = freiman_lev_bound(k, l)
    tight = 0
    bad: list[tuple[str, int]] = []

    def leaf(tup: tuple[int, ...], mask: int, r: int, n: int) -> None:
        nonlocal tight
        if n < bound:
            bad.append((_literal(tup), n))
        else:
            tight += 1

    cell = _walk_span(query, bound, leaf)
    return {**cell, "bound": bound, "tight": tight, "bad": bad}


def verify_conjecture(
    k_max: int = 9,
    l_max: Optional[int] = None,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Certificate:
    """Sweep the conjectured restricted-sumset floor over every
    normalized set with 3 <= k <= k_max and span at most l_max.

    The conjecture's hypothesis starts at k = 8; violations at k <= 7
    are recorded as observations, never refutations.
    """
    t0 = time.monotonic()
    if k_max < 3:
        raise SetDomainError(f"conjecture sweep needs k_max >= 3, got {k_max}")
    if l_max is None:
        l_max = 2 * k_max + 4
    if l_max < 2 * k_max - 4:
        raise SetDomainError(
            f"conjecture sweep needs l_max >= 2*k_max-4 = {2 * k_max - 4}, got {l_max}"
        )
    results, counts = _sweep(
        [(_conjecture_cell, k, l) for k in range(3, k_max + 1) for l in range(k - 1, l_max + 1)],
        budget, jobs,
    )
    counterexamples: list[str] = []
    observations: list[str] = []
    for r in results:
        for lit, n in r["bad"]:
            if r["k"] >= 8:
                counterexamples.append(lit)
            else:
                observations.append(
                    f"below-threshold k={r['k']} l={r['l']}: {lit} has "
                    f"restricted size {n} < {r['bound']}"
                )
    query = {
        "k_min": 3,
        "k_max": k_max,
        "l_max": l_max,
        "constraints": ["gcd_one"],
        "budget": budget,
    }
    counts["extremal"] = sum(r["tight"] for r in results)
    return _finalize(
        "freiman_lev_bound", query, l_max, counts, t0,
        counterexamples=counterexamples, observations=observations,
    )


# ---------------------------------------------------------------------------
# Low second-largest element: the 3k-7 floor plus split identities


def _low_second_row(args: tuple) -> list[dict]:
    """The theorem 1 cells (k, l), l in tops, in order: the 3k-7 floor on
    every set, and split_at's two identities on every set with a split
    position.  The split position and the halves' head parts read only
    the head, so the row finds them once per head
    (``structure._split_head``) and checks each top on the walker's
    restricted mask (``structure._split_top``)."""
    k, tops, per_budget = args
    bound = 3 * k - 7
    tight = dict.fromkeys(tops, 0)
    splits = dict.fromkeys(tops, 0)
    bad: dict[int, list[str]] = {l: [] for l in tops}

    def split_part(tup: tuple[int, ...], mask: int) -> Optional[tuple]:
        s = find_admissible_split(_normalized(tup, mask))
        return None if s is None else _split_head(tup[:-1], mask ^ 1 << tup[-1], s)

    def on_set(head: tuple[int, ...], l: int, r: int, n: int, part: Optional[tuple]) -> None:
        if n < bound:
            bad[l].append(f"{_literal(head + (l,))}: restricted size {n} < {bound}")
        elif n == bound:
            tight[l] += 1
        if part is not None:
            splits[l] += 1
            try:
                _split_top(part, l, r, n)
            except RuntimeError as exc:
                bad[l].append(f"{_literal(head + (l,))}: {exc}")

    cells = _walk_row(k, tops, _LOW_SECOND, per_budget, split_part, on_set)
    return [{**c, "tight": tight[c["l"]], "splits": splits[c["l"]], "bad": bad[c["l"]]}
            for c in cells]


def verify_low_second_max(
    k_max: int = 9,
    k_min: int = 3,
    *,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Certificate:
    """Verify the 3k-7 floor for sets whose second-largest element stays
    below 2k-4 while the top is at least 2k-2 (top swept to a cap,
    default 2k+6), and validate the split overlap identities on every
    set admitting a split position."""
    t0 = time.monotonic()
    cells, top_cap = _detached_top_cells(k_min, k_max, cap)
    results, counts = _sweep(
        [(_low_second_row, k, tops) for k, tops in _top_rows(cells)], budget, jobs
    )
    query = {
        "k_min": k_min,
        "k_max": k_max,
        "l_min_rule": "2k-2",
        "cap": cap,
        "constraints": list(_LOW_SECOND),
        "budget": budget,
    }
    counts["extremal"] = sum(r["tight"] for r in results)
    counts["splits_validated"] = sum(r["splits"] for r in results)
    return _finalize(
        "low_second_max_floor", query, top_cap, counts, t0,
        counterexamples=[b for r in results for b in r["bad"]],
    )


# ---------------------------------------------------------------------------
# Slow interior growth: floor, equality classification, rigid shape


def _dense_prefix_cell(args: tuple) -> dict:
    k, l, per_budget = args
    query = EnumerationQuery.exact(k, l, _DENSE, budget=per_budget)
    bound = 3 * k - 7
    equality: list[str] = []
    shape_failures: list[str] = []
    bad: list[str] = []

    def leaf(tup: tuple[int, ...], mask: int, r: int, n: int) -> None:
        lit = _literal(tup)
        if n < bound:
            bad.append(f"{lit}: restricted size {n} < {bound}")
        else:
            equality.append(lit)
            if not dense_extremal_shape(_normalized(tup, mask)):
                shape_failures.append(lit)

    cell = _walk_span(query, bound, leaf)
    return {**cell, "equality": equality, "shape_failures": shape_failures, "bad": bad}


def verify_dense_prefix(
    k_max: int = 9,
    k_min: int = 3,
    *,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Certificate:
    """Verify the 3k-7 floor under slow interior growth with a detached
    top (swept to a cap, default 2k+6), check that equality happens
    exactly at the wide mod-3 family for k >= 6 with k = 0,1 (mod 3)
    and never otherwise, and check the rigid restricted-sumset shape on
    every equality set.

    Observations record at which top values equality occurs, settling
    empirically whether equality forces the minimal top 2k-2.
    """
    t0 = time.monotonic()
    cells, top_cap = _detached_top_cells(k_min, k_max, cap)
    results, counts = _sweep([(_dense_prefix_cell, k, l) for k, l in cells], budget, jobs)
    counterexamples: list[str] = []
    observations: list[str] = []
    missing: list[str] = []
    spurious: list[str] = []
    extremal: list[str] = []
    by_k: dict[int, list[tuple[int, str]]] = {}
    for r in results:
        counterexamples += r["bad"]
        for lit in r["shape_failures"]:
            counterexamples.append(f"{lit}: equality without the rigid shape")
            observations.append(f"shape mismatch on equality set {lit}")
        for lit in r["equality"]:
            by_k.setdefault(r["k"], []).append((r["l"], lit))
    for k in range(k_min, k_max + 1):
        found = {lit for _l, lit in by_k.get(k, [])}
        expected: set[str] = set()
        if k >= 6 and k % 3 in (0, 1):
            expected = {_literal(gen_mod3_wide(k).elements)}
        for lit in sorted(found - expected):
            missing.append(lit)
            counterexamples.append(f"{lit}: unexpected equality set at k={k}")
        # absence of an expected set only refutes on a complete sweep
        for lit in sorted(expected - found):
            spurious.append(lit)
            if not counts["truncated"]:
                counterexamples.append(f"{lit}: expected equality set not found at k={k}")
        if found:
            tops = sorted({l for l, _lit in by_k[k]})
            observations.append(f"k={k}: equality occurs at top values {tops}")
            extremal += sorted(found)
    query = {
        "k_min": k_min,
        "k_max": k_max,
        "l_min_rule": "2k-2",
        "cap": cap,
        "constraints": list(_DENSE),
        "budget": budget,
    }
    counts["extremal"] = len(extremal)
    return _finalize(
        "dense_prefix_equality", query, top_cap, counts, t0,
        counterexamples=counterexamples, observations=observations,
        missing=missing, spurious=spurious, extremal_sets=extremal,
    )


# ---------------------------------------------------------------------------
# Span 2k-3: classification completeness


def classify_extremal(k: int, l: int, *, budget: int = DEFAULT_BUDGET) -> tuple[NormalizedSet, ...]:
    """All normalized k-sets with span l whose restricted sumset has
    exactly 3k-7 members, in lexicographic order."""
    if k < 4:
        raise SetDomainError(f"classification needs k >= 4, got k={k}")
    query = EnumerationQuery.exact(k, l, ("gcd_one",), budget=budget)
    bound = 3 * k - 7
    out = []

    def leaf(tup: tuple[int, ...], mask: int, r: int, n: int) -> None:
        if n == bound:
            out.append(_normalized(tup, mask))

    cell = _walk_span(query, bound, leaf)
    if cell["truncated"]:
        raise BudgetExceeded(cell["nodes"])
    return tuple(out)


def _classification_cell(args: tuple) -> dict:
    k, l, per_budget = args
    query = EnumerationQuery.exact(k, l, ("gcd_one",), budget=per_budget)
    bound = 3 * k - 7
    extremal: list[str] = []
    bad: list[str] = []

    def leaf(tup: tuple[int, ...], mask: int, r: int, n: int) -> None:
        lit = _literal(tup)
        if n < bound:
            bad.append(f"{lit}: restricted size {n} < {bound}")
        else:
            extremal.append(lit)

    cell = _walk_span(query, bound, leaf)
    return {**cell, "extremal": extremal, "bad": bad}


def verify_span_classification(
    k_max: int = 10,
    k_min: int = 4,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Certificate:
    """Check that the enumerated extremal sets at span 2k-3 match the
    parametric families plus the sporadic catalog exactly, for every k
    in [k_min, k_max].

    The one cataloged entry with inconsistent numbers is excluded from
    the expected catalog; the certificate reports how the enumeration
    relates to it (as a subset of an enumerated extremal set, or not at
    all) in ``observations``.
    """
    t0 = time.monotonic()
    if not 4 <= k_min <= k_max <= 12:
        raise SetDomainError(
            f"span classification sweeps 4 <= k_min <= k_max <= 12, got [{k_min}, {k_max}]"
        )
    results, counts = _sweep(
        [(_classification_cell, k, 2 * k - 3) for k in range(k_min, k_max + 1)], budget, jobs
    )
    counterexamples: list[str] = []
    observations: list[str] = []
    missing: list[str] = []
    spurious: list[str] = []
    flagged = flagged_sporadics()
    for r in results:
        k = r["k"]
        counterexamples += r["bad"]
        found = set(r["extremal"])
        expected = {_literal(s.elements) for s in extremal_catalog(k)}
        miss = found - expected
        spur = expected - found
        for f in flagged:
            f_lit = _literal(f.elements)
            explained = set()
            for lit in miss:
                elems = tuple(int(v) for v in lit.strip("{}").split(","))
                if len(elems) == k and set(f.elements) <= set(elems):
                    observations.append(
                        f"flagged catalog entry {f_lit} is a subset of enumerated "
                        f"extremal set {lit} at k={k}; treating the entry as that "
                        f"set with one element dropped"
                    )
                    explained.add(lit)
            miss -= explained
        for lit in sorted(miss):
            missing.append(lit)
            counterexamples.append(f"{lit}: extremal at k={k} but not in the catalog")
        # a catalog entry can only be declared non-extremal if its cell was
        # fully enumerated; a truncated cell may simply not have reached it
        for lit in sorted(spur):
            spurious.append(lit)
            if not r["truncated"]:
                counterexamples.append(f"{lit}: cataloged at k={k} but not extremal")
    if flagged and not counts["truncated"] and not any(
        "flagged catalog entry" in o for o in observations
    ):
        for f in flagged:
            observations.append(
                f"flagged catalog entry {_literal(f.elements)} matches no enumerated "
                f"extremal set; recorded as a catalog typo"
            )
    query = {
        "k_min": k_min,
        "k_max": k_max,
        "l_rule": "2k-3",
        "constraints": ["gcd_one"],
        "budget": budget,
    }
    extremal = [lit for r in results for lit in r["extremal"]]
    counts["extremal"] = len(extremal)
    return _finalize(
        "classification_matches_families", query, None, counts, t0,
        counterexamples=counterexamples, observations=observations,
        missing=missing, spurious=spurious, extremal_sets=extremal,
    )


# ---------------------------------------------------------------------------
# Structure sweep: every checker over its qualifying space


def _structure_row(args: tuple) -> list[dict]:
    """The structure cells (k, l), l in tops, in order.

    Every check reads only k and the head, the set minus its top l: the
    structure checkers see the head through ``structure._context``, and
    the window test uses the head's mask.  So the row walker checks each
    head once, on its first set, and only the extremal count and the gcd
    filter see the top.
    """
    k, tops, per_budget = args
    candidates = top_gap_candidates(k)
    window = (1 << (2 * k - 3)) - 1
    extremal = dict.fromkeys(tops, 0)
    bad: dict[int, list[str]] = {l: [] for l in tops}

    def head_failures(tup: tuple[int, ...], mask: int) -> tuple[str, ...]:
        head = tup[:-1]
        head_mask = mask ^ 1 << tup[-1]
        ns = _normalized(tup, mask)
        fails: list[str] = []
        if double_mask(head_mask, head) & window != window:
            fails.append("head sumset misses part of [0, 2k-4]")
        fails += check_exceptional_points(ns)
        if not exceptional_growth_ok(ns):
            fails.append("exceptional values grow too slowly")
        prof = exceptional_profile(ns)
        for b in prof.b_values:
            if b < k - 2:
                for u in range(1, b + 1):
                    if tail_pair_counts_ok(ns, b, u) is False:
                        fails.append(f"tail pair counts fail at b={b}, u={u}")
        if prof.m >= 2:
            gp = gap_patterns(ns)
            consec_exc = matches_consecutive_exception(ns)
            diff3_case = diff3_exception_case(ns)
            if gp.has_consecutive and not consec_exc:
                fails.append("consecutive missing pair without the low shape")
            if gp.has_diff2:
                fails.append("distance-2 missing pair")
            if gp.has_diff3 and diff3_case is None:
                fails.append("distance-3 missing pair without a mod-3 shape")
            if not consec_exc and diff3_case is None:
                top_b = prof.b_values.elements[-2]
                if len(prof.d_values) < offset_count_bound(top_b):
                    fails.append(
                        f"covered offsets {len(prof.d_values)} below the floor for b={top_b}"
                    )
            gap, case = top_gap_structure(ns)
            if gap and case == "none":
                fails.append("double gap above the window without a rigid shape")
            if prof.m == 2:
                b_pair = tuple(prof.b_values.elements)
                for cand in candidates:
                    if head == cand.head and b_pair == cand.b_values and not gap:
                        fails.append(f"rigid shape {cand.name} without the double gap")
        return tuple(fails)

    def on_set(head: tuple[int, ...], l: int, r: int, n: int, fails: tuple[str, ...]) -> None:
        if n == 3 * k - 7:
            extremal[l] += 1
        if fails:
            lit = _literal(head + (l,))
            bad[l].extend(f"{lit}: {msg}" for msg in fails)

    cells = _walk_row(k, tops, _DENSE, per_budget, head_failures, on_set)
    return [{**c, "extremal": extremal[c["l"]], "bad": bad[c["l"]]} for c in cells]


def _witness_cell(args: tuple) -> dict:
    k, l, per_budget = args
    query = EnumerationQuery.exact(k, l, ("gcd_one",), budget=per_budget)
    span = (1 << (l + 1)) - 1
    extremal = pairs = 0
    bad: list[str] = []
    notes: list[str] = []

    def few_candidates(mask: int, r: int) -> bool:
        # witness_profile's predicate on the walker's masks: with fewer
        # than two witnesses a set gives neither a finding nor a pair.
        # With the top placed, adding elements only removes candidates,
        # so a prefix with fewer than two has no set below it with two.
        return (~(mask | r | r >> l) & span).bit_count() < 2

    def leaf(tup: tuple[int, ...], mask: int, r: int, n: int) -> None:
        nonlocal extremal, pairs
        # the walker still descends a pruned subtree whose count would
        # pass the budget, so its leaves arrive here
        if few_candidates(mask, r):
            return
        ns = _normalized(tup, mask)
        wp = witness_profile(ns)
        if len(wp.values) > 2:
            bad.append(
                f"{_literal(tup)}: {len(wp.values)} witnesses {_literal(wp.values.elements)}"
            )
            return
        if wp.w1 is None:
            return
        pairs += 1
        if n == 3 * k - 7:
            extremal += 1
        try:
            dec = decompose(ns, wp.w1, wp.w2)
        except SetDomainError as exc:
            notes.append(f"k={k} l={l}: {_literal(tup)} not decomposed ({exc})")
            return
        if not dec.reconstructed:
            bad.append(f"{_literal(tup)}: decomposition does not rebuild the set")
        if l == 2 * k - 3:
            m = dec.modulus
            u_set = set(dec.residues.elements)
            if len(u_set) != (m - 1) // 2:
                bad.append(
                    f"{_literal(tup)}: residue count {len(u_set)} != (m-1)/2 for m={m}"
                )
            w2 = wp.w2
            for u1 in range(m):
                for u2 in range(u1 + 1, m):
                    if (u1 + u2 - w2) % m == 0:
                        if (u1 in u_set) + (u2 in u_set) != 1:
                            bad.append(
                                f"{_literal(tup)}: residue pair ({u1},{u2}) not split "
                                f"by the half-grid"
                            )

    cell = _walk_span(query, 2 * l, leaf, few_candidates)
    return {**cell, "extremal": extremal, "pairs": pairs, "bad": bad, "notes": notes}


def sweep_structure(
    k_max: int = 10,
    k_min: int = 3,
    *,
    cap: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Certificate:
    """Run every structural checker over its qualifying search space.

    Detached-top checks sweep k in [k_min, k_max] with slow interior
    growth and tops up to the cap (default 2k+6).  Witness checks sweep
    k in [max(8, k_min), k_max] over all spans up to 2k-3: at most two
    witnesses anywhere, and on every two-witness set the grid-orbit
    reconstruction, with the residue-count and paired-residue laws at
    span exactly 2k-3.
    """
    t0 = time.monotonic()
    dense_cells, top_cap = _detached_top_cells(k_min, k_max, cap)
    results, counts = _sweep(
        [(_structure_row, k, tops) for k, tops in _top_rows(dense_cells)]
        + [(_witness_cell, k, l) for k in range(max(8, k_min), k_max + 1)
           for l in range(k - 1, 2 * k - 2)],
        budget, jobs,
    )
    query = {
        "k_min": k_min,
        "k_max": k_max,
        "dense_l_rule": "[2k-2, cap]",
        "witness_l_rule": "[k-1, 2k-3] for k >= 8",
        "cap": cap,
        "budget": budget,
    }
    counts["extremal"] = sum(r["extremal"] for r in results)
    counts["witness_pairs"] = sum(r.get("pairs", 0) for r in results)
    return _finalize(
        "structure_sweep", query, top_cap, counts, t0,
        counterexamples=[f"k={r['k']} l={r['l']}: {b}" for r in results for b in r["bad"]],
        observations=[note for r in results for note in r.get("notes", [])],
    )
