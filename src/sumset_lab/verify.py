"""Exhaustive desk-scale verification with machine-readable certificates.

:func:`enumerate_tuples` is the public streaming API: it yields every
normalized set matching a query (span range and named constraints) in
lexicographic order of element lists, skipping only values that no
matching set can hold.  Budget accounting counts every candidate value
placement; exceeding the budget raises :class:`BudgetExceeded`, never a
silent partial result.

Every certificate driver splits its box into exact-span cells (k, l)
and walks each cell with one private walker that reaches the sets the
enumerator streams, in the same order.  It places the top first and
carries the restricted sumset of the prefix down the search, so placing
a value costs one shift-or and a set's restricted size is one popcount.
Each finding a walk lists is its element tuple and restricted size,
and no cell re-validates a set the walk has built.  The masks stay
inside the walk: a cell that needs a set's masks reads them from the
set's own context (``core._set_masks``).  A set that a driver only
counts is counted at the walk's leaf and never built: the conjecture's
cells list the sets below the floor and count those on it.
Each cell passes the largest restricted size it reports.  Each element
still to be placed adds a sum with the top above every sum already
present, so once a prefix's restricted size plus the number of elements
still to come exceeds that bound, no set below the prefix is a finding.
The floor checks prune on the bound; the witness cells pass 2l, which
no restricted sumset inside [0, l] reaches, and ask the walk to cut,
by a few bit operations on the masks it carries, each prefix with fewer
than two candidate witnesses left: values that no set below the prefix
can exclude, and that the gap law (a witness with j elements below it
lies in [2j-2, l-2k+2j+2]) still allows.

A sweep plans a cell before walking it, by counting, not walking.
Every named constraint only caps positions, so a cell's nodes are the
increasing prefixes under its caps, plus a leaf per full chain when the
top range is not empty.  Where the caps rise by at most one per
position, only the last cap binds, and the prefixes of each length are
a binomial; otherwise (the growth caps 2i-1) they are one running sum
per position.  Its gcd-1 sets come by Möbius inversion over the
squarefree divisors d of the top l: the full chains under the caps
divided by d, signed by mu(d).  Only the task runner counts cells and
decides, from the plan, which are walked; the walkers count no node,
only look for findings and skip pruned subtrees outright.  A cell
whose planned nodes fit is walked, its walk returns its findings in
stream order, and it has the counts of plain enumeration, so a full
certificate matches plain enumeration byte for byte.  A cell over its budget is skipped: it walks no node,
counts no node and no set, finds nothing, is marked truncated and
records its planned nodes.  No cell is walked in part.

The span walker walks one kind of cell: the gcd-1 sets of exact span l,
the paper's hypothesis.  Those are the conjecture and span 2k-3 floor
cells, classify_extremal's and the witness cells.  The mirror A -> l - A
keeps a set's gcd, span and restricted size, so it maps such a cell onto
itself, and the walk needs only the sets with a_1 + a_{k-2} <= l.  It
caps every position from a_1 on at what a_{k-2} <= l - a_1 leaves it,
adds each finding's mirror after the walk unless a_1 + a_{k-2} = l
(there the mirror is walked too), and returns the findings sorted into
stream order.  The witness prune keeps that sound: the mirror maps a
set's witnesses W to l - W, so a witness cell finds a set exactly when
it finds its mirror.  The floor walk places a_1 in its own loop, the
witness walk in its own ``find``; either sets the caps after a_1 once
per value.  The walk carries no running gcd: it takes one gcd per leaf,
of the leaf's elements.
The theorem 1, theorem 2 and structure cells cap low or interior
positions, which the mirror moves: they run as rows over their heads.

One driver path splits a sweep's budget evenly among its cells, runs
its tasks in order (in a process pool when ``jobs > 1``) and sums their
node, set and truncation counts; a budget below the number of cells is
refused.  Every walked cell fits its share, so a sweep's nodes never
exceed its budget, and the sweep names each skipped cell and the budget
that walks every cell in its observations.  A task is a function, its
constraints, k and a tuple of tops: one top for a floor or witness
cell, or every detached top of one k for a row.  The function walks the
tops it is handed and returns only findings, one entry per top.  A
row's cells stream the same heads (the set minus its top), so its
walked cells share one walk over the heads.  Theorems 1 and 2 and the
structure sweep run their cells as rows, and the row walk itself runs
the one 3k-7 floor step of all three: each head settles all its tops
at once when its sums, plus its bits that the least walked top carries
past them, are over 3k-7, a fact about masks that holds on any mask.
Only a head that bound leaves loops its tops, each top costing one
shift-or and one popcount, with no call per set; that loop alone
records the sets below and on the floor.  A row may also pass a
per-head check for what reads more than the floor.  Every structural
check reads only k and the head, and so do theorem 1's split position
and, below s = k-2, its left half and overlap identity, which no sum
with the top can reach: theorem 1's check finds its split lemma's
inclusion-exclusion in the masks, with the right half read from the
head, and hands a head it cannot settle to ``structure.split_at``, the
one per-set split check.  A row with no check is theorem 2's, and its
head walk also cuts a prefix once the floor bound, plus the head
elements still to come, passes 3k-7.  The conjecture's and theorem 3's
cells walk with the Freiman-Lev floor ``freiman_lev_bound(k, l)``.
Theorem 3's returns the sets below and on it, as the rows do; the
conjecture's returns the sets below it and the number on it, the only
thing its merge reads of those.  Each driver judges its sets in its
merge.  On top of the driver path sit five certificate drivers, each
adding only its own merge:

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
indent, string lists that :class:`Certificate` stores sorted and
without repeats, a single trailing newline.  Reruns are
byte-identical except for ``wall_time_ms``.
"""

from __future__ import annotations

import json
import time
from itertools import accumulate
from math import comb, gcd
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import __version__ as TOOL_VERSION
from .core import (
    MAX_ELEMENT,
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    _set_masks,
    elements_of,
    format_set_literal,
    freiman_lev_bound,
    mask_of,
)

# structure and families load in the functions that use them, so a
# process loads only what its sweep runs.  The row and cell functions
# run in pool workers too: each imports what it uses itself, as a worker
# started fresh has loaded nothing else.

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


class _QueryFields(NamedTuple):
    k: int
    l_min: int
    l_max: int
    constraints: tuple[str, ...]
    budget: int


class EnumerationQuery(_QueryFields):
    """One enumeration task: cardinality, span range, named constraints.

    Sets are streamed with minimum 0 and maximum in [l_min, l_max].
    ``budget`` caps the number of candidate value placements visited.
    ``constraints`` is stored sorted and without repeats.
    """

    __slots__ = ()

    def __new__(
        cls,
        k: int,
        l_min: int,
        l_max: int,
        constraints: Sequence[str] = (),
        budget: int = DEFAULT_BUDGET,
    ) -> EnumerationQuery:
        if k < 2:
            raise SetDomainError(f"enumeration needs k >= 2, got k={k}")
        if l_min < k - 1:
            raise SetDomainError(f"a {k}-set spans at least [0, {k - 1}], got l_min={l_min}")
        if l_max < l_min:
            raise SetDomainError(f"empty span range [{l_min}, {l_max}]")
        if budget < 1:
            raise SetDomainError("budget must be positive")
        normalized = tuple(sorted(set(constraints)))
        for name in normalized:
            if name not in KNOWN_CONSTRAINTS:
                raise SetDomainError(f"unknown constraint {name!r}")
        return super().__new__(cls, k, l_min, l_max, normalized, budget)

    # _replace builds through _make: keep it validating
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def exact(cls, k: int, l: int, constraints: Sequence[str] = (), **kw) -> "EnumerationQuery":
        return cls(k, l, l, constraints, **kw)

    def to_dict(self) -> dict:
        return {**self._asdict(), "constraints": list(self.constraints)}


def _caps(query: EnumerationQuery) -> tuple[int, int, list[int]]:
    """The query's named constraints, read once: (last_lo, last_hi, his).
    The top ranges over [last_lo, last_hi], and his[pos] caps the value
    at position pos < k-1 (position 0, which holds 0, included)."""
    k, constraints = query.k, query.constraints
    lo, hi = query.l_min, query.l_max
    if "last_ge_2k_minus_2" in constraints:
        lo = max(lo, 2 * k - 2)
    if "last_eq_2k_minus_3" in constraints:
        lo, hi = max(lo, 2 * k - 3), min(hi, 2 * k - 3)
    his = [hi - (k - 1 - pos) for pos in range(k - 1)]
    if "growth_a_i_lt_2i" in constraints:
        his = [min(h, 2 * pos - 1) for pos, h in enumerate(his)]
    if "interior_lt_2k_minus_4" in constraints:
        his = [min(h, 2 * k - 5) for h in his]
    return lo, hi, his


def enumerate_tuples(
    query: EnumerationQuery, counter: Optional[list[int]] = None
) -> Iterator[tuple[int, ...]]:
    """Yield ascending element tuples matching the query's span range and
    named constraints, in lexicographic order of element lists, starting
    at 0.

    ``counter`` is a shared one-cell node count, so several enumerations
    can draw from one budget, and a caller can read how many nodes a
    stream visited (the benchmark's enumerator probe does).  Raises
    :class:`BudgetExceeded` mid-stream when the budget runs out;
    everything yielded before that is valid.
    """
    k = query.k
    l_lo, l_hi, his = _caps(query)
    if counter is None:
        counter = [0]
    budget = query.budget
    need_gcd = "gcd_one" in query.constraints

    def rec(pos: int, prev: int, g: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if pos == k - 1:
            for last in range(max(l_lo, prev + 1), l_hi + 1):
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceeded(counter[0])
                if need_gcd and gcd(g, last) != 1:
                    continue
                yield chosen + (last,)
            return
        for v in range(prev + 1, his[pos] + 1):
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceeded(counter[0])
            yield from rec(pos + 1, v, gcd(g, v), chosen + (v,))

    yield from rec(1, 0, 0, (0,))


def enumerate_sets(
    query: EnumerationQuery, counter: Optional[list[int]] = None
) -> Iterator[IntegerSet]:
    """Like :func:`enumerate_tuples`, wrapped as IntegerSets.  A query
    whose ``l_max`` passes ``MAX_ELEMENT`` is refused, as
    :class:`IntegerSet` refuses the sets it could stream."""
    if query.l_max > MAX_ELEMENT:
        raise SetDomainError(f"element {query.l_max} exceeds the supported maximum {MAX_ELEMENT}")
    for tup in enumerate_tuples(query, counter):
        yield IntegerSet._from_trusted(tup, mask_of(tup))


def _chains(his: Sequence[int]) -> list[int]:
    """counts[p], p from 0 to len(his) - 1: the increasing chains
    0 < a_1 < ... < a_p with every a_j <= his[j], for caps his[1:] of
    at least 0 (those of :func:`_caps` are at least 1).

    Where the caps his[1:] rise by at most one per position, only the
    last cap binds: a_j <= a_p - (p-j) <= his[p] - (p-j) <= his[j], so
    the chains of length p are the p-subsets of [1, his[p]].  The span
    caps rise by one, the interior cap holds them flat, and the caps
    his // d of the Möbius terms rise by at most one where his does.
    Otherwise (the growth caps 2i-1 rise by two) the chains of one
    length ending at v are those of the length before ending below v,
    so each row of counts by end value is the running sum of the row
    before, shifted one up and cut at the position's cap."""
    if all(b - a <= 1 for a, b in zip(his[1:], his[2:])):
        return [1] + [comb(h, p) for p, h in enumerate(his[1:], 1)]
    row, counts = [1], [1]  # the empty chain ends at a_0 = 0
    for cap in his[1:]:
        below = list(accumulate(row))
        row = [0, *below[:cap]] + [below[-1]] * (cap - len(below))
        counts.append(sum(row))
    return counts


def _plan(query: EnumerationQuery, memo: Optional[dict] = None) -> tuple[int, int]:
    """The (nodes, gcd-1 sets) that :func:`enumerate_tuples` streams on
    an exact-span query with no budget, with the top placed first, by
    counting and without walking.

    Every named constraint only caps positions, so the placements of
    a_1 .. a_{k-2} are the increasing chains under the caps of
    :func:`_caps`, counted by :func:`_chains`.  Every prefix is a node,
    and every full chain adds one leaf node when the top range is not
    empty.  A set's gcd is gcd(l, a_1, ..., a_{k-2}), so by Möbius
    inversion over the squarefree divisors d of l the gcd-1 sets are
    the sum of mu(d) times the full chains whose values are all
    multiples of d, that is, the full chains under the caps his // d.

    ``memo``, if given, maps caps to their :func:`_chains` counts, and
    is filled with the caps counted here: the cells of one task share
    it, as their caps repeat."""
    l = query.l_max
    l_lo, l_hi, his = _caps(query)
    memo = {} if memo is None else memo

    def chains(caps: tuple[int, ...]) -> list[int]:
        if caps not in memo:
            memo[caps] = _chains(caps)
        return memo[caps]

    counts = chains(tuple(his))
    has_leaf = l_lo <= l_hi
    nodes = sum(counts[1:]) + has_leaf * counts[-1]
    if not has_leaf:
        return nodes, 0
    if "gcd_one" not in query.constraints:
        return nodes, counts[-1]
    # the squarefree divisors d of l, each with mu(d); a p that divides
    # what is left of l once the smaller primes are divided out is prime
    terms, rest = [(1, 1)], l
    for p in range(2, l + 1):
        if rest % p == 0:
            terms += [(d * p, -mu) for d, mu in terms]
            while rest % p == 0:
                rest //= p
    sets = sum(mu * chains(tuple([h // d for h in his]))[-1] for d, mu in terms)
    return nodes, sets


def _walk_span(
    k: int, l: int, bound: int, prune_witnesses: bool = False, keep: Optional[int] = None
) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Walk the gcd-1 cell (k, l), k >= 3, and return ``(findings,
    tallied)``.  The findings are, in stream order, a ``(tup, n)``
    finding for each set that :func:`enumerate_tuples` streams on
    ``EnumerationQuery.exact(k, l, ("gcd_one",))`` whose restricted
    sumset has n <= bound members, ``tup`` being the set's ascending
    element tuple.  Every restricted sum lies in [1, 2l-1], so a bound
    of 2l returns every gcd-1 set of the cell.  The masks stay inside
    the walk: a caller that needs a set's masks reads them from the
    set's own context (``core._set_masks``).

    ``keep``, which defaults to ``bound``, lets the floor walk count
    sets instead of listing them: it lists only the findings with n <=
    keep, and ``tallied`` is the number of the cell's sets with keep < n
    <= bound, for which it builds no tuple.  A walked set
    adds 1 to the tally, or 2 when a_1 + a_{k-2} < l: its mirror (see
    below) is another set of the cell, with the same n, that the halved
    walk does not visit.  The witness walk lists every finding and
    tallies nothing.

    The walk prunes on a lookahead bound.  The top is placed first, so
    each element still to be placed adds a sum with the top that is
    larger than every sum already present: a set's restricted size is at
    least the prefix's plus the number of elements still to come.

    With ``prune_witnesses`` the walk instead cuts each prefix that has
    fewer than two candidate witnesses, and the findings are only the
    sets with two or more.  A witness of a set A is a value w in [0, l]
    outside A such that neither w nor w + l is a restricted sum.  With j
    elements of A below it, a witness obeys the gap law

        2j - 2 <= w <= l - 2k + 2j + 2.

    Below w, 0 pairs with w, which is outside A, and each other value a
    pairs with w - a.  No pair lies inside A, as w is no restricted sum,
    so j <= floor(w/2) + 1.  Above w, l pairs with w and each other
    value x with w + l - x, so likewise k - j <= floor((l-w)/2) + 1.  For
    l <= 2k-5 the window is empty for every j: no set of the cell has a
    witness, and the walk returns no finding without walking.

    A candidate of a prefix a_0..a_p is a value outside it (and the top)
    such that neither it nor its sum with l is a restricted sum of the
    prefix with the top, and that the law allows.  Every set below the
    prefix has the same j prefix elements below a value w < a_p, so w
    must lie in that j's window; the walk carries the mask of these
    values, adding each value it passes.  A value w > a_p has j >= p + 1
    elements below it, at most w - a_p - 1 of them above a_p, so it must
    reach max(a_p + 1, 2p, 2a_p - 2p + 1 - (l - 2k + 3)); at l = 2k-4,
    where each window is the one value 2j-2, it must also be even.  Both
    rules are exactly the law: some j in [p + 1, p + w - a_p] puts w in
    its window.  The cell's table holds these masks by position and a_p.
    The candidates' mask is ``c = ~(rv | rv >> l) & allowed`` on the
    prefix's restricted mask rv, as ``allowed`` holds no element of the
    prefix, and the cut is ``not c & c - 1``.  Each element placed later
    only removes candidates, and each witness of a set below the prefix
    is one of them, so no set below a cut prefix has two witnesses.  At
    a full set the candidates are exactly its witnesses.  This walk cuts
    on the witness test alone: the witness cells pass the bound 2l,
    which the lookahead cannot reach, as no restricted sum passes 2l-1.
    The leaf still holds each set to ``bound``, so the findings are
    right for any bound; the size cut was only ever a saving.

    The gcd is taken once per leaf, of the leaf's elements, and not
    carried down the walk: far fewer leaves are reached than values are
    placed.

    The walk counts no node and takes no budget: :func:`_run_task`
    counts the cell from its plan and decides whether it is walked.

    The cell is walked in half; k < 3 leaves no interior a_1 to halve
    on and is refused.  The mirror A -> l - A maps the cell onto itself:
    it keeps gcd, span and restricted size (2^(l-A) = 2l - 2^A), and
    maps a_1 + a_{k-2} < l to a sum above l.  It also maps a set's
    witnesses W to l - W, so a set and its mirror have as many: the
    findings under the witness prune are closed under the mirror too.
    The walk visits only the sets with a_{k-2} <= l - a_1: a_1 is capped
    at (l-k+3)//2, and once a_1 = v is placed, each later position j is
    capped at l - v - (k-2-j), at or below its span cap, so whole
    subtrees go.  The floor walk places a_1 in its own loop, which sets
    those caps once per value of a_1 and descends from position 2; the
    witness walk places it in its own ``find``, which sets them on
    reaching position 2.  Once the walk is done, each listed finding
    with a_1 + a_{k-2} < l adds its mirror's tuple, with the same n, as
    each tallied one adds its mirror's 1; a set on the tie a_1 + a_{k-2}
    = l has its mirror walked too (or is its own mirror), and is not
    mirrored.
    The findings are sorted into stream order, so they are the findings
    of a whole walk, in the same order.
    """
    if k < 3:
        raise SetDomainError(f"the span walker walks a cell in half: it needs k >= 3, got k={k}")
    if prune_witnesses and l <= 2 * k - 5:
        return [], 0
    keep = bound if keep is None else keep
    last = k - 1
    # the elements on the current root-to-node path; the leaf's tuple
    path = [0] * k
    path[last] = l
    # the caps by position: a_1's, and from position 2 on those that
    # a_1 + (k-3) <= a_{k-2} <= l - a_1 sets once per value of a_1
    caps = [0, (l - k + 3) // 2] + [0] * (k - 3)
    held: list[tuple[tuple[int, ...], int]] = []
    tallied = 0

    mask, r = 1 | 1 << l, 1 << l
    if prune_witnesses:
        # wins[j]: the window [2j-2, l-2k+2j+2], inside [0, l-2] for
        # 1 <= j <= k-2; ups[pos][v]: the values in [max(v+1, 2pos,
        # 2v-2pos+1-(l-2k+3)), l-1], which a witness above a_pos = v
        # reaches, even ones only at l = 2k-4
        wins = [0] + [(2 << l - 2 * k + 2 * j + 2) - (1 << 2 * j - 2) for j in range(1, last)]
        parity = ((4 << l) - 1) // 3 if l == 2 * k - 4 else -1
        ups = [[(1 << l) - (1 << lo) & parity if lo < l else 0
                for v in range(l + 1)
                for lo in [max(v + 1, 2 * pos, 2 * v - 2 * pos + 2 * k - 2 - l)]]
               for pos in range(last)]

        # ``ok`` is the mask of the values below prev that lie in their
        # windows; the loop adds each v it passes, which has pos
        # elements below it
        def find(pos: int, prev: int, mask: int, r: int, ok: int) -> None:
            if pos == last:
                n = r.bit_count()
                if n <= bound and gcd(*path) == 1:
                    held.append((tuple(path), n))
                return
            if pos == 2:
                caps[2:] = range(l - prev - k + 4, l - prev + 1)
            win, up = wins[pos], ups[pos]
            for v in range(prev + 1, caps[pos] + 1):
                rv = r | mask << v
                c = ~(rv | rv >> l) & (ok | up[v])
                if c & c - 1:
                    path[pos] = v
                    find(pos + 1, v, mask | 1 << v, rv, ok)
                ok |= win & 1 << v

        find(1, 0, mask, r, 0)
    else:
        # a prefix ending at pos is pruned once its restricted size passes
        # lims[pos]: each of the last - 1 - pos elements still to come
        # adds one
        lims = [bound - (last - 1 - pos) for pos in range(last)]

        def find(pos: int, prev: int, mask: int, r: int) -> None:
            nonlocal tallied
            if pos == last:
                n = r.bit_count()
                if n <= bound and gcd(*path) == 1:
                    if n > keep:
                        tallied += 1 + (path[1] + path[-2] < l)
                        return
                    held.append((tuple(path), n))
                return
            lim = lims[pos]
            for v in range(prev + 1, caps[pos] + 1):
                rv = r | mask << v
                if rv.bit_count() > lim:
                    continue
                path[pos] = v
                find(pos + 1, v, mask | 1 << v, rv)

        # a_1 in its own loop, with find's cut, then the caps it sets;
        # placed in find, as in the witness walk, it measured 1.02x slower
        # on verify_conjecture(11, 26) and 1.03x on sweep_structure(11)
        for v in range(1, caps[1] + 1):
            rv = r | mask << v
            if rv.bit_count() > lims[1]:
                continue
            path[1] = v
            caps[2:] = range(l - v - k + 4, l - v + 1)
            find(2, v, mask | 1 << v, rv)
    held += [(tuple(l - x for x in reversed(tup)), n) for tup, n in held if tup[1] + tup[-2] < l]
    held.sort()
    return held, tallied


def _walk_row(
    k: int,
    tops: Sequence[int],
    constraints: tuple[str, ...],
    check: Optional[Callable[[tuple[int, ...], int, list[int], Optional[int], int], None]] = None,
) -> tuple[dict[int, list], dict[int, list]]:
    """Walk the heads of the detached-top cells (k, l), k >= 3 and l in
    ``tops``, in lexicographic order, and return ``(below, at)``: per
    top, the (tuple, restricted size) pairs of the sets under the 3k-7
    floor and the tuples of the sets on it, in stream order.  A head is
    a set minus its top; every cell streams every head, and with top l
    the set has restricted mask ``r_head | head_mask << l``, one
    shift-or and one popcount per set.  Like the span walker, it counts
    nothing.

    The floor step runs at each head the walk reaches: a head whose
    ``_head_floor`` at the least top is over 3k-7 has no set within the
    floor at any top and loops none; any other sorts each top's set
    into ``below`` or ``at``.  ``check(head, head_mask, rs, s,
    right_r)``, if given, is called at every head before its floor
    step.  ``head_mask`` is the
    head's bit mask and ``rs[i]`` the restricted mask of its prefix
    a_0..a_i, which the walk builds as it places a_i; ``rs[-1]`` is the
    head's own.  ``rs`` is the walk's list, valid only during the call.

    The walk cuts head prefixes exactly when no ``check`` is given, as a
    check must see every head.  It cuts a prefix a_0..a_p, p <= k-3,
    once ``_head_floor`` of its masks at the least top is over 3k-7 less
    the k-2-p head elements still to come: each adds a sum with the top
    above every sum of the prefix and the top, so no set below the
    prefix has a restricted size within the floor.  Like the span
    walker's lookahead, the cut is a fact about masks.

    ``s`` is theorem 1's split position, one more than the largest i in
    [1, k-3] with a_i >= 2i, or None; ``right_r`` is the restricted mask
    of the right half, the head's elements from a_{s-1} up, or of the
    whole head when s is None.  The right half's mask is ``head_mask >>
    a_{s-1} << a_{s-1}``, so a check derives it, but the walk carries
    it down with s and ``right_r``, to build ``right_r``: placing an a_i
    >= 2i with i <= k-3 restarts them at s = i+1 with a_i alone, and any
    other placement v adds v to the right half, ``right_r | right_mask
    << v`` then ``right_mask | 1 << v``.

    The walk takes no gcd: under both detached-top constraints every
    head already has gcd 1, so every top streams it.  A dense head has
    a_1 = 1.  A theorem 1 head has k-2 distinct interior values in
    [1, 2k-5], and for d >= 2 that range holds at most (2k-5)/d < k-2
    multiples of d, so no d divides them all.

    Sharing the walk needs every cell to stream the same heads.  The
    head walk lowers each interior cap to one below the next position's
    (the values rise strictly), so it visits only prefixes of complete
    heads.  Under the detached-top constraints the lowered caps do not
    depend on the top.  With l >= 2k-2 the span cap l - (k-1-pos) is at
    least k-1+pos: above the growth cap 2pos-1, and above k-3+pos, which
    lowering makes of the cap 2k-5 of ``interior_lt_2k_minus_4``.  Under
    that constraint the query's caps do differ between tops, at the low
    positions where the span cap is below 2k-5, but only on prefixes
    that no head completes.  A row whose lowered caps differ between its
    tops is refused.
    """
    below: dict[int, list] = {l: [] for l in tops}
    at: dict[int, list] = {l: [] for l in tops}
    if not tops:
        return below, at
    last = k - 1
    caps: Optional[list[int]] = None
    for l in tops:
        # position 0 always holds 0, so its cap is unused
        lowered = [0] + _caps(EnumerationQuery.exact(k, l, constraints))[2][1:]
        for pos in range(last - 2, 0, -1):
            lowered[pos] = min(lowered[pos], lowered[pos + 1] - 1)
        if caps not in (None, lowered):
            raise SetDomainError(f"the cells of row k={k} stream different heads")
        caps = lowered
    # at positions i <= k-3 the values from 2i on restart the split
    restarts = [min(cap + 1, 2 * pos) for pos, cap in enumerate(caps)]
    path = [0] * last
    rs = [0] * last
    bound = 3 * k - 7
    # the prefix that heads(pos, ...) extends, a_0..a_{pos-1}, is cut once
    # its floor passes lims[pos]: last - pos head elements are still to come
    lims = None if check is not None else [bound - (last - pos) for pos in range(last)]
    l_min = min(tops)

    def heads(pos: int, prev: int, mask: int, r: int,
              s: Optional[int], right_mask: int, right_r: int) -> None:
        if lims is not None and _head_floor(r, mask, l_min) > lims[pos]:
            return
        cap = caps[pos]
        if pos == last - 1:
            # a_{k-2} completes the head and never restarts the split
            for v in range(prev + 1, cap + 1):
                path[pos] = v
                head_mask = mask | 1 << v
                r_head = rs[pos] = r | mask << v
                if check is not None:
                    check(tuple(path), head_mask, rs, s, right_r | right_mask << v)
                if _head_floor(r_head, head_mask, l_min) > bound:
                    continue
                head = tuple(path)
                for l in tops:
                    n = (r_head | head_mask << l).bit_count()
                    if n < bound:
                        below[l].append((head + (l,), n))
                    elif n == bound:
                        at[l].append(head + (l,))
            return
        low, restart = prev + 1, restarts[pos]
        for v in range(low, restart):
            path[pos] = v
            rv = rs[pos] = r | mask << v
            heads(pos + 1, v, mask | 1 << v, rv, s, right_mask | 1 << v, right_r | right_mask << v)
        for v in range(restart if restart > low else low, cap + 1):
            path[pos] = v
            rv = rs[pos] = r | mask << v
            heads(pos + 1, v, mask | 1 << v, rv, pos + 1, 1 << v, 0)

    heads(1, 0, 1, 0, None, 1, 0)
    return below, at


class Certificate:
    """Outcome of one verification run, serializable to canonical JSON.

    The constructor judges the run from its findings: ``outcome`` is
    ``refuted`` exactly when ``counterexamples`` is nonempty, else
    ``budget_exhausted`` when ``counts`` says the sweep was truncated,
    else ``verified``.  ``observations`` carries out-of-hypothesis
    findings that are not refutations; ``missing``/``spurious`` detail
    classification deltas (also folded into ``counterexamples``);
    ``extremal_sets`` lists equality/classification results when the
    claim tracks them.  Each list is stored sorted and without repeats;
    a list or ``counts`` left out is a fresh empty one.  Every field
    after ``query`` is keyword-only.
    """

    def __init__(
        self,
        claim: str,
        query: dict,
        *,
        counterexamples: Sequence[str] = (),
        observations: Sequence[str] = (),
        missing: Sequence[str] = (),
        spurious: Sequence[str] = (),
        extremal_sets: Sequence[str] = (),
        counts: Optional[dict] = None,
        cap: Optional[int] = None,
        wall_time_ms: int = 0,
    ) -> None:
        counterexamples = sorted(set(counterexamples))
        counts = {} if counts is None else counts
        # assigned in payload order: the payload is the attributes
        self.schema_version = SCHEMA_VERSION
        self.claim = claim
        self.query = query
        self.outcome = ("refuted" if counterexamples
                        else "budget_exhausted" if counts.get("truncated") else "verified")
        self.counterexamples = counterexamples
        self.observations = sorted(set(observations))
        self.missing = sorted(set(missing))
        self.spurious = sorted(set(spurious))
        self.extremal_sets = sorted(set(extremal_sets))
        self.counts = counts
        self.cap = cap
        self.tool_version = TOOL_VERSION
        self.wall_time_ms = wall_time_ms

    def to_payload(self) -> dict:
        return dict(vars(self))

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"


def _ms_since(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


# fn(k, tops, walked, constraints): the findings of each top, walking those in walked
_Finder = Callable[[int, tuple[int, ...], tuple[int, ...], tuple[str, ...]], list[dict]]


def _run_task(task: tuple[_Finder, tuple[str, ...], int, tuple[int, ...], int]) -> list[dict]:
    """Run (fn, constraints, k, tops, per): the dicts k, l, planned,
    nodes, sets, truncated of the cells (k, l), l in tops, in order, each
    with the findings ``fn`` gives for it.  Only here is a sweep's cell
    counted from its plan and its walk decided.  A cell whose plan fits
    the share ``per`` has the plan's counts; one over it is skipped and
    counts nothing.  ``fn`` walks the tops that fit and stream a set.

    The task's cells are planned with one :func:`_chains` memo, which
    lives only as long as the task: a row's tops under
    ``growth_a_i_lt_2i`` share their caps, and the caps his // d of the
    Möbius terms recur across tops."""
    fn, constraints, k, tops, per = task
    cells, walked = [], []
    memo: dict = {}
    for l in tops:
        planned, sets = _plan(EnumerationQuery.exact(k, l, constraints), memo)
        fits = planned <= per
        cells.append({"k": k, "l": l, "planned": planned, "nodes": planned if fits else 0,
                      "sets": sets if fits else 0, "truncated": not fits})
        if fits and sets:
            walked.append(l)
    found = fn(k, tops, tuple(walked), constraints)
    return [{**cell, **f} for cell, f in zip(cells, found, strict=True)]


def _sweep(
    tasks: list[tuple[_Finder, tuple[str, ...], int, tuple[int, ...]]], budget: int, jobs: int
) -> tuple[list[dict], dict, list[str]]:
    """Run tasks (fn, constraints, k, tops), the budget split evenly
    among their cells (k, l), l in tops, and return the cell dicts in
    task order, their summed counts (enumerated, nodes, truncated) and
    the budget notes for the certificate's observations.  A budget below
    the number of cells is refused: it cannot give every cell a node.

    :func:`_run_task` runs each task with the share ``per``, the same for
    every cell, so grouping cells into rows changes no count; a cell
    whose plan exceeds its share is skipped, so the summed nodes never
    exceed the budget.  The notes name each skipped cell and the
    smallest budget whose share fits every cell, the largest plan times
    the number of cells; a sweep that skips no cell has none.

    With jobs > 1 the tasks run in a pool of ``jobs`` workers, sent one
    at a time: a cell's cost grows steeply with k, so batches of
    neighbouring cells would leave one worker with all the heavy ones.
    """
    if jobs < 1:
        raise SetDomainError(f"jobs must be at least 1, got {jobs}")
    n_cells = sum(len(tops) for _fn, _constraints, _k, tops in tasks)
    if budget < n_cells:
        raise SetDomainError(
            f"budget {budget} is below the box's {n_cells} cells; each cell needs a node"
        )
    per = budget // n_cells
    sent = [(*task, per) for task in tasks]
    if jobs > 1 and len(sent) > 1:
        # imported here: the pool's modules cost a serial run's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_task, sent, chunksize=1))
    else:
        rows = [_run_task(t) for t in sent]
    results = [cell for row in rows for cell in row]
    skipped = [r for r in results if r["truncated"]]
    counts = {
        "enumerated": sum(r["sets"] for r in results),
        "nodes": sum(r["nodes"] for r in results),
        "truncated": bool(skipped),
    }
    notes = [
        f"budget: cell k={r['k']} l={r['l']} skipped, {r['planned']} planned nodes "
        f"over its share {per}"
        for r in skipped
    ]
    if skipped:
        notes.append(
            f"budget: {len(skipped)} of {n_cells} cells skipped; "
            f"--budget {max(r['planned'] for r in results) * n_cells} walks every cell"
        )
    return results, counts, notes


def _detached_top_rows(
    k_min: int, k_max: int, cap: Optional[int]
) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """One (k, tops) row per k in [k_min, k_max], the tops being every l
    in [2k-2, cap] (default cap 2k+6), and the largest top swept.  A box
    in which some k has no top is refused: it would certify nothing."""
    if not 3 <= k_min <= k_max:
        raise SetDomainError(f"need 3 <= k_min <= k_max, got [{k_min}, {k_max}]")
    if cap is not None and cap < 2 * k_max - 2:
        raise SetDomainError(
            f"cap {cap} leaves k={k_max} no top in [2k-2, cap]; "
            f"need cap >= {2 * k_max - 2}"
        )
    rows = []
    for k in range(k_min, k_max + 1):
        cap_k = cap if cap is not None else 2 * k + 6
        rows.append((k, tuple(range(2 * k - 2, cap_k + 1))))
    return rows, cap if cap is not None else 2 * k_max + 6


# ---------------------------------------------------------------------------
# The Freiman-Lev floor: one cell for the conjecture and theorem 3


def _floor_cells(
    k: int, tops: tuple[int, ...], walked: tuple[int, ...], constraints: tuple[str, ...]
) -> list[dict]:
    """The findings of the floor cell (k, l), l its task's one top: the
    gcd-1 cell, which its task plans under ``constraints`` = ``gcd_one``,
    walked with ``bound = freiman_lev_bound(k, l)``.  The span walk's
    (tuple, restricted size) findings split, as they come, into
    ``below``, the findings under the bound, and ``at``, the tuples of
    the sets on it, each in stream order.  Theorem 3 judges them."""
    (l,) = tops
    bound = freiman_lev_bound(k, l)
    found = _walk_span(k, l, bound)[0] if walked else []
    return [{"bound": bound, "below": [f for f in found if f[1] < bound],
             "at": [tup for tup, n in found if n == bound]}]


def _conjecture_cell(
    k: int, tops: tuple[int, ...], walked: tuple[int, ...], constraints: tuple[str, ...]
) -> list[dict]:
    """The findings of the conjecture's floor cell (k, l), l its task's
    one top: :func:`_floor_cells`' ``bound`` and ``below``, and in place
    of ``at`` the number ``tight`` of the sets on the bound, as the
    conjecture reads only that number.  The span walk lists the sets up
    to one below the bound, which are ``below`` as they come, and
    tallies those on it, mirrors included, without building their
    tuples."""
    (l,) = tops
    bound = freiman_lev_bound(k, l)
    below, tight = _walk_span(k, l, bound, keep=bound - 1) if walked else ([], 0)
    return [{"bound": bound, "below": below, "tight": tight}]


def _below_floor(tup: Sequence[int], n: int, bound: int) -> str:
    return f"{format_set_literal(tup)}: restricted size {n} < {bound}"


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
    are recorded as observations, never refutations.  ``extremal``
    counts the sets on the floor: each cell's walk tallies them at its
    leaves, mirrors included, and builds none of them.
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
    results, counts, observations = _sweep(
        [(_conjecture_cell, ("gcd_one",), k, (l,))
         for k in range(3, k_max + 1) for l in range(k - 1, l_max + 1)],
        budget, jobs,
    )
    counterexamples: list[str] = []
    for r in results:
        for tup, n in r["below"]:
            if r["k"] >= 8:
                counterexamples.append(format_set_literal(tup))
            else:
                observations.append(
                    f"below-threshold k={r['k']} l={r['l']}: {format_set_literal(tup)} has "
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
    return Certificate(
        "freiman_lev_bound", query, counterexamples=counterexamples,
        observations=observations, counts=counts, cap=l_max, wall_time_ms=_ms_since(t0),
    )


# ---------------------------------------------------------------------------
# Low second-largest element: the 3k-7 floor plus split identities


def _head_floor(r_head: int, head_mask: int, l_min: int) -> int:
    """A lower bound, exact once l_min reaches r_head's bit length t, on
    ``(r_head | head_mask << l).bit_count()`` for every l >= l_min: the
    bits of ``r_head``, plus the bits a of ``head_mask`` with a >= t -
    l_min, which the shift by l carries to t or above, past every bit of
    ``r_head``.  A fact about two masks, so it holds on any masks."""
    return r_head.bit_count() + (head_mask >> max(0, r_head.bit_length() - l_min)).bit_count()


def _split_settled(k: int, head: tuple[int, ...], head_mask: int, rs: list[int], s: int,
                   right_r: int, l_min: int) -> bool:
    """Whether the walk's masks of a theorem 1 head with split position
    s show, by the split lemma's inclusion-exclusion, that every set of
    the head with a top l >= l_min passes ``structure.split_at``'s two
    identities.  The right half's mask is the head's from lo = a_{s-1}
    up, so with ``right_r`` inside the head's restricted mask each top's
    right_l = ``right_r | (head_mask >> lo << lo) << l`` lies inside the
    set's.  For s <= k-3 the left half's restricted mask ``rs[s+1]``
    must lie inside the head's too, meet ``right_r`` in the three shared
    sums and have no bit from lo + l_min up, where every top's sums with
    the right half lie: it then meets every right_l in the three shared
    sums, and |2^A| >= |2^left| + |2^right| - 3.  At s = k-2 ``right_r``
    must be the shared sum lo + a_{k-2} and the head's bits from lo up
    those of lo and a_{k-2}: each right_l is then the three shared sums,
    the overlap with the whole set, and |2^right| = 3."""
    r_head = rs[-1]
    if right_r & ~r_head:
        return False
    lo, hi = head[s - 1], head[s]
    if s == k - 2:
        return right_r == 1 << lo + hi and head_mask >> lo == 1 | 1 << hi - lo
    c, left_r = head[s + 1], rs[s + 1]
    return (not left_r & ~r_head and not left_r >> lo + l_min
            and left_r & right_r == 1 << lo + hi | 1 << lo + c | 1 << hi + c)


def _low_second_row(
    k: int, tops: tuple[int, ...], walked: tuple[int, ...], constraints: tuple[str, ...]
) -> list[dict]:
    """The findings of the theorem 1 cells (k, l), l in tops: the 3k-7
    floor on every set, from the row walk's floor step, as
    :func:`_dense_row` words it (``bound``, ``below``, ``at``), and
    split_at's two identities on every set with a split position.  The
    head walk carries the split position s down with the right half's
    restricted mask without the top, and every head with one counts in
    ``splits`` at every walked top.  ``_split_settled`` settles the
    split of all a head's tops at once from the walk's masks, by facts
    about masks, not theorems about sets; on a correct walk it settles
    every head.  Each set of a head it leaves goes to ``split_at``
    (:func:`_split_failure`), whose message ``bad`` records."""
    bad: dict[int, list[str]] = {l: [] for l in tops}
    split_heads = 0
    l_min = min(walked, default=0)

    def check(head: tuple[int, ...], head_mask: int, rs: list[int],
              s: Optional[int], right_r: int) -> None:
        nonlocal split_heads
        if s is None:
            return
        split_heads += 1
        if not _split_settled(k, head, head_mask, rs, s, right_r, l_min):
            for l in walked:
                bad[l].append(_split_failure(head + (l,), s))

    below, at = _walk_row(k, walked, constraints, check)
    return [{"bound": 3 * k - 7, "below": below.get(l, []), "at": at.get(l, []),
             "splits": split_heads if l in walked else 0, "bad": bad[l]} for l in tops]


def _split_failure(tup: tuple[int, ...], s: int) -> str:
    """The entry of a theorem 1 set whose split the row did not settle:
    ``split_at``'s message, the one source of the identities and their
    wording.  Raises AssertionError if ``split_at`` passes the set, as
    then the row and ``split_at`` disagree."""
    from .structure import split_at

    try:
        # a leaf of a gcd_one walk: normalized without re-validation
        split_at(NormalizedSet._from_trusted(tup, mask_of(tup)), s)
    except RuntimeError as exc:
        return f"{format_set_literal(tup)}: {exc}"
    raise AssertionError(
        f"the theorem 1 row fails the split of {format_set_literal(tup)} at s={s}, "
        f"which split_at passes"
    )


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
    rows, top_cap = _detached_top_rows(k_min, k_max, cap)
    results, counts, notes = _sweep(
        [(_low_second_row, _LOW_SECOND, k, tops) for k, tops in rows], budget, jobs
    )
    query = {
        "k_min": k_min,
        "k_max": k_max,
        "l_min_rule": "2k-2",
        "cap": cap,
        "constraints": list(_LOW_SECOND),
        "budget": budget,
    }
    counts["extremal"] = sum(len(r["at"]) for r in results)
    counts["splits_validated"] = sum(r["splits"] for r in results)
    return Certificate(
        "low_second_max_floor", query,
        counterexamples=[_below_floor(tup, n, r["bound"]) for r in results
                         for tup, n in r["below"]] + [b for r in results for b in r["bad"]],
        observations=notes, counts=counts, cap=top_cap, wall_time_ms=_ms_since(t0),
    )


# ---------------------------------------------------------------------------
# Slow interior growth: floor, equality classification, rigid shape


def _dense_row(
    k: int, tops: tuple[int, ...], walked: tuple[int, ...], constraints: tuple[str, ...]
) -> list[dict]:
    """The findings of the theorem 2 cells (k, l), l in tops, as
    :func:`_floor_cells` words them: the floor ``bound``, 3k-7 at every
    detached top, ``below``, the (tuple, restricted size) pairs of the
    sets under it, and ``at``, the tuples of the sets on it, in stream
    order.  The row walk's floor step finds them, and with no check the
    walk cuts a prefix once no head below it can give a set within the
    floor."""
    below, at = _walk_row(k, walked, constraints)
    return [{"bound": 3 * k - 7, "below": below.get(l, []), "at": at.get(l, [])} for l in tops]


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
    from .families import dense_extremal_shape, gen_mod3_wide

    t0 = time.monotonic()
    rows, top_cap = _detached_top_rows(k_min, k_max, cap)
    results, counts, observations = _sweep(
        [(_dense_row, _DENSE, k, tops) for k, tops in rows], budget, jobs
    )
    counterexamples: list[str] = []
    missing: list[str] = []
    spurious: list[str] = []
    extremal: list[str] = []
    by_k: dict[int, list[tuple[int, str]]] = {}
    for r in results:
        counterexamples += [_below_floor(tup, n, r["bound"]) for tup, n in r["below"]]
        for tup in r["at"]:
            lit = format_set_literal(tup)
            # a leaf set of a gcd_one walk starts at 0, has k >= 2
            # elements and gcd 1: normalized without re-validation
            if not dense_extremal_shape(NormalizedSet._from_trusted(tup, mask_of(tup))):
                counterexamples.append(f"{lit}: equality without the rigid shape")
                observations.append(f"shape mismatch on equality set {lit}")
            by_k.setdefault(r["k"], []).append((r["l"], lit))
    for k in range(k_min, k_max + 1):
        found = {lit for _l, lit in by_k.get(k, [])}
        expected: set[str] = set()
        if k >= 6 and k % 3 in (0, 1):
            expected = {format_set_literal(gen_mod3_wide(k))}
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
    return Certificate(
        "dense_prefix_equality", query, counterexamples=counterexamples,
        observations=observations, missing=missing, spurious=spurious,
        extremal_sets=extremal, counts=counts, cap=top_cap, wall_time_ms=_ms_since(t0),
    )


# ---------------------------------------------------------------------------
# Span 2k-3: classification completeness


def classify_extremal(k: int, l: int, *, budget: int = DEFAULT_BUDGET) -> tuple[NormalizedSet, ...]:
    """All normalized k-sets with span l whose restricted sumset has
    exactly 3k-7 members, in lexicographic order: the findings of one
    gcd-1 span walk at the bound 3k-7 that sit on it, each set built
    with its mask from its tuple.  The cell's query validates k, l and
    the budget, and its plan decides the walk; a span past
    ``MAX_ELEMENT`` is refused, as :class:`NormalizedSet` refuses its
    sets."""
    if k < 4:
        raise SetDomainError(f"classification needs k >= 4, got k={k}")
    if l > MAX_ELEMENT:
        raise SetDomainError(f"element {l} exceeds the supported maximum {MAX_ELEMENT}")
    if _plan(EnumerationQuery.exact(k, l, ("gcd_one",), budget=budget))[0] > budget:
        # not walked: the enumerator raises at the node past the budget
        raise BudgetExceeded(budget + 1)
    # 3k-7 at every span: for l <= 2k-5 the floor cell's bound is lower
    bound = 3 * k - 7
    # findings of a gcd_one walk: normalized without re-validation
    return tuple(NormalizedSet._from_trusted(tup, mask_of(tup))
                 for tup, n in _walk_span(k, l, bound)[0] if n == bound)


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
    from .families import extremal_catalog, flagged_sporadics

    t0 = time.monotonic()
    if not 4 <= k_min <= k_max <= 12:
        raise SetDomainError(
            f"span classification sweeps 4 <= k_min <= k_max <= 12, got [{k_min}, {k_max}]"
        )
    results, counts, observations = _sweep(
        [(_floor_cells, ("gcd_one",), k, (2 * k - 3,)) for k in range(k_min, k_max + 1)],
        budget, jobs,
    )
    counterexamples: list[str] = []
    missing: list[str] = []
    spurious: list[str] = []
    flagged = flagged_sporadics()
    flagged_explained = False
    for r in results:
        k = r["k"]
        counterexamples += [_below_floor(tup, n, r["bound"]) for tup, n in r["below"]]
        found = set(r["at"])
        expected = {s.elements for s in extremal_catalog(k)}
        miss = found - expected
        spur = expected - found
        for f in flagged:
            explained = {tup for tup in miss if set(f.elements) <= set(tup)}
            for tup in explained:
                flagged_explained = True
                observations.append(
                    f"flagged catalog entry {format_set_literal(f)} is a subset of "
                    f"enumerated extremal set {format_set_literal(tup)} at k={k}; treating the "
                    f"entry as that set with one element dropped"
                )
            miss -= explained
        for tup in sorted(miss):
            lit = format_set_literal(tup)
            missing.append(lit)
            counterexamples.append(f"{lit}: extremal at k={k} but not in the catalog")
        # a catalog entry can only be declared non-extremal if its cell was
        # fully enumerated; a truncated cell may simply not have reached it
        for tup in sorted(spur):
            lit = format_set_literal(tup)
            spurious.append(lit)
            if not r["truncated"]:
                counterexamples.append(f"{lit}: cataloged at k={k} but not extremal")
    if flagged and not counts["truncated"] and not flagged_explained:
        for f in flagged:
            observations.append(
                f"flagged catalog entry {format_set_literal(f)} matches no enumerated "
                f"extremal set; recorded as a catalog typo"
            )
    query = {
        "k_min": k_min,
        "k_max": k_max,
        "l_rule": "2k-3",
        "constraints": ["gcd_one"],
        "budget": budget,
    }
    extremal = [format_set_literal(tup) for r in results for tup in r["at"]]
    counts["extremal"] = len(extremal)
    return Certificate(
        "classification_matches_families", query, counterexamples=counterexamples,
        observations=observations, missing=missing, spurious=spurious,
        extremal_sets=extremal, counts=counts, wall_time_ms=_ms_since(t0),
    )


# ---------------------------------------------------------------------------
# Structure sweep: every checker over its qualifying space


def _structure_row(
    k: int, tops: tuple[int, ...], walked: tuple[int, ...], constraints: tuple[str, ...]
) -> list[dict]:
    """The findings of the structure cells (k, l), l in tops, in order.

    Every check reads only k and the head, the set minus its top l, so
    the row walk's check builds each head's context and runs its checks
    once (``structure._head_failures``, on the walk's restricted mask of
    the head), and only the extremal count sees the top: it is the
    number of sets on the 3k-7 floor, from the row walk's floor step.
    The walk cuts no prefix, as every head is checked.
    """
    from .structure import _head_failures

    bad: dict[int, list[str]] = {l: [] for l in tops}

    def check(head: tuple[int, ...], head_mask: int, rs: list[int],
              _s: Optional[int], _right_r: int) -> None:
        fails = _head_failures(head, head_mask, rs[-1])
        if fails:
            for l in walked:
                lit = format_set_literal(head + (l,))
                bad[l].extend(f"{lit}: {msg}" for msg in fails)

    _below, at = _walk_row(k, walked, constraints, check)
    return [{"extremal": len(at.get(l, [])), "bad": bad[l]} for l in tops]


def _witness_cell(
    k: int, tops: tuple[int, ...], walked: tuple[int, ...], constraints: tuple[str, ...]
) -> list[dict]:
    """The findings of the witness cell (k, l), l its task's one top: at
    most two witnesses, and the grid-orbit reconstruction of every
    two-witness set, with the residue laws at span 2k-3.  The cell is
    the gcd-1 cell, which its task plans under ``constraints`` =
    ``gcd_one``, and the span walk walks it.

    A set with fewer than two witnesses gives neither a finding nor a
    pair, so the span walk cuts every prefix with fewer than two
    candidates (its witness prune) and returns only the sets with two or
    more.  A candidate must obey the gap law: a witness with j elements
    below it lies in [2j-2, l-2k+2j+2], as the pairs {a, w-a} below it
    and {x, w+l-x} above it each hold at most one element.  The window
    is empty for l <= 2k-5, so there the walk returns no finding without
    walking the cell; at l = 2k-4 it is the one value 2j-2.  The loop
    reads each set's witnesses and restricted size off the set's own
    context (``core._set_masks``), as ``witness_profile`` does: one
    sweep of the set, independent of the walk, which ``decompose`` then
    reads too, as it is cached on the set.  So the walk's claim is
    checked: a set without exactly two witnesses is ``bad``."""
    from .structure import _witness_mask, decompose

    (l,) = tops
    extremal = pairs = 0
    bad: list[str] = []
    notes: list[str] = []
    for tup, _n in (_walk_span(k, l, 2 * l, prune_witnesses=True)[0] if walked else []):
        lit = format_set_literal(tup)
        # a finding of a gcd_one walk: normalized without re-validation
        ns = NormalizedSet._from_trusted(tup, mask_of(tup))
        r = _set_masks(ns)[1]
        wits = elements_of(_witness_mask(ns._mask, r, l))
        if len(wits) != 2:
            bad.append(f"{lit}: {len(wits)} witnesses {format_set_literal(wits)}")
            continue
        pairs += 1
        extremal += r.bit_count() == 3 * k - 7
        w1, w2 = wits
        try:
            dec = decompose(ns, w1, w2)
        except SetDomainError as exc:
            notes.append(f"k={k} l={l}: {lit} not decomposed ({exc})")
            continue
        if not dec.reconstructed:
            bad.append(f"{lit}: decomposition does not rebuild the set")
        if l == 2 * k - 3:
            m = dec.modulus
            u_set = set(dec.residues.elements)
            if len(u_set) != (m - 1) // 2:
                bad.append(f"{lit}: residue count {len(u_set)} != (m-1)/2 for m={m}")
            # u1 + u2 = w2 mod m gives each u1 its one partner u2
            for u1 in range(m):
                u2 = (w2 - u1) % m
                if u1 < u2 and (u1 in u_set) + (u2 in u_set) != 1:
                    bad.append(f"{lit}: residue pair ({u1},{u2}) not split by the half-grid")
    return [{"extremal": extremal, "pairs": pairs, "bad": bad, "notes": notes}]


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
    rows, top_cap = _detached_top_rows(k_min, k_max, cap)
    results, counts, notes = _sweep(
        [(_structure_row, _DENSE, k, tops) for k, tops in rows]
        + [(_witness_cell, ("gcd_one",), k, (l,)) for k in range(max(8, k_min), k_max + 1)
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
    return Certificate(
        "structure_sweep", query,
        counterexamples=[f"k={r['k']} l={r['l']}: {b}" for r in results for b in r["bad"]],
        observations=notes + [note for r in results for note in r.get("notes", [])],
        counts=counts, cap=top_cap, wall_time_ms=_ms_since(t0),
    )
