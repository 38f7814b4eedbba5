"""Structural analysis of normalized sets near the tight restricted bounds.

Two regimes are covered.

The *detached-top* regime concerns a normalized set A whose elements
below the top grow slowly (``a_i < 2i`` for every interior index) while
the top is detached (``a_{k-1} >= 2k - 2``).  Write A' for A minus its
top.  The central object is the exceptional set B: the values in
``[1, 2k-4]`` that the restricted sumset of A' misses.  Its members are
written ``b_1 < ... < b_m``.  The checkers below verify the rigid
structure that ties A' to B: parity and membership of each b, prefix
pair counts, doubling growth of B, forbidden small gaps above
``2k - 4``, density of covered offsets, and the exact shapes forced
when the two values just above the covered window are both missing.
They read only A', through one head context (``_context``) that the
first public checker called on a set builds from the set's own context
(``core._set_masks``) and caches on the set, and the sweep once per
head (``_head_failures``).

The *witness* regime concerns any normalized set: a witness is a value
``w <= a_{k-1}`` outside A such that neither ``w`` nor ``w + a_{k-1}``
is a restricted sum.  Sets with two witnesses decompose into a modular
grid plus geometric orbits, reconstructed here explicitly.  Every
witness obeys the gap law: with l = a_{k-1} and j elements of A below
it, ``2j - 2 <= w <= l - 2k + 2j + 2``.  Below w, 0 pairs with w and
each other value a with w - a; above w, l pairs with w and each other
value x with w + l - x.  Neither w nor w + l is a restricted sum, so no
pair lies inside A: j <= floor(w/2) + 1 and k - j <= floor((l-w)/2) + 1.
So a set with l <= 2k-5 has no witness, and the witness walk of
``verify`` cuts on the law.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple, Optional

from .core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    _exceptional,
    _set_masks,
    elements_of,
    exceptional_mask,
    has_dense_prefix,
    mask_of,
    require_dense_prefix,
    restricted_mask,
)

# fractions (with decimal and numbers) loads only in offset_count_bound,
# which no library code calls: the sweeps hold the bound in integers
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ExceptionalProfile",
    "GapPatterns",
    "TopGapCandidate",
    "WitnessProfile",
    "Decomposition",
    "SplitTriple",
    "require_dense_prefix",
    "has_dense_prefix",
    "exceptional_profile",
    "check_exceptional_points",
    "exceptional_growth_ok",
    "tail_pair_counts_ok",
    "gap_patterns",
    "matches_consecutive_exception",
    "diff3_exception_case",
    "offset_count_bound",
    "top_gap_structure",
    "top_gap_candidates",
    "witness_profile",
    "decompose",
    "split_at",
    "find_admissible_split",
]


def _trusted_set(elems: tuple[int, ...]) -> IntegerSet:
    """IntegerSet of an ascending tuple of distinct nonnegative values no
    larger than the top of a validated set, so no range re-check is
    needed."""
    return IntegerSet._from_trusted(elems, mask_of(elems))


class ExceptionalProfile(NamedTuple):
    """The exceptional set B of a detached-top set, with its companions.

    ``b_values`` lists the values in [1, 2k-4] missed by the restricted
    sumset of A'.  When B has at least two members, ``d_values`` lists
    the offsets d in [1, b_{m-1}] with 2k-4+d a restricted sum of A'
    (b_{m-1} being the second-largest member of B) and ``c_values`` the
    complementary offsets; both are empty otherwise.
    """

    b_values: IntegerSet
    m: int
    d_values: IntegerSet
    c_values: IntegerSet


class _Head(NamedTuple):
    """The head A' of a detached-top k-set (the set minus its top) with
    what the checkers read of it: its bit mask, its restricted mask and
    the exceptional values B, ascending.  The checks are bit tests on the
    two masks."""

    k: int
    mask: int
    reach: int
    b_vals: tuple[int, ...]


def _context(a: NormalizedSet) -> _Head:
    """The head context of ``a``, once ``a`` is checked to be in the regime.

    It is built on first use from the set's context (``core._set_masks``
    for the head's restricted mask, ``core._exceptional`` for B, which
    ``core.profile`` shares), and cached on the set, so the public
    checkers called on one set share one head context and one sweep."""
    h = a._head
    if h is None:
        require_dense_prefix(a)
        elems = a._elements
        h = a._head = _Head(len(elems), a._mask ^ 1 << elems[-1], _set_masks(a)[2],
                            _exceptional(a)._elements)
    return h


def exceptional_profile(a: NormalizedSet) -> ExceptionalProfile:
    """Compute B and, when |B| >= 2, the covered/missed offset split."""
    k, _mask, reach, b_vals = _context(a)
    m = len(b_vals)
    d_mask = c_mask = 0
    if m >= 2:
        # offsets d in [1, b_{m-1}], bit d standing for the sum 2k-4+d
        offsets = (1 << b_vals[-2] + 1) - 2
        above = reach >> (2 * k - 4)
        d_mask, c_mask = above & offsets, ~above & offsets
    return ExceptionalProfile(
        b_values=IntegerSet._from_trusted(b_vals, exceptional_mask(reach, k)),
        m=m,
        d_values=IntegerSet.from_mask(d_mask),
        c_values=IntegerSet.from_mask(c_mask),
    )


def _one_of_each_pair(mask: int, lo: int, s: int) -> bool:
    """Whether ``mask`` holds exactly one of i and s - i for every i in
    [lo, s/2] (s/2 itself when s is even): the window [lo, s - lo] of the
    mask, against its own reversal, covers the window and meets it at
    most in s/2."""
    width = s - 2 * lo + 1
    full = (1 << width) - 1
    window = mask >> lo & full
    mirror = int(f"{window:0{width}b}"[::-1], 2)
    return window | mirror == full and window & mirror == (0 if s % 2 else 1 << s // 2 - lo)


def check_exceptional_points(a: NormalizedSet) -> list[str]:
    """Check the pointwise structure forced at every member of B.

    For each b in B the following must hold: b is even and not in A',
    its half is in A', exactly half of [0, b] lies in A' (one of each
    pair {i, b-i}), and when b < 2k-4 the next value b+1 is in A' and
    sits at position b/2 + 1.  Returns a list of violation strings,
    empty when the structure holds.
    """
    return _points(_context(a))


def _points(h: _Head) -> list[str]:
    k, mask, _reach, b_vals = h
    out: list[str] = []
    for b in b_vals:
        half = b // 2
        if b % 2:
            out.append(f"b={b}: odd")
        if mask >> b & 1:
            out.append(f"b={b}: lies in the head set")
        if not mask >> half & 1:
            out.append(f"b={b}: half {half} missing from the head set")
        # the head's members in [0, b]: b+1 sits at position b/2 + 1
        # exactly when it is a member and b/2 + 1 of them lie below it
        prefix = (mask & (2 << b) - 1).bit_count()
        if prefix != half + 1:
            out.append(f"b={b}: prefix count {prefix} != {half + 1}")
        if not _one_of_each_pair(mask, 0, b):
            for i in range(half + 1):
                hits = (mask >> i & 1) + (i != b - i and mask >> b - i & 1)
                if hits != 1:
                    out.append(f"b={b}: pair ({i},{b - i}) hit count {hits} != 1")
        if b < 2 * k - 4 and not (mask >> b + 1 & 1 and prefix == half + 1):
            out.append(f"b={b}: successor {b + 1} not at position {half + 1}")
    return out


def exceptional_growth_ok(a: NormalizedSet) -> bool:
    """Whether the members of B at least double-plus-two at every step.

    The check runs over (0, b_1, ..., b_m), so it also enforces
    b_1 >= 2 for the first member.
    """
    return _growth_ok(_context(a))


def _growth_ok(h: _Head) -> bool:
    prev = 0
    for b in h.b_vals:
        if b < 2 * prev + 2:
            return False
        prev = b
    return True


def tail_pair_counts_ok(a: NormalizedSet, b: int, u: int) -> Optional[bool]:
    """Pair counts above a small exceptional value b.

    Applies when b is in B, b < k - 2 and 1 <= u <= b: if 2k-4+u is not
    a restricted sum of A', then [b+1, 2k-5+u-b] holds exactly
    k-2+floor(u/2)-b elements of A', one from each pair {i, 2k-4+u-i}.
    Returns None when (b, u) is outside those hypotheses, True/False
    for the verdict otherwise (vacuously True when 2k-4+u is covered).
    """
    return _tail_ok(_context(a), b, u)


def _tail_ok(h: _Head, b: int, u: int) -> Optional[bool]:
    # one of each pair {i, s-i} over [b+1, s-b-1] puts the count of
    # head elements there right too, so the pair test decides alone
    k, mask, reach, b_vals = h
    if b not in b_vals or not b < k - 2 or not 1 <= u <= b:
        return None
    s = 2 * k - 4 + u
    return bool(reach >> s & 1) or _one_of_each_pair(mask, b + 1, s)


class GapPatterns(NamedTuple):
    """Small gaps among the missing values just above the covered window.

    ``missing`` holds the values in ``window = [2k-3, 2k-4+b_{m-1}]``
    that are not restricted sums of A'; the flags report whether two of
    them sit at distance 1, 2, or 3.
    """

    window: tuple[int, int]
    missing: IntegerSet
    has_consecutive: bool
    has_diff2: bool
    has_diff3: bool


def gap_patterns(a: NormalizedSet) -> GapPatterns:
    """Scan the window above 2k-4 for close pairs of missing values."""
    k, _mask, reach, b_vals = _context(a)
    if len(b_vals) < 2:
        raise SetDomainError("gap patterns need at least two exceptional values")
    lo = 2 * k - 3
    rel = ~reach >> lo & (1 << b_vals[-2]) - 1
    return GapPatterns(
        window=(lo, lo - 1 + b_vals[-2]),
        missing=IntegerSet.from_mask(rel << lo),
        has_consecutive=bool(rel & rel >> 1),
        has_diff2=bool(rel & rel >> 2),
        has_diff3=bool(rel & rel >> 3),
    )


def matches_consecutive_exception(a: NormalizedSet) -> bool:
    """The unique low shape that permits consecutive missing values.

    Requires exactly two exceptional values b_1 < b_2 with the prefix
    of A' up to b_2 equal to [0, b_1/2] followed by [b_1+1, 3b_1/2+1].
    """
    return _consecutive(_context(a))


def _consecutive(h: _Head) -> bool:
    if len(h.b_vals) != 2:
        return False
    b1, b2 = h.b_vals
    return not b1 % 2 and h.mask & (2 << b2) - 1 == (
        (1 << b1 // 2 + 1) - 1 | (1 << 3 * b1 // 2 + 2) - (1 << b1 + 1))


def _thirds(start: int, lo: int, hi: int) -> int:
    """The mask of {3i + start : lo <= i <= hi}."""
    return ((1 << 3 * max(hi - lo + 1, 0)) - 1) // 7 << 3 * lo + start


def diff3_exception_case(a: NormalizedSet) -> Optional[int]:
    """Which of the six distance-3 exceptional shapes ``a`` matches.

    Distance-3 pairs of missing values above 2k-4 are only possible
    when B has exactly three members, the first is 2, and the prefix of
    A' up to b_3 follows one of six explicit mod-3 interval unions
    parameterized by t = b_2.  Returns the 1-based index of the first
    matching shape, or None.
    """
    return _diff3_case(_context(a))


def _diff3_case(h: _Head) -> Optional[int]:
    b_vals = h.b_vals
    if len(b_vals) != 3 or b_vals[0] != 2:
        return None
    t, b3 = b_vals[1], b_vals[2]
    # each shape as masks of {3i + r} with the exact rational bounds
    # floored, and ceiled where they start a class
    shapes = [
        (t % 3 == 2, _thirds(0, 0, (2 * t + 2) // 3) | _thirds(1, 0, (t - 2) // 6)
         | _thirds(1, (t + 3) // 3, t // 2)),
        (t % 3 == 0, _thirds(0, 0, t // 6) | _thirds(1, 0, t // 2) | _thirds(t + 2, 0, t // 3)),
        (t % 3 == 2, _thirds(0, 0, t // 2 + 1) | _thirds(1, 0, (t - 2) // 6)
         | _thirds(t + 3, 0, (t + 1) // 3)),
        (t % 3 == 1, _thirds(0, 0, (t + 2) // 6) | _thirds(t + 3, 0, (t + 2) // 3)
         | _thirds(2, 0, t // 2)),
        (t % 3 == 0, _thirds(0, 0, t // 6) | _thirds(0, (t + 5) // 3, t // 2 + 1)
         | _thirds(1, 0, 2 * t // 3 + 1)),
        (t % 3 == 2, _thirds(0, 0, (2 * t + 5) // 3) | _thirds(2, 0, (t - 2) // 6)
         | _thirds(2, (t + 3) // 3, t // 2)),
    ]
    actual = h.mask & (2 << b3) - 1
    return next((i for i, (applies, shape) in enumerate(shapes, 1)
                 if applies and shape == actual), None)


def offset_count_bound(top_b: int) -> Fraction:
    """Floor for the number of covered offsets: b/2 + floor(b/4)."""
    from fractions import Fraction

    return Fraction(top_b, 2) + top_b // 4


class TopGapCandidate(NamedTuple):
    """One rigid shape admitting a double gap just above the covered window."""

    name: str
    head: tuple[int, ...]
    b_values: tuple[int, int]


def top_gap_candidates(k: int) -> tuple[TopGapCandidate, ...]:
    """The head shapes that force both 2k-3+b_{m-1} and 2k-2+b_{m-1}
    to be missing.  Which shapes exist depends on k mod 2 and k mod 3."""
    if k < 3:
        raise SetDomainError(f"top-gap candidates need k >= 3, got k={k}")
    out = []
    if k % 2 == 1:
        head = tuple(range(0, (k - 3) // 2 + 1)) + tuple(
            range(k - 2, (3 * (k - 3)) // 2 + 2)
        )
        out.append(TopGapCandidate("two_blocks_odd", head, (k - 3, 2 * k - 4)))
    if k % 3 == 0:
        head = (
            tuple(range(0, (k - 3) // 3 + 1))
            + tuple(range((2 * k - 3) // 3, k - 1))
            + tuple(range((4 * k - 6) // 3, (5 * k - 12) // 3 + 1))
        )
        out.append(TopGapCandidate("three_blocks_mod0", head, ((2 * k - 6) // 3, 2 * k - 4)))
    if k % 3 == 1:
        head = (
            tuple(range(0, (k - 4) // 3 + 1))
            + tuple(range((2 * k - 5) // 3, k - 2))
            + tuple(range((4 * k - 7) // 3, (5 * k - 11) // 3 + 1))
        )
        out.append(
            TopGapCandidate("three_blocks_mod1", head, ((2 * k - 8) // 3, (4 * k - 10) // 3))
        )
    return tuple(out)


def top_gap_structure(a: NormalizedSet) -> tuple[bool, str]:
    """Whether both values just above the covered window are missing,
    and which rigid shape explains it.

    Returns ``(False, "none")`` when at least one of 2k-3+b_{m-1},
    2k-2+b_{m-1} is a restricted sum of A'; otherwise ``(True, name)``
    with the matching candidate's name, or ``(True, "none")`` when no
    candidate matches (a violation of the characterization).
    """
    gap, shape = _top_gap(_context(a))
    return gap, (shape if gap and shape else "none")


def _top_gap(h: _Head) -> tuple[bool, Optional[str]]:
    """(both values above the covered window missing, the name of the
    candidate the head and B match or None).  At most one matches: their
    b-pairs differ for k >= 4, and at k = 3 start at 0, never in B."""
    k, mask, reach, b_vals = h
    if len(b_vals) < 2:
        raise SetDomainError("top-gap analysis needs at least two exceptional values")
    gap = not reach >> 2 * k - 3 + b_vals[-2] & 3
    if len(b_vals) != 2:
        return gap, None
    shape = next((c.name for c in top_gap_candidates(k)
                  if b_vals == c.b_values and mask == mask_of(c.head)), None)
    return gap, shape


def _head_failures(head: tuple[int, ...], head_mask: int, reach: int) -> tuple[str, ...]:
    """Every detached-top check on a head in the regime, given its mask
    ``head_mask`` and restricted mask ``reach``: the violations, empty
    when the head has the structure.  The checks read only the head, so
    this holds for every top it takes.

    A head whose B is empty passes every check at once: every check
    ranges over B or needs two members of it.

    The checks are the public checkers' bit tests on the two masks, run
    on one head context; ``head`` gives only k.  The gap flags and the
    covered offsets come from ``reach`` as ``gap_patterns`` and
    ``exceptional_profile`` take them, without unpacking a set: the
    offsets are counted by popcount and held to ``offset_count_bound``
    in integers.  The head's sumset is not checked to cover [0, 2k-4]:
    no head in the regime misses a value there (see below)."""
    k = len(head) + 1
    b_mask = exceptional_mask(reach, k)
    if not b_mask:
        return ()
    h = _Head(k, head_mask, reach, elements_of(b_mask))
    b_vals = h.b_vals
    # the head's sumset covers [0, 2k-4] by pigeonhole: with a_i <= 2i-1,
    # each x <= 2k-4 has a_0..a_j in [0, x], j = floor((x+1)/2) <= k-2,
    # so j + 1 head elements, more than (x+1)/2, fall on the j pairs
    # {a, x-a} with a != x-a and on x/2: some a and x-a both lie in the head
    fails = _points(h)
    if not _growth_ok(h):
        fails.append("exceptional values grow too slowly")
    for b in b_vals:
        # vacuous unless some 2k-4+u, 1 <= u <= b, is missing
        if b < k - 2 and ~reach >> 2 * k - 4 & (2 << b) - 2:
            for u in range(1, b + 1):
                if not _tail_ok(h, b, u):
                    fails.append(f"tail pair counts fail at b={b}, u={u}")
    if len(b_vals) >= 2:
        top_b = b_vals[-2]
        # the missing values of gap_patterns' window, from 2k-3 up
        rel = ~reach >> 2 * k - 3 & (1 << top_b) - 1
        consec_exc = _consecutive(h)
        diff3_case = _diff3_case(h)
        if rel & rel >> 1 and not consec_exc:
            fails.append("consecutive missing pair without the low shape")
        if rel & rel >> 2:
            fails.append("distance-2 missing pair")
        if rel & rel >> 3 and diff3_case is None:
            fails.append("distance-3 missing pair without a mod-3 shape")
        if not consec_exc and diff3_case is None:
            covered = (reach >> 2 * k - 4 & (2 << top_b) - 2).bit_count()
            if 2 * covered < top_b + 2 * (top_b // 4):
                fails.append(f"covered offsets {covered} below the floor for b={top_b}")
        gap, shape = _top_gap(h)
        if gap and shape is None:
            fails.append("double gap above the window without a rigid shape")
        if shape is not None and not gap:
            fails.append(f"rigid shape {shape} without the double gap")
    return tuple(fails)


class WitnessProfile(NamedTuple):
    """The witnesses of a normalized set.

    A witness is a value w in [0, a_{k-1}] outside A such that neither
    w nor w + a_{k-1} is a sum of two distinct elements of A.  When
    exactly two witnesses w1 < w2 exist, ``modulus`` is
    gcd(w2 - w1, a_{k-1}).

    Each witness w with j elements of A below it lies in [2j - 2,
    a_{k-1} - 2k + 2j + 2] (the gap law of the module docstring): the
    pairs {a, w - a} below w and {x, w + a_{k-1} - x} above it each
    hold at most one element of A.  So ``values`` is empty whenever
    a_{k-1} <= 2k - 5.
    """

    values: IntegerSet
    w1: Optional[int]
    w2: Optional[int]
    modulus: Optional[int]


def _witness_mask(mask: int, r: int, l: int) -> int:
    """The mask of the witnesses of a set with top l, bit mask ``mask``
    and restricted mask ``r``: the values in [0, l] that are neither in
    the set nor a restricted sum, and whose sum with l is none either."""
    return ~(mask | r | r >> l) & (2 << l) - 1


def witness_profile(a: NormalizedSet) -> WitnessProfile:
    """Collect all witnesses of ``a``."""
    top = a._elements[-1]
    found = IntegerSet.from_mask(_witness_mask(a._mask, _set_masks(a)[1], top))
    w1 = w2 = modulus = None
    if len(found._elements) == 2:
        w1, w2 = found._elements
        modulus = gcd(w2 - w1, top)
    return WitnessProfile(found, w1, w2, modulus)


class Decomposition(NamedTuple):
    """Grid-plus-orbit decomposition of a two-witness set.

    With witnesses w1 < w2, top l and modulus m = gcd(w2 - w1, l):
    ``seeds`` holds the integral half points of {w2, w2 + l},
    ``grid`` is the multiples of m below l, ``residues`` the elements
    of A below m whose double is not w2 modulo m, and each seed's orbit
    is {v + x(w2 - w1) mod l : 0 <= x <= x_max}, with
    x_max = floor((l - m) / 2m), taken with its wrap counts in
    ``orbit_tables``.  ``reconstructed`` reports whether
    {l}, residues + grid, and the orbits together rebuild A exactly.
    """

    modulus: int
    seeds: tuple[int, ...]
    x_max: int
    grid: IntegerSet
    residues: IntegerSet
    orbits: dict[int, IntegerSet]
    orbit_tables: dict[int, tuple[tuple[int, int], ...]]
    reconstructed: bool


def decompose(a: NormalizedSet, w1: int, w2: int) -> Decomposition:
    """Decompose a two-witness set into grid and orbits.

    ``(w1, w2)`` must be the set's witness pair, ascending.  It is checked
    against the witness mask of the restricted mask in the set's context
    (``core._set_masks``), so no witness profile is built again, and the
    result's sets are built from values known to lie in [0, l].

    The grid, the orbits and the reconstruction are bit masks: since m
    divides l, the grid's mask is the repunit with period m, and the union
    is compared with the set's own mask.  An orbit's residues are
    distinct, because x(w2 - w1) mod l first repeats after l/m > x_max
    steps.
    """
    elems = a._elements
    top = elems[-1]
    if w1 >= w2:
        raise SetDomainError(f"witness pair must be ordered, got ({w1}, {w2})")
    if _witness_mask(a._mask, _set_masks(a)[1], top) != 1 << w1 | 1 << w2:
        raise SetDomainError(
            f"({w1}, {w2}) is not the witness pair of this set"
        )
    m = gcd(w2 - w1, top)
    seeds = tuple(x // 2 for x in (w2, w2 + top) if x % 2 == 0)
    if not seeds:
        raise SetDomainError("the witness pair has no integral half point")
    x_max = (top - m) // (2 * m)
    step = w2 - w1
    orbits: dict[int, IntegerSet] = {}
    tables: dict[int, tuple[tuple[int, int], ...]] = {}
    union = 1 << top
    for v in seeds:
        points = range(v, v + (x_max + 1) * step, step)
        tables[v] = tuple([(x % top, x // top) for x in points])
        orbit = orbits[v] = _trusted_set(tuple(sorted([x % top for x in points])))
        union |= orbit._mask
    residues = _trusted_set(tuple([u for u in elems if u < m and (2 * u - w2) % m != 0]))
    grid = ((1 << top) - 1) // ((1 << m) - 1)
    for u in residues._elements:
        union |= grid << u
    return Decomposition(
        modulus=m,
        seeds=seeds,
        x_max=x_max,
        grid=IntegerSet._from_trusted(tuple(range(0, top, m)), grid),
        residues=residues,
        orbits=orbits,
        orbit_tables=tables,
        reconstructed=union == a._mask,
    )


class SplitTriple(NamedTuple):
    """A set split at a doubled pair into overlapping halves.

    ``left`` holds the first s+2 elements, ``right`` the elements from
    index s-1 up; they share exactly three elements, and their
    restricted sumsets share exactly the three pairwise sums of those
    elements, giving |2^A| >= |2^left| + |2^right| - 3.
    """

    s: int
    left: IntegerSet
    right: IntegerSet
    right_shifted: NormalizedSet
    overlap: IntegerSet
    k1: int
    k2: int
    card_left: int
    card_right: int
    lower_bound: int
    card_restricted: int


def split_at(a: NormalizedSet, s: int) -> SplitTriple:
    """Split ``a`` at position s, where a_{s-1} = 2s-2 and a_s = 2s-1.

    Under that premise any restricted sum of the left part that is also
    a restricted sum of the right part uses only the three shared
    elements, so the overlap of the two restricted sumsets is exactly
    their three pairwise sums.  Both identities are re-verified here
    and a RuntimeError flags any counterexample: the overlap identity,
    and |2^A| >= |2^left| + |2^right| - 3.  When s = k-2 the left half
    is the whole set, and its third shared element a_{s+1} is the top.

    Neither check can fail on a correct computation.  The premise gives
    a_s = a_{s-1} + 1, so every restricted sum of the left part is at
    most a_s + a_{s+1}, and every restricted sum of the right part that
    uses an element past a_{s+1} is at least a_{s-1} + a_{s+2} >=
    a_s + a_{s+1}: the overlap is the three shared sums, and the bound
    is inclusion-exclusion inside 2^A.  The checks therefore test the
    masks that compute the sumsets, not the mathematics.  They stay, as
    part of theorem 1's certified claim and its splits_validated count.
    Once the overlap check has passed, the result's overlap set is built
    from those three sums, ascending since a_{s-1} < a_s < a_{s+1}.
    """
    elems, mask = a._elements, a._mask
    k = len(elems)
    if not 1 <= s <= k - 2:
        raise SetDomainError(f"split position must satisfy 1 <= s <= k-2, got s={s}")
    lo, hi = elems[s - 1], elems[s]
    if lo != 2 * s - 2 or hi != 2 * s - 1:
        raise SetDomainError(
            f"split needs a_{s - 1}={2 * s - 2} and a_{s}={2 * s - 1}, got {lo} and {hi}"
        )
    top = elems[-1]
    r = restricted_mask(mask, elems)
    n_full = r.bit_count()
    left = elems[: s + 2]
    right = elems[s - 1 :]
    c = left[-1]
    left_mask = mask & (2 << c) - 1
    left_restricted = r if s == k - 2 else restricted_mask(left_mask, left)
    # the right half's sums without the top, then the top's sums with
    # them, as the theorem 1 row builds them once per head for all its
    # tops: both read the head part from the same kernel call
    right_head_mask = (mask ^ 1 << top) >> lo << lo
    right_mask = right_head_mask | 1 << top
    right_restricted = restricted_mask(right_head_mask, right[:-1]) | right_head_mask << top
    overlap = left_restricted & right_restricted
    if overlap != 1 << lo + hi | 1 << lo + c | 1 << hi + c:
        raise RuntimeError(
            f"overlap identity failed at s={s} for {elems}: "
            f"the restricted overlaps are not the three shared pairwise sums"
        )
    n_left = left_restricted.bit_count()
    n_right = right_restricted.bit_count()
    lower = n_left + n_right - 3
    if n_full < lower:
        raise RuntimeError(
            f"additive split bound failed at s={s} for {elems}: {n_full} < {lower}"
        )
    shifted = tuple(v - lo for v in right)
    return SplitTriple(
        s=s,
        left=IntegerSet._from_trusted(left, left_mask),
        right=IntegerSet._from_trusted(right, right_mask),
        # starts 0, 1 by the premise a_s = a_{s-1} + 1, so it has gcd 1
        right_shifted=NormalizedSet._from_trusted(shifted, right_mask >> lo),
        overlap=IntegerSet._from_trusted((lo + hi, lo + c, hi + c), overlap),
        k1=len(left),
        k2=len(right),
        card_left=n_left,
        card_right=n_right,
        lower_bound=lower,
        card_restricted=n_full,
    )


def find_admissible_split(a: NormalizedSet) -> Optional[int]:
    """Find the split position for a set with a low second-largest element.

    Requires a_{k-2} < 2k-4 and a_{k-1} >= 2k-2.  If some interior
    index i <= k-3 has a_i >= 2i, the largest such i forces
    a_i = 2i and a_{i+1} = 2i+1 (the next element is squeezed between
    a_i + 1 and the growth ceiling), so s = i+1 is a valid split
    position.  Returns None when every interior element grows slowly,
    in which case the detached-top analysis applies instead.
    """
    elems = a._elements
    k = len(elems)
    if k < 3:
        raise SetDomainError(f"split search needs k >= 3, got k={k}")
    if elems[-1] < 2 * k - 2 or elems[-2] >= 2 * k - 4:
        raise SetDomainError(
            "split search needs a_{k-2} < 2k-4 and a_{k-1} >= 2k-2"
        )
    for i in range(k - 3, 0, -1):
        if elems[i] >= 2 * i:
            return i + 1
    return None

