"""Structural analysis of normalized sets near the tight restricted bounds.

Two regimes are covered.

The *detached-top* regime concerns a normalized set A whose elements
below the top grow slowly (``a_i < 2i`` for every interior index) while
the top is detached (``a_{k-1} >= 2k - 2``).  Write A' for A minus its
top.  The central object is the exceptional set B: the values in
``[1, 2k-4]`` that the restricted sumset of A' misses.  Its members are
written ``b_1 < ... < b_m``.  The checkers below verify, set by set,
the rigid structure that ties A' to B: parity and membership of each b,
prefix pair counts, doubling growth of B, forbidden small gaps above
``2k - 4``, density of covered offsets, and the exact shapes forced
when the two values just above the covered window are both missing.

The *witness* regime concerns any normalized set: a witness is a value
``w <= a_{k-1}`` outside A such that neither ``w`` nor ``w + a_{k-1}``
is a restricted sum.  Sets with two witnesses decompose into a modular
grid plus geometric orbits, reconstructed here explicitly.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Optional

from .core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    mask_of,
    restricted_mask,
)

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


def has_dense_prefix(a: NormalizedSet) -> bool:
    """Whether a_i < 2i for i = 1..k-2 and a_{k-1} >= 2k - 2."""
    elems = a.elements
    k = len(elems)
    if k < 3:
        return False
    if elems[-1] < 2 * k - 2:
        return False
    return all(elems[i] < 2 * i for i in range(1, k - 1))


def require_dense_prefix(a: NormalizedSet) -> None:
    """Raise unless ``a`` is in the detached-top regime."""
    elems = a.elements
    k = len(elems)
    if k < 3:
        raise SetDomainError(f"detached-top analysis needs k >= 3, got k={k}")
    if elems[-1] < 2 * k - 2:
        raise SetDomainError(
            f"top element {elems[-1]} is not detached (needs >= {2 * k - 2})"
        )
    for i in range(1, k - 1):
        if elems[i] >= 2 * i:
            raise SetDomainError(
                f"interior element a_{i}={elems[i]} breaks the growth bound < {2 * i}"
            )


@dataclass(frozen=True)
class ExceptionalProfile:
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


@functools.lru_cache(maxsize=1)
def _context(a: NormalizedSet) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    """(k, head elements, restricted mask of head, exceptional values).

    Cached for the last set: the checkers run on one set in turn, and
    sets compare by mask."""
    require_dense_prefix(a)
    k = a.k
    head = a.elements[:-1]
    reach = restricted_mask(mask_of(head), head)
    window = ((1 << (2 * k - 3)) - 1) ^ 1
    b_vals = []
    miss = window & ~reach
    while miss:
        low = miss & -miss
        b_vals.append(low.bit_length() - 1)
        miss ^= low
    return k, head, reach, tuple(b_vals)


def exceptional_profile(a: NormalizedSet) -> ExceptionalProfile:
    """Compute B and, when |B| >= 2, the covered/missed offset split."""
    k, _head, reach, b_vals = _context(a)
    m = len(b_vals)
    d_vals: tuple[int, ...] = ()
    c_vals: tuple[int, ...] = ()
    if m >= 2:
        top_b = b_vals[-2]
        d_vals = tuple(
            d for d in range(1, top_b + 1) if reach >> (2 * k - 4 + d) & 1
        )
        c_vals = tuple(d for d in range(1, top_b + 1) if not reach >> (2 * k - 4 + d) & 1)
    return ExceptionalProfile(
        b_values=_trusted_set(b_vals),
        m=m,
        d_values=_trusted_set(d_vals),
        c_values=_trusted_set(c_vals),
    )


def check_exceptional_points(a: NormalizedSet) -> list[str]:
    """Check the pointwise structure forced at every member of B.

    For each b in B the following must hold: b is even and not in A',
    its half is in A', exactly half of [0, b] lies in A' (one of each
    pair {i, b-i}), and when b < 2k-4 the next value b+1 is in A' and
    sits at position b/2 + 1.  Returns a list of violation strings,
    empty when the structure holds.
    """
    k, head, _reach, b_vals = _context(a)
    head_set = set(head)
    out: list[str] = []
    for b in b_vals:
        if b % 2:
            out.append(f"b={b}: odd")
        if b in head_set:
            out.append(f"b={b}: lies in the head set")
        if b // 2 not in head_set:
            out.append(f"b={b}: half {b // 2} missing from the head set")
        prefix = bisect_right(head, b)
        if prefix != b // 2 + 1:
            out.append(f"b={b}: prefix count {prefix} != {b // 2 + 1}")
        for i in range(0, b // 2 + 1):
            hits = len({i, b - i} & head_set)
            if hits != 1:
                out.append(f"b={b}: pair ({i},{b - i}) hit count {hits} != 1")
        if b < 2 * k - 4:
            idx = b // 2 + 1
            if idx >= len(head) or head[idx] != b + 1:
                out.append(f"b={b}: successor {b + 1} not at position {idx}")
    return out


def exceptional_growth_ok(a: NormalizedSet) -> bool:
    """Whether the members of B at least double-plus-two at every step.

    The check runs over (0, b_1, ..., b_m), so it also enforces
    b_1 >= 2 for the first member.
    """
    _k, _head, _reach, b_vals = _context(a)
    seq = (0,) + b_vals
    return all(nxt >= 2 * prev + 2 for prev, nxt in zip(seq, seq[1:]))


def tail_pair_counts_ok(a: NormalizedSet, b: int, u: int) -> Optional[bool]:
    """Pair counts above a small exceptional value b.

    Applies when b is in B, b < k - 2 and 1 <= u <= b: if 2k-4+u is not
    a restricted sum of A', then [b+1, 2k-5+u-b] holds exactly
    k-2+floor(u/2)-b elements of A', one from each pair {i, 2k-4+u-i}.
    Returns None when (b, u) is outside those hypotheses, True/False
    for the verdict otherwise (vacuously True when 2k-4+u is covered).
    """
    k, head, reach, b_vals = _context(a)
    if b not in b_vals or not b < k - 2 or not 1 <= u <= b:
        return None
    if reach >> (2 * k - 4 + u) & 1:
        return True
    head_set = set(head)
    lo, hi = b + 1, 2 * k - 5 + u - b
    count = sum(1 for v in head if lo <= v <= hi)
    if count != k - 2 + u // 2 - b:
        return False
    for i in range(b + 1, k - 2 + u // 2 + 1):
        if len({i, 2 * k - 4 + u - i} & head_set) != 1:
            return False
    return True


@dataclass(frozen=True)
class GapPatterns:
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
    k, _head, reach, b_vals = _context(a)
    if len(b_vals) < 2:
        raise SetDomainError("gap patterns need at least two exceptional values")
    lo = 2 * k - 3
    hi = 2 * k - 4 + b_vals[-2]
    width = hi - lo + 1
    window_mask = ((1 << width) - 1) << lo
    miss = window_mask & ~reach
    rel = miss >> lo
    return GapPatterns(
        window=(lo, hi),
        missing=IntegerSet.from_mask(miss),
        has_consecutive=bool(rel & rel >> 1),
        has_diff2=bool(rel & rel >> 2),
        has_diff3=bool(rel & rel >> 3),
    )


def matches_consecutive_exception(a: NormalizedSet) -> bool:
    """The unique low shape that permits consecutive missing values.

    Requires exactly two exceptional values b_1 < b_2 with the prefix
    of A' up to b_2 equal to [0, b_1/2] followed by [b_1+1, 3b_1/2+1].
    """
    _k, head, _reach, b_vals = _context(a)
    if len(b_vals) != 2:
        return False
    b1, b2 = b_vals
    if b1 % 2:
        return False
    target = set(range(0, b1 // 2 + 1)) | set(range(b1 + 1, 3 * b1 // 2 + 2))
    actual = {v for v in head if v <= b2}
    return actual == target


def _mod_class(residue: int, lo, hi) -> set[int]:
    """{3i + residue : lo <= i <= hi} with exact rational bounds."""
    lo_i = ceil(lo) if isinstance(lo, Fraction) else lo
    hi_i = floor(hi) if isinstance(hi, Fraction) else hi
    return {3 * i + residue for i in range(lo_i, hi_i + 1)}


def diff3_exception_case(a: NormalizedSet) -> Optional[int]:
    """Which of the six distance-3 exceptional shapes ``a`` matches.

    Distance-3 pairs of missing values above 2k-4 are only possible
    when B has exactly three members, the first is 2, and the prefix of
    A' up to b_3 follows one of six explicit mod-3 interval unions
    parameterized by t = b_2.  Returns the 1-based index of the first
    matching shape, or None.
    """
    _k, head, _reach, b_vals = _context(a)
    if len(b_vals) != 3 or b_vals[0] != 2:
        return None
    t = b_vals[1]
    b3 = b_vals[2]
    F = Fraction
    shapes = [
        (
            t % 3 == 2,
            lambda: _mod_class(0, 0, F(2 * t + 2, 3))
            | _mod_class(1, 0, F(t - 2, 6))
            | _mod_class(1, F(t + 1, 3), F(t, 2)),
        ),
        (
            t % 3 == 0,
            lambda: _mod_class(0, 0, F(t, 6))
            | _mod_class(1, 0, F(t, 2))
            | {t + 2 + 3 * i for i in range(t // 3 + 1)},
        ),
        (
            t % 3 == 2,
            lambda: _mod_class(0, 0, F(t, 2) + 1)
            | _mod_class(1, 0, F(t - 2, 6))
            | {t + 3 + 3 * i for i in range((t + 1) // 3 + 1)},
        ),
        (
            t % 3 == 1,
            lambda: _mod_class(0, 0, F(t + 2, 6))
            | {t + 3 + 3 * i for i in range((t + 2) // 3 + 1)}
            | _mod_class(2, 0, F(t, 2)),
        ),
        (
            t % 3 == 0,
            lambda: _mod_class(0, 0, F(t, 6))
            | _mod_class(0, F(t, 3) + 1, F(t, 2) + 1)
            | _mod_class(1, 0, F(2 * t, 3) + 1),
        ),
        (
            t % 3 == 2,
            lambda: _mod_class(0, 0, F(2 * t + 5, 3))
            | _mod_class(2, 0, F(t - 2, 6))
            | _mod_class(2, F(t + 1, 3), F(t, 2)),
        ),
    ]
    actual = {v for v in head if v <= b3}
    for idx, (applies, build) in enumerate(shapes, start=1):
        if applies and build() == actual:
            return idx
    return None


def offset_count_bound(top_b: int) -> Fraction:
    """Floor for the number of covered offsets: b/2 + floor(b/4)."""
    return Fraction(top_b, 2) + top_b // 4


@dataclass(frozen=True)
class TopGapCandidate:
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
    k, head, reach, b_vals = _context(a)
    if len(b_vals) < 2:
        raise SetDomainError("top-gap analysis needs at least two exceptional values")
    top_b = b_vals[-2]
    gap = not (reach >> (2 * k - 3 + top_b) & 1) and not (reach >> (2 * k - 2 + top_b) & 1)
    if not gap:
        return False, "none"
    b_pair = (b_vals[0], b_vals[1]) if len(b_vals) == 2 else None
    for cand in top_gap_candidates(k):
        if head == cand.head and b_pair == cand.b_values:
            return True, cand.name
    return True, "none"


@dataclass(frozen=True)
class WitnessProfile:
    """The witnesses of a normalized set.

    A witness is a value w in [0, a_{k-1}] outside A such that neither
    w nor w + a_{k-1} is a sum of two distinct elements of A.  When
    exactly two witnesses w1 < w2 exist, ``modulus`` is
    gcd(w2 - w1, a_{k-1}).
    """

    values: IntegerSet
    w1: Optional[int]
    w2: Optional[int]
    modulus: Optional[int]


def witness_profile(a: NormalizedSet) -> WitnessProfile:
    """Collect all witnesses of ``a``."""
    top = a.l
    amask = a.mask
    reach = restricted_mask(amask, a.elements)
    blocked = amask | reach | (reach >> top)
    found = tuple(w for w in range(top + 1) if not blocked >> w & 1)
    w1 = w2 = modulus = None
    if len(found) == 2:
        w1, w2 = found
        modulus = gcd(w2 - w1, top)
    return WitnessProfile(_trusted_set(found), w1, w2, modulus)


@dataclass(frozen=True)
class Decomposition:
    """Grid-plus-orbit decomposition of a two-witness set.

    With witnesses w1 < w2, top l and modulus m = gcd(w2 - w1, l):
    ``seeds`` holds the integral half points of {w2, w2 + l},
    ``grid`` is the multiples of m below l, ``residues`` the elements
    of A below m whose double is not w2 modulo m, and each seed's orbit
    is {v + x(w2 - w1) mod l : 0 <= x <= x_max} taken with its
    wrap counts in ``orbit_tables``.  ``reconstructed`` reports whether
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
    """Decompose a two-witness set into grid and orbits."""
    wits = witness_profile(a)
    if w1 >= w2:
        raise SetDomainError(f"witness pair must be ordered, got ({w1}, {w2})")
    if wits.values.mask != mask_of((w1, w2)):
        raise SetDomainError(
            f"({w1}, {w2}) is not the witness pair of this set"
        )
    top = a.l
    m = gcd(w2 - w1, top)
    seeds = tuple(x // 2 for x in (w2, w2 + top) if x % 2 == 0)
    if not seeds:
        raise SetDomainError("the witness pair has no integral half point")
    x_max = (top - m) // (2 * m)
    step = w2 - w1
    orbits: dict[int, IntegerSet] = {}
    tables: dict[int, tuple[tuple[int, int], ...]] = {}
    union = {top}
    for v in seeds:
        rows = []
        for x in range(x_max + 1):
            q, r = divmod(v + x * step, top)
            rows.append((r, q))
        tables[v] = tuple(rows)
        orbit_vals = sorted({r for r, _q in rows})
        orbits[v] = IntegerSet(orbit_vals)
        union.update(orbit_vals)
    residues = tuple(u for u in a.elements if u < m and (2 * u - w2) % m != 0)
    union.update(u + h for u in residues for h in range(0, top, m))
    return Decomposition(
        modulus=m,
        seeds=seeds,
        x_max=x_max,
        grid=IntegerSet(range(0, top, m)),
        residues=IntegerSet(residues),
        orbits=orbits,
        orbit_tables=tables,
        reconstructed=union == set(a.elements),
    )


@dataclass(frozen=True)
class SplitTriple:
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


def _split_head(head: tuple[int, ...], head_mask: int, s: int) -> tuple:
    """The part of the split check at position s that reads only the head.

    ``head`` is the k-set minus its top, ascending, and ``head_mask``
    its bit mask.  Raises SetDomainError unless 1 <= s <= k-2,
    a_{s-1} = 2s-2 and a_s = 2s-1.  Returns what :func:`_split_top`
    needs for every top: the head, s, the left half's mask and
    restricted mask, the right half's mask and restricted mask without
    the top, and the expected overlap as a fixed part and a part shifted
    by the top.  When s = k-2 the left half is the whole set, and its
    third element a_{s+1} is the top: then the left half's mask lacks
    the top, its restricted mask is None, and two of the three shared
    pairwise sums move with the top.
    """
    k = len(head) + 1
    if not 1 <= s <= k - 2:
        raise SetDomainError(f"split position must satisfy 1 <= s <= k-2, got s={s}")
    a, b = head[s - 1], head[s]
    if a != 2 * s - 2 or b != 2 * s - 1:
        raise SetDomainError(
            f"split needs a_{s - 1}={2 * s - 2} and a_{s}={2 * s - 1}, got {a} and {b}"
        )
    # the right half is the elements from a_{s-1}, up to the top
    right_mask = head_mask >> a << a
    right_restricted = restricted_mask(right_mask, head[s - 1 :])
    pair = 1 << a | 1 << b
    if s == k - 2:
        return head, s, head_mask, None, right_mask, right_restricted, 1 << a + b, pair
    # the left half is the elements up to a_{s+1}
    c = head[s + 1]
    left_mask = head_mask & (2 << c) - 1
    left_restricted = restricted_mask(left_mask, head[: s + 2])
    return (head, s, left_mask, left_restricted, right_mask, right_restricted,
            1 << a + b | pair << c, 0)


def _split_top(part: tuple, l: int, r: int, n_full: int) -> tuple[int, int, int, int, int]:
    """Check the split whose head part is ``part`` (from :func:`_split_head`)
    on the set with top l, restricted mask r and |2^A| = n_full, and
    return (left mask, right mask, overlap mask, |2^left|, |2^right|).

    Raises RuntimeError when the overlap of the halves' restricted
    sumsets is not their three shared pairwise sums, or when n_full is
    below |2^left| + |2^right| - 3.
    """
    head, s, left_mask, left_restricted, right_mask, right_restricted, fixed, moving = part
    right_restricted |= right_mask << l
    right_mask |= 1 << l
    if left_restricted is None:
        # s = k-2: the left half is the whole set
        left_mask |= 1 << l
        left_restricted = r
    overlap = left_restricted & right_restricted
    if overlap != fixed | moving << l:
        raise RuntimeError(
            f"overlap identity failed at s={s} for {head + (l,)}: "
            f"the restricted overlaps are not the three shared pairwise sums"
        )
    n_left = left_restricted.bit_count()
    n_right = right_restricted.bit_count()
    lower = n_left + n_right - 3
    if n_full < lower:
        raise RuntimeError(
            f"additive split bound failed at s={s} for {head + (l,)}: {n_full} < {lower}"
        )
    return left_mask, right_mask, overlap, n_left, n_right


def split_at(a: NormalizedSet, s: int) -> SplitTriple:
    """Split ``a`` at position s, where a_{s-1} = 2s-2 and a_s = 2s-1.

    Under that premise any restricted sum of the left part that is also
    a restricted sum of the right part uses only the three shared
    elements, so the overlap of the two restricted sumsets is exactly
    their three pairwise sums.  Both identities are re-verified here
    and a RuntimeError flags any counterexample.
    """
    elems = a.elements
    top = elems[-1]
    r = restricted_mask(a.mask, elems)
    n_full = r.bit_count()
    part = _split_head(elems[:-1], a.mask ^ 1 << top, s)
    left_mask, right_mask, overlap, n_left, n_right = _split_top(part, top, r, n_full)
    left = elems[: s + 2]
    right = elems[s - 1 :]
    shift = elems[s - 1]
    shifted = tuple(v - shift for v in right)
    return SplitTriple(
        s=s,
        left=IntegerSet._from_trusted(left, left_mask),
        right=IntegerSet._from_trusted(right, right_mask),
        # starts 0, 1 by the premise a_s = a_{s-1} + 1, so it has gcd 1
        right_shifted=NormalizedSet._from_trusted(shifted, right_mask >> shift),
        overlap=IntegerSet.from_mask(overlap),
        k1=len(left),
        k2=len(right),
        card_left=n_left,
        card_right=n_right,
        lower_bound=n_left + n_right - 3,
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
    elems = a.elements
    k = len(elems)
    if k < 3:
        raise SetDomainError(f"split search needs k >= 3, got k={k}")
    if elems[-1] < 2 * k - 2 or (k >= 2 and elems[-2] >= 2 * k - 4):
        raise SetDomainError(
            "split search needs a_{k-2} < 2k-4 and a_{k-1} >= 2k-2"
        )
    for i in range(k - 3, 0, -1):
        if elems[i] >= 2 * i:
            return i + 1
    return None
