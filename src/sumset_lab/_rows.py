"""The head-row walk, and the cells of the row drivers.

Theorems 1 and 2 and the structure sweep cap low or interior positions,
which the span walk's mirror moves, so they run their cells as rows.  A
row's cells stream the same heads (the set minus its top), so its
walked cells share one walk over the heads, :func:`_walk_row`.  The row
walk runs the one 3k-7 floor step of all three drivers: each head
settles all its tops at once when its sums, plus its bits that the
least walked top carries past them, are over 3k-7, a fact about masks
that holds on any mask.  Only a head that bound leaves loops its tops,
each top costing one shift-or and one popcount, with no call per set;
that loop alone records the sets below and on the floor.  A row may
also pass a per-head check for what reads more than the floor.  Every
structural check reads only k and the head, and so do theorem 1's split
position and, below s = k-2, its left half and overlap identity, which
no sum with the top can reach: theorem 1's check finds its split
lemma's inclusion-exclusion in the masks, with the right half read from
the head, and hands a head it cannot settle to ``structure.split_at``,
the one per-set split check.  A row with no check is theorem 2's, and
its head walk also cuts a prefix once the floor bound, plus the head
elements still to come, passes 3k-7.

The structure sweep's witness cells walk the span walk of ``verify``,
and live here because only that sweep runs them.

Only the drivers that run these cells import this module, inside the
function, so a conjecture or theorem 3 process never compiles it.  It
takes the engine pieces it uses from ``verify`` when it loads, which
never imports it at its own load, so there is no import cycle.  A sweep
task names its function here by reference, and a pool worker started
fresh imports this module itself.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .core import (
    NormalizedSet,
    SetDomainError,
    _set_masks,
    elements_of,
    format_set_literal,
    mask_of,
)
from .verify import EnumerationQuery, _caps, _walk_span

# structure loads in the functions that use it, so theorem 1 loads it
# only for a set whose split the row does not settle


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
