"""Independent oracles the test suite trusts over the library under test.

Everything here is deliberately naive: quadratic set arithmetic,
exponential bipartition search, high-precision decimal arithmetic.
Expected values frozen into tests were computed with these (or by hand)
before the corresponding library code was exercised.
"""

import sys
from bisect import bisect_right
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd
from pathlib import Path


def naive_double(elements) -> set[int]:
    """{a + b : a, b in A} by double loop."""
    return {a + b for a in elements for b in elements}


def naive_restricted(elements) -> set[int]:
    """{a + b : a != b in A} by pair enumeration."""
    return {a + b for a, b in combinations(sorted(set(elements)), 2)}


def naive_witnesses(elements) -> list[int]:
    """The witnesses of a set with top l = max(A), ascending: the w in
    [0, l] outside A such that neither w nor w + l is a sum of two
    distinct elements of A, by pair enumeration."""
    members = set(elements)
    top = max(members)
    sums = naive_restricted(members)
    return [w for w in range(top + 1)
            if w not in members and w not in sums and w + top not in sums]


def naive_decompose(elements):
    """The grid-plus-orbit decomposition of a normalized two-witness set,
    by Python sets, as the fields of ``structure.Decomposition`` with
    every set an ascending tuple; None when the witness pair has no
    integral half point.

    With witnesses w1 < w2, top l and m = gcd(w2 - w1, l): the seeds are
    the integral halves of w2 and w2 + l, the grid the multiples of m
    below l, the residues the elements below m whose double is not w2
    mod m, and a seed v's orbit table lists (v + x(w2 - w1) mod l, its
    quotient) for 0 <= x <= x_max = floor((l - m) / 2m).  The set is
    reconstructed when {l}, residues + grid and the orbits make it up."""
    members = set(elements)
    top = max(members)
    w1, w2 = naive_witnesses(members)
    m = gcd(w2 - w1, top)
    seeds = tuple(x // 2 for x in (w2, w2 + top) if x % 2 == 0)
    if not seeds:
        return None
    x_max = (top - m) // (2 * m)
    tables = {v: tuple(((v + x * (w2 - w1)) % top, (v + x * (w2 - w1)) // top)
                       for x in range(x_max + 1))
              for v in seeds}
    orbits = {v: {r for r, _q in rows} for v, rows in tables.items()}
    grid = set(range(0, top, m))
    residues = {u for u in members if u < m and (2 * u - w2) % m != 0}
    union = {top} | {u + h for u in residues for h in grid}
    for orbit in orbits.values():
        union |= orbit
    return {
        "modulus": m,
        "seeds": seeds,
        "x_max": x_max,
        "grid": tuple(sorted(grid)),
        "residues": tuple(sorted(residues)),
        "orbits": {v: tuple(sorted(orbit)) for v, orbit in orbits.items()},
        "orbit_tables": tables,
        "reconstructed": union == members,
    }


def is_ap(elements) -> bool:
    e = sorted(elements)
    if len(e) <= 1:
        return True
    d = e[1] - e[0]
    return all(y - x == d for x, y in zip(e, e[1:]))


def _is_d_progression(elements, d: int) -> bool:
    e = sorted(elements)
    if len(e) <= 1:
        return True
    return all(y - x == d for x, y in zip(e, e[1:]))


def brute_two_ap(elements) -> tuple[bool, int | None]:
    """Bipartition oracle: try every 2-coloring of the set and every
    common difference; report the smallest difference that admits a
    split into two progressions (either part may be empty)."""
    e = sorted(set(elements))
    n = len(e)
    span = e[-1] - e[0] if n > 1 else 1
    for d in range(1, span + 1):
        for bits in range(1 << (n - 1)):  # fix e[0] in part 0; halves symmetry
            p0 = [e[0]] + [e[i + 1] for i in range(n - 1) if bits >> i & 1]
            p1 = [e[i + 1] for i in range(n - 1) if not bits >> i & 1]
            if _is_d_progression(p0, d) and _is_d_progression(p1, d):
                return True, d
    return False, None


def golden_leq_oracle(p: int, q: int, n: int) -> bool:
    """(p + q*sqrt(5)) / 2 <= n via 60-digit decimal arithmetic."""
    getcontext().prec = 60
    value = (Decimal(p) + Decimal(q) * Decimal(5).sqrt()) / 2
    return value <= Decimal(n)


def count_normalized_sets(k: int, l: int, need_gcd_one: bool = True) -> int:
    """Count normalized k-sets with span exactly l by raw combinations."""
    total = 0
    for interior in combinations(range(1, l), k - 2):
        if need_gcd_one:
            g = l
            for v in interior:
                g = gcd(g, v)
            if g != 1:
                continue
        total += 1
    return total


def enumerate_bruteforce(k: int, l: int, constraints=()) -> list[tuple[int, ...]]:
    """All normalized k-sets with span exactly l matching the named
    constraints, by unpruned combinations filtering, in lexicographic
    order."""
    cons = set(constraints)
    out = []
    for interior in combinations(range(1, l), k - 2):
        tup = (0,) + interior + (l,)
        if "gcd_one" in cons:
            g = 0
            for v in tup:
                g = gcd(g, v)
            if g != 1:
                continue
        if "growth_a_i_lt_2i" in cons and any(
            tup[i] >= 2 * i for i in range(1, k - 1)
        ):
            continue
        if "interior_lt_2k_minus_4" in cons and any(
            v >= 2 * k - 4 for v in interior
        ):
            continue
        if "last_ge_2k_minus_2" in cons and l < 2 * k - 2:
            continue
        if "last_eq_2k_minus_3" in cons and l != 2 * k - 3:
            continue
        out.append(tup)
    return out


def memo_plan(l: int, caps, need_gcd_one: bool) -> tuple[int, int]:
    """(nodes, sets) of the exact-span cell with top l whose caps are
    ``caps = (last_lo, last_hi, his)``, as ``verify._caps`` reads them:
    a recursion over (position, previous value, gcd of l and the values
    placed so far), memoized, that counts one node per placement of
    a_1 .. a_{k-2} and one leaf node per full placement when the top
    range is not empty.  A set counts when its gcd is 1, or always
    without ``need_gcd_one``."""
    l_lo, l_hi, his = caps
    has_leaf = l_lo <= l_hi
    last = len(his)
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def subtree(pos: int, prev: int, g: int) -> tuple[int, int]:
        key = (pos, prev, g)
        got = memo.get(key)
        if got is None:
            if pos == last:
                got = (1, int(not need_gcd_one or g == 1)) if has_leaf else (0, 0)
            else:
                nodes = sets = 0
                for v in range(prev + 1, his[pos] + 1):
                    n, s = subtree(pos + 1, v, gcd(g, v))
                    nodes += 1 + n
                    sets += s
                got = (nodes, sets)
            memo[key] = got
        return got

    return subtree(1, 0, l)


def benchmark_queries():
    """The module ``perfbench/queries.py``: the seeded analyze queries of
    the set-queries workload and the library pipeline it runs on each."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import queries

    return queries


# three seeds of the set-queries workload
QUERY_SEEDS = (21301, 7, 99)


def query_sets(seed: int) -> list[tuple[int, ...]]:
    """The raw sets of the set-queries workload's analyze queries at ``seed``."""
    return [q[1] for q in benchmark_queries().generate(seed) if q[0] == "analyze"]


# ---------------------------------------------------------------------------
# The detached-top head checks in a tuple-based form: tuples, frozensets
# and a Fraction floor.  Frozen here as the oracle of the bit tests in
# ``structure._head_failures``, which must give the same messages in the
# same order on any restricted mask it is handed.


def frozen_top_gap_candidates(k: int) -> list[tuple[str, tuple[int, ...], tuple[int, int]]]:
    """(name, head, b-pair) of each rigid shape with a double gap above
    the covered window, for k >= 3."""
    out = []
    if k % 2 == 1:
        head = tuple(range(0, (k - 3) // 2 + 1)) + tuple(range(k - 2, (3 * (k - 3)) // 2 + 2))
        out.append(("two_blocks_odd", head, (k - 3, 2 * k - 4)))
    if k % 3 == 0:
        head = (tuple(range(0, (k - 3) // 3 + 1)) + tuple(range((2 * k - 3) // 3, k - 1))
                + tuple(range((4 * k - 6) // 3, (5 * k - 12) // 3 + 1)))
        out.append(("three_blocks_mod0", head, ((2 * k - 6) // 3, 2 * k - 4)))
    if k % 3 == 1:
        head = (tuple(range(0, (k - 4) // 3 + 1)) + tuple(range((2 * k - 5) // 3, k - 2))
                + tuple(range((4 * k - 7) // 3, (5 * k - 11) // 3 + 1)))
        out.append(("three_blocks_mod1", head, ((2 * k - 8) // 3, (4 * k - 10) // 3)))
    return out


def _frozen_mod_class(residue: int, lo, hi) -> set[int]:
    lo_i = ceil(lo) if isinstance(lo, Fraction) else lo
    hi_i = floor(hi) if isinstance(hi, Fraction) else hi
    return {3 * i + residue for i in range(lo_i, hi_i + 1)}


def frozen_diff3_shapes(t: int) -> list[tuple[bool, set[int]]]:
    """(applies, shape) of the six distance-3 shapes at t = b_2."""
    F, mc = Fraction, _frozen_mod_class
    return [
        (t % 3 == 2, mc(0, 0, F(2 * t + 2, 3)) | mc(1, 0, F(t - 2, 6))
         | mc(1, F(t + 1, 3), F(t, 2))),
        (t % 3 == 0, mc(0, 0, F(t, 6)) | mc(1, 0, F(t, 2))
         | {t + 2 + 3 * i for i in range(t // 3 + 1)}),
        (t % 3 == 2, mc(0, 0, F(t, 2) + 1) | mc(1, 0, F(t - 2, 6))
         | {t + 3 + 3 * i for i in range((t + 1) // 3 + 1)}),
        (t % 3 == 1, mc(0, 0, F(t + 2, 6))
         | {t + 3 + 3 * i for i in range((t + 2) // 3 + 1)} | mc(2, 0, F(t, 2))),
        (t % 3 == 0, mc(0, 0, F(t, 6)) | mc(0, F(t, 3) + 1, F(t, 2) + 1)
         | mc(1, 0, F(2 * t, 3) + 1)),
        (t % 3 == 2, mc(0, 0, F(2 * t + 5, 3)) | mc(2, 0, F(t - 2, 6))
         | mc(2, F(t + 1, 3), F(t, 2))),
    ]


def frozen_diff3_case(head, b_vals):
    """The 1-based index of the first distance-3 shape that the head's
    members up to b_3 match, for B = (2, t, b_3); None otherwise."""
    if len(b_vals) != 3 or b_vals[0] != 2:
        return None
    actual = {v for v in head if v <= b_vals[2]}
    return next((idx for idx, (applies, shape) in enumerate(frozen_diff3_shapes(b_vals[1]), 1)
                 if applies and shape == actual), None)


def frozen_head_failures(head: tuple[int, ...], reach: int) -> tuple[str, ...]:
    """The messages of the detached-top checks on a head with restricted
    mask ``reach`` (trusted, not recomputed), in the order the structure
    row reports them."""
    k = len(head) + 1
    members = frozenset(head)
    b_vals = tuple(v for v in range(1, 2 * k - 3) if not reach >> v & 1)
    if not b_vals:
        return ()
    fails: list[str] = []
    if not set(range(2 * k - 3)) <= naive_double(head):
        fails.append("head sumset misses part of [0, 2k-4]")
    for b in b_vals:
        if b % 2:
            fails.append(f"b={b}: odd")
        if b in members:
            fails.append(f"b={b}: lies in the head set")
        if b // 2 not in members:
            fails.append(f"b={b}: half {b // 2} missing from the head set")
        prefix = bisect_right(head, b)
        if prefix != b // 2 + 1:
            fails.append(f"b={b}: prefix count {prefix} != {b // 2 + 1}")
        for i in range(0, b // 2 + 1):
            hits = len({i, b - i} & members)
            if hits != 1:
                fails.append(f"b={b}: pair ({i},{b - i}) hit count {hits} != 1")
        if b < 2 * k - 4:
            idx = b // 2 + 1
            if idx >= len(head) or head[idx] != b + 1:
                fails.append(f"b={b}: successor {b + 1} not at position {idx}")
    seq = (0,) + b_vals
    if not all(nxt >= 2 * prev + 2 for prev, nxt in zip(seq, seq[1:])):
        fails.append("exceptional values grow too slowly")
    for b in b_vals:
        for u in range(1, b + 1) if b < k - 2 else ():
            if reach >> (2 * k - 4 + u) & 1:
                continue
            lo, hi = b + 1, 2 * k - 5 + u - b
            ok = sum(1 for v in head if lo <= v <= hi) == k - 2 + u // 2 - b and all(
                len({i, 2 * k - 4 + u - i} & members) == 1
                for i in range(b + 1, k - 2 + u // 2 + 1))
            if not ok:
                fails.append(f"tail pair counts fail at b={b}, u={u}")
    if len(b_vals) >= 2:
        top_b = b_vals[-2]
        missing = [v for v in range(2 * k - 3, 2 * k - 3 + top_b) if not reach >> v & 1]
        diffs = {y - x for x in missing for y in missing if y > x}
        consec_exc = False
        if len(b_vals) == 2 and b_vals[0] % 2 == 0:
            b1, b2 = b_vals
            target = set(range(0, b1 // 2 + 1)) | set(range(b1 + 1, 3 * b1 // 2 + 2))
            consec_exc = {v for v in head if v <= b2} == target
        diff3_case = frozen_diff3_case(head, b_vals)
        if 1 in diffs and not consec_exc:
            fails.append("consecutive missing pair without the low shape")
        if 2 in diffs:
            fails.append("distance-2 missing pair")
        if 3 in diffs and diff3_case is None:
            fails.append("distance-3 missing pair without a mod-3 shape")
        if not consec_exc and diff3_case is None:
            covered = sum(1 for d in range(1, top_b + 1) if reach >> (2 * k - 4 + d) & 1)
            if covered < Fraction(top_b, 2) + top_b // 4:
                fails.append(f"covered offsets {covered} below the floor for b={top_b}")
        gap = not reach >> (2 * k - 3 + top_b) & 1 and not reach >> (2 * k - 2 + top_b) & 1
        shape = None
        if len(b_vals) == 2:
            shape = next((name for name, cand, pair in frozen_top_gap_candidates(k)
                          if head == cand and b_vals == pair), None)
        if gap and shape is None:
            fails.append("double gap above the window without a rigid shape")
        if shape is not None and not gap:
            fails.append(f"rigid shape {shape} without the double gap")
    return tuple(fails)
