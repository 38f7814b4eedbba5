"""Independent oracles the test suite trusts over the library under test.

Everything here is deliberately naive: quadratic set arithmetic,
exponential bipartition search, high-precision decimal arithmetic.
Expected values frozen into tests were computed with these (or by hand)
before the corresponding library code was exercised.
"""

import sys
from decimal import Decimal, getcontext
from itertools import combinations
from math import gcd
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
