"""Independent reference computations for checking sumset-lab's outputs.

Nothing here imports the program.  Counts come from Moebius inversion
and from plain ``itertools`` enumeration; sumset sizes from pair loops.
Each function is written for clarity over speed and is run once per
benchmark run, outside every timed region.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from math import comb, gcd


def naive_restricted(elements) -> set[int]:
    """{a + b : a != b in A} by a pair loop."""
    return {a + b for a, b in combinations(sorted(set(elements)), 2)}


def naive_double(elements) -> set[int]:
    """{a + b : a, b in A} by a double loop."""
    e = sorted(set(elements))
    return {a + b for a in e for b in e}


def parse_literal(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.strip().strip("{}").split(","))


def proven_floor_violations(elements) -> list[str]:
    """Proven floors a normalized set must meet, checked on pair sums.

    Freiman's 3k-4 theorem and the doubling floor for the full sumset;
    the Erdos-Heilbronn floor 2k-3 and the halved-span floor for the
    restricted sumset; and the paper's 3k-7 floor under its hypothesis
    a_{k-1} >= 2k-2, a_{k-2} < 2k-4.
    """
    e = sorted(set(elements))
    k, l = len(e), e[-1] - e[0]
    nd, nr = len(naive_double(e)), len(naive_restricted(e))
    out = []
    if nd < 2 * k - 1:
        out.append(f"|2A|={nd} < 2k-1")
    if nd < min(l + k, 3 * k - 3):
        out.append(f"|2A|={nd} < min(l+k, 3k-3)")
    if nr < 2 * k - 3:
        out.append(f"|2^A|={nr} < 2k-3")
    if k >= 3:
        halved_x2 = l + 3 * k - 7 if l <= 2 * k - 3 else 5 * k - 10
        if 2 * nr < halved_x2:
            out.append(f"2|2^A|={2 * nr} < {halved_x2}")
        if e[-1] - e[0] >= 2 * k - 2 and e[-2] - e[0] < 2 * k - 4 and nr < 3 * k - 7:
            out.append(f"|2^A|={nr} < 3k-7 under a_(k-1) >= 2k-2, a_(k-2) < 2k-4")
    return out


def naive_witnesses(elements) -> list[int]:
    """Values w in [0, top] outside A with neither w nor w + top a
    restricted sum."""
    e = sorted(set(elements))
    top = e[-1]
    reach = naive_restricted(e)
    have = set(e)
    return [w for w in range(top + 1)
            if w not in have and w not in reach and w + top not in reach]


def freiman_lev_floor(k: int, l: int) -> int:
    return l + k - 2 if l <= 2 * k - 5 else 3 * k - 7


def bound_verdicts(k: int, l: int, n_double: int, n_restricted: int) -> dict[str, bool]:
    """Whether each bound of sumset-lab's bound report is met, from its
    formula.  The golden-ratio bound ((3k-12) + k*sqrt(5))/2 is compared
    exactly through its square."""
    half = 2 * n_restricted
    out = {
        "doubling": n_double >= 2 * k - 1,
        "freiman": n_double >= (l + k if l <= 2 * k - 3 else 3 * k - 3),
        "halved_span": half >= (l + 3 * k - 7 if l <= 2 * k - 3 else 5 * k - 10),
        "freiman_lev": n_restricted >= freiman_lev_floor(k, l),
    }
    if l <= 2 * k - 5:
        out["golden_ratio"] = n_restricted >= l + k - 2
    else:
        d = half - (3 * k - 12)
        out["golden_ratio"] = d >= 0 and d * d >= 5 * k * k
    if k >= 5 and 2 * k - 4 <= l <= 2 * k - 3:
        out["narrow_window"] = n_restricted >= 3 * k - 7
    return out


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    result, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def gcd_one_count(k: int, l: int) -> int:
    """Normalized k-sets of span exactly l (0 and l present, gcd 1).

    Sets whose elements are all multiples of d are the d-dilates of
    k-sets of span l/d, of which there are C(l/d - 1, k - 2); Moebius
    inversion over the divisors of l keeps the gcd-1 ones.
    """
    return sum(_mobius(d) * comb(l // d - 1, k - 2)
               for d in range(1, l + 1) if l % d == 0)


def _interiors(k: int, hi_of) -> list[tuple[int, ...]]:
    """Ascending (k-2)-tuples from [1, max hi] with a_i <= hi_of(i)."""
    top = max(hi_of(i) for i in range(1, k - 1))
    return [c for c in combinations(range(1, top + 1), k - 2)
            if all(v <= hi_of(i) for i, v in enumerate(c, start=1))]


def _gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def gcd_one_sets(k: int, l: int):
    """All normalized k-sets of span exactly l, by plain enumeration."""
    for c in combinations(range(1, l), k - 2):
        if gcd(_gcd_all(c), l) == 1:
            yield (0,) + c + (l,)


def detached_sets(k: int, cap: int, interior_hi):
    """All normalized k-sets with top in [2k-2, cap], gcd 1, and the
    interior bounded elementwise by ``interior_hi(i)``."""
    inner = [(c, _gcd_all(c)) for c in _interiors(k, interior_hi)]
    for l in range(2 * k - 2, cap + 1):
        for c, g in inner:
            if gcd(g, l) == 1:
                yield (0,) + c + (l,)


def slow_growth(k: int):
    return lambda i: 2 * i - 1


def low_second(k: int):
    return lambda i: 2 * k - 5


# ---------------------------------------------------------------------------
# Expected certificate contents, box by box


def conjecture_expectations(k_max: int, cap: int) -> dict:
    """Set count of the box, and the below-threshold sets (k <= 7) that
    miss the Freiman-Lev floor, found by brute force."""
    enumerated = sum(gcd_one_count(k, l)
                     for k in range(3, k_max + 1) for l in range(k - 1, cap + 1))
    below = set()
    for k in range(3, min(7, k_max) + 1):
        for l in range(k - 1, cap + 1):
            floor = freiman_lev_floor(k, l)
            for e in gcd_one_sets(k, l):
                n = len(naive_restricted(e))
                if n < floor:
                    below.add((e, n, floor))
    return {"enumerated": enumerated, "below": below}


def theorem1_expectations(k_max: int) -> dict:
    """Box of ``certify --theorem 1``: tops in [2k-2, 2k+6], interior
    below 2k-4.  Counts sets, tight sets and sets with a split position."""
    n = tight = splits = 0
    for k in range(3, k_max + 1):
        for e in detached_sets(k, 2 * k + 6, low_second(k)):
            n += 1
            if len(naive_restricted(e)) == 3 * k - 7:
                tight += 1
            if any(e[i] >= 2 * i for i in range(1, k - 2)):
                splits += 1
    return {"enumerated": n, "extremal": tight, "splits_validated": splits}


def theorem2_expectations(k_max: int) -> dict:
    """Box of ``certify --theorem 2``: tops in [2k-2, 2k+6], a_i < 2i.
    Counts sets and lists the equality sets with their tops."""
    n = 0
    equality: dict[int, set[tuple[int, ...]]] = {}
    for k in range(3, k_max + 1):
        for e in detached_sets(k, 2 * k + 6, slow_growth(k)):
            n += 1
            if len(naive_restricted(e)) == 3 * k - 7:
                equality.setdefault(k, set()).add(e)
    return {"enumerated": n, "equality": equality}


def extremal_at_span(k: int) -> set[tuple[int, ...]]:
    """Normalized k-sets of span 2k-3 whose restricted sumset has 3k-7
    members, by brute force."""
    return {e for e in gcd_one_sets(k, 2 * k - 3)
            if len(naive_restricted(e)) == 3 * k - 7}


def theorem3_expectations(k_max: int) -> dict:
    """Box of ``certify --theorem 3``: span exactly 2k-3 for k in
    [4, k_max].  Counts sets and lists the extremal ones."""
    enumerated = sum(gcd_one_count(k, 2 * k - 3) for k in range(4, k_max + 1))
    extremal = set().union(*(extremal_at_span(k) for k in range(4, k_max + 1)))
    return {"enumerated": enumerated, "extremal": extremal}


def lemmas_expectations(k_max: int) -> dict:
    """Box of ``certify --theorem lemmas``: detached-top sets with slow
    growth and tops in [2k-2, 2k+6], plus every gcd-1 set with span in
    [k-1, 2k-3] for k >= 8."""
    dense = sum(1 for k in range(3, k_max + 1)
                for _e in detached_sets(k, 2 * k + 6, slow_growth(k)))
    witness = sum(gcd_one_count(k, l)
                  for k in range(8, k_max + 1) for l in range(k - 1, 2 * k - 2))
    return {"enumerated": dense + witness}


# ---------------------------------------------------------------------------
# Certificate checks


_BELOW = re.compile(r"below-threshold k=(\d+) l=(\d+): (\{[\d,]+\}) has restricted size (\d+) < (\d+)$")
_EQ_TOPS = re.compile(r"k=(\d+): equality occurs at top values \[([\d, ]*)\]$")


def _common(cert: dict, claim: str, problems: list[str]) -> None:
    if cert.get("claim") != claim:
        problems.append(f"claim {cert.get('claim')!r} != {claim!r}")
    if cert.get("outcome") != "verified":
        problems.append(f"outcome {cert.get('outcome')!r}")
    if cert.get("counterexamples"):
        problems.append(f"counterexamples {cert['counterexamples'][:3]}")
    if cert.get("counts", {}).get("truncated") is not False:
        problems.append("truncated sweep")


def _named_sets(cert: dict, problems: list[str]) -> None:
    for lit in cert.get("extremal_sets", []):
        bad = proven_floor_violations(parse_literal(lit))
        if bad:
            problems.append(f"{lit}: {bad}")


def check_certificate(theorem: str, cert: dict, expected: dict) -> list[str]:
    """Problems found in one certificate against its expectations."""
    problems: list[str] = []
    counts = cert.get("counts", {})
    if counts.get("enumerated") != expected["enumerated"]:
        problems.append(f"enumerated {counts.get('enumerated')} != {expected['enumerated']}")
    _named_sets(cert, problems)
    if theorem == "conjecture":
        _common(cert, "freiman_lev_bound", problems)
        seen = set()
        for obs in cert.get("observations", []):
            m = _BELOW.match(obs)
            if not m:
                problems.append(f"unexpected observation {obs!r}")
                continue
            k, l, lit, n, floor = m.groups()
            e = parse_literal(lit)
            k, l, n, floor = int(k), int(l), int(n), int(floor)
            if len(e) != k or e[-1] != l or len(naive_restricted(e)) != n:
                problems.append(f"observation {obs!r} disagrees with pair sums")
            if floor != freiman_lev_floor(k, l) or n >= floor:
                problems.append(f"observation {obs!r} states a wrong floor")
            bad = proven_floor_violations(e)
            if bad:
                problems.append(f"{lit}: {bad}")
            seen.add((e, n, floor))
        if seen != expected["below"]:
            problems.append(f"below-threshold sets {len(seen)} != {len(expected['below'])} "
                            f"found by brute force")
    elif theorem == "1":
        _common(cert, "low_second_max_floor", problems)
        for key in ("extremal", "splits_validated"):
            if counts.get(key) != expected[key]:
                problems.append(f"{key} {counts.get(key)} != {expected[key]}")
    elif theorem == "2":
        _common(cert, "dense_prefix_equality", problems)
        want = {e for sets in expected["equality"].values() for e in sets}
        got = {parse_literal(s) for s in cert.get("extremal_sets", [])}
        if got != want:
            problems.append(f"equality sets {sorted(got)} != {sorted(want)}")
        tops = {k: sorted({e[-1] for e in sets}) for k, sets in expected["equality"].items()}
        for obs in cert.get("observations", []):
            m = _EQ_TOPS.match(obs)
            if m:
                k = int(m.group(1))
                stated = [int(v) for v in m.group(2).split(",") if v.strip()]
                if tops.get(k) != stated:
                    problems.append(f"observation {obs!r} != tops {tops.get(k)}")
    elif theorem == "3":
        _common(cert, "classification_matches_families", problems)
        got = {parse_literal(s) for s in cert.get("extremal_sets", [])}
        if got != expected["extremal"]:
            problems.append(f"extremal sets: {len(got)} != {len(expected['extremal'])} "
                            f"found by brute force")
        if counts.get("extremal") != len(expected["extremal"]):
            problems.append(f"extremal count {counts.get('extremal')}")
    elif theorem == "lemmas":
        _common(cert, "structure_sweep", problems)
        for obs in cert.get("observations", []):
            m = re.search(r"(\{[\d,]+\})", obs)
            if not m or len(naive_witnesses(parse_literal(m.group(1)))) != 2:
                problems.append(f"observation {obs!r} names no two-witness set")
    else:
        problems.append(f"no reference for theorem {theorem!r}")
    return problems


def payload_sans_time(cert: dict) -> dict:
    return {key: value for key, value in cert.items() if key != "wall_time_ms"}
