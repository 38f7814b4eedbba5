"""The set-queries workload: seeded sets and the library calls run on each.

A query is either an ``analyze`` pipeline on one set or, one time in
fifty, a small ``classify_extremal(k, 2k-3)``.  Sets have k in [4, 14]
and span up to 3k.  A third are drawn uniformly, a third have slow
interior growth with a detached top (the regime of the structure
checkers) and a third keep the second-largest element below 2k-4 (the
regime of the split), so every stage of the pipeline does work.  Each
set is then dilated and translated, so that ``normalize`` has something
to undo.

Calls go through the module objects, so that a tracer can patch them.
"""

from __future__ import annotations

import random
from math import gcd

import reference as ref

CLASSIFY_EVERY = 50
ROUND = 2000  # queries per seed; a round runs each of them once


def analyze_set(rng: random.Random) -> tuple[int, ...]:
    k = rng.randint(4, 14)
    kind = rng.randrange(3)
    if kind == 0:
        l = rng.randint(k - 1, 3 * k)
        interior = sorted(rng.sample(range(1, l), k - 2))
    elif kind == 1:
        interior, prev = [], 0
        for i in range(1, k - 1):
            prev = rng.randint(prev + 1, 2 * i - 1)
            interior.append(prev)
        l = rng.randint(2 * k - 2, 3 * k)
    else:
        interior = sorted(rng.sample(range(1, 2 * k - 4), k - 2))
        l = rng.randint(2 * k - 2, 3 * k)
    scale, offset = rng.randint(1, 5), rng.randint(0, 200)
    return tuple(offset + scale * v for v in [0, *interior, l])


def generate(seed: int) -> list[tuple]:
    """ROUND queries: ("analyze", raw elements) or ("classify", k)."""
    rng = random.Random(seed)
    out: list[tuple] = []
    for i in range(ROUND):
        if i % CLASSIFY_EVERY == CLASSIFY_EVERY - 1:
            out.append(("classify", rng.randint(4, 8)))
        else:
            out.append(("analyze", analyze_set(rng)))
    return out


def run_query(lab, query: tuple) -> dict:
    """Run one query through the library; ``lab`` holds its modules."""
    core, bounds, structure, verify = lab.core, lab.bounds, lab.structure, lab.verify
    if query[0] == "classify":
        k = query[1]
        return {"classify": verify.classify_extremal(k, 2 * k - 3)}
    a = core.IntegerSet(query[1])
    ns, offset, scale = core.normalize(a)
    out = {
        "ns": ns, "offset": offset, "scale": scale,
        "profile": core.profile(ns),
        "bounds": bounds.evaluate_bounds(ns),
        "ap": bounds.is_arithmetic_progression(ns),
        "two_ap": bounds.is_union_two_aps_same_diff(ns),
    }
    if structure.has_dense_prefix(ns):
        ep = structure.exceptional_profile(ns)
        out["exceptional"] = ep
        out["points"] = structure.check_exceptional_points(ns)
        if ep.m >= 2:
            out["gaps"] = structure.gap_patterns(ns)
            out["top_gap"] = structure.top_gap_structure(ns)
    wp = structure.witness_profile(ns)
    out["witnesses"] = wp
    if wp.w1 is not None:
        try:
            out["decomposition"] = structure.decompose(ns, wp.w1, wp.w2)
        except core.SetDomainError:
            out["decomposition"] = None
    try:
        s = structure.find_admissible_split(ns)
    except core.SetDomainError:
        s = "n/a"
    out["split_position"] = s
    if isinstance(s, int):
        out["split"] = structure.split_at(ns, s)
    return out


# ---------------------------------------------------------------------------
# Independent checks


def _runs(elems, d: int) -> int:
    have = set(elems)
    return sum(1 for v in elems if v - d not in have)


def check(query: tuple, out: dict, classified: dict) -> list[str]:
    """Problems in one query result, found without the program.

    ``classified`` caches brute-force extremal sets by k.
    """
    if query[0] == "classify":
        k = query[1]
        if k not in classified:
            classified[k] = ref.extremal_at_span(k)
        got = {s.elements for s in out["classify"]}
        return [] if got == classified[k] else [f"classify k={k}"]
    raw = sorted(set(query[1]))
    offset = raw[0]
    scale = 0
    for v in raw:
        scale = gcd(scale, v - offset)
    e = tuple((v - offset) // scale for v in raw)
    k, l = len(e), e[-1]
    bad: list[str] = []
    ns = out["ns"]
    if (ns.elements, out["offset"], out["scale"]) != (e, offset, scale):
        return [f"normalize {raw} -> {ns.elements}"]
    restricted, double = ref.naive_restricted(e), ref.naive_double(e)
    prof = out["profile"]
    if set(prof.restricted.elements) != restricted or set(prof.double.elements) != double:
        bad.append("sumsets disagree with pair sums")
    head_reach = ref.naive_restricted(e[:-1])
    exceptional = {v for v in range(1, 2 * k - 3) if v not in head_reach}
    if set(prof.exceptional.elements) != exceptional:
        bad.append("exceptional window disagrees")
    bad += ref.proven_floor_violations(e)
    rep = out["bounds"]
    if (rep.card_double, rep.card_restricted) != (len(double), len(restricted)):
        bad.append("bound report cardinalities disagree")
    verdicts = {name: e.satisfied for name, e in rep.entries.items()}
    if verdicts != ref.bound_verdicts(k, l, len(double), len(restricted)):
        bad.append(f"bound verdicts {verdicts} disagree")
    diffs = {y - x for x, y in zip(e, e[1:])}
    if out["ap"][0] != (len(diffs) == 1):
        bad.append("AP verdict disagrees")
    ok, d = out["two_ap"]
    if ok != any(_runs(e, dd) <= 2 for dd in range(1, l + 1)) or (
            ok and (_runs(e, d) > 2 or any(_runs(e, dd) <= 2 for dd in range(1, d)))):
        bad.append("two-AP verdict disagrees")
    dense = l >= 2 * k - 2 and all(e[i] < 2 * i for i in range(1, k - 1))
    if dense != ("exceptional" in out):
        bad.append("dense-prefix verdict disagrees")
    if dense:
        ep = out["exceptional"]
        if set(ep.b_values.elements) != exceptional:
            bad.append("exceptional profile disagrees")
        if out["points"]:
            bad.append(f"pointwise law fails: {out['points'][:2]}")
        b = sorted(exceptional)
        if len(b) >= 2:
            lo, hi = 2 * k - 3, 2 * k - 4 + b[-2]
            missing = {v for v in range(lo, hi + 1) if v not in head_reach}
            if set(out["gaps"].missing.elements) != missing:
                bad.append("gap window disagrees")
            gap = 2 * k - 3 + b[-2] not in head_reach and 2 * k - 2 + b[-2] not in head_reach
            if out["top_gap"][0] != gap:
                bad.append("top-gap verdict disagrees")
    wits = ref.naive_witnesses(e)
    wp = out["witnesses"]
    if list(wp.values.elements) != wits:
        bad.append("witnesses disagree")
    dec = out.get("decomposition")
    if dec is not None and dec.modulus != gcd(wits[1] - wits[0], l):
        bad.append("decomposition modulus disagrees")
    if l >= 2 * k - 2 and e[-2] < 2 * k - 4:
        fast = [i for i in range(1, k - 2) if e[i] >= 2 * i]
        want = fast[-1] + 1 if fast else None
        if out["split_position"] != want:
            bad.append("split position disagrees")
        elif want is not None:
            st = out["split"]
            n_left = len(ref.naive_restricted(e[:want + 2]))
            n_right = len(ref.naive_restricted(e[want - 1:]))
            if (st.card_left, st.card_right, st.card_restricted) != (
                    n_left, n_right, len(restricted)) or n_left + n_right - 3 > len(restricted):
                bad.append("split cardinalities disagree")
    elif out["split_position"] != "n/a":
        bad.append("split accepted outside its hypothesis")
    return bad
