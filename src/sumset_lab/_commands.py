"""The handlers of every ``sumset-lab`` command but ``certify``.

``cli.main`` imports this module only when one of these commands runs,
so no ``certify`` process compiles it.  Each handler takes the parsed
arguments, with the ``--config`` defaults already applied, prints its
report and returns the outcome that ``main`` maps to the exit code.
This module never imports ``sumset_lab.cli``: under ``python -m
sumset_lab.cli`` the running module is ``__main__``, and importing
``cli`` would compile it a second time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    SumsetProfile,
    format_set_literal,
    normalize,
    parse_set_literal,
    profile,
)
# bounds, structure and families load in the handlers that call them
from .verify import BudgetExceeded, EnumerationQuery, classify_extremal, enumerate_tuples


def _parse_cli_set(text: str) -> IntegerSet:
    s = text.strip()
    if not s.startswith("{"):
        s = "{" + s + "}"
    return parse_set_literal(s)


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# compute


def _report_head(text: str) -> tuple[NormalizedSet, SumsetProfile, dict, list[str]]:
    """Parse, normalize and profile a CLI set; the payload and text lines
    that open both the compute and the analyze report."""
    a = _parse_cli_set(text)
    ns, offset, scale = normalize(a)
    prof = profile(ns)
    payload = {
        "input": format_set_literal(a),
        "normalized": format_set_literal(ns),
        "offset": offset,
        "scale": scale,
        "k": ns.k,
        "l": ns.l,
        "card_double": len(prof.double),
        "card_restricted": len(prof.restricted),
    }
    lines = [
        f"input          {payload['input']}",
        f"normalized     {payload['normalized']}  (offset {offset}, scale {scale})",
        f"k              {ns.k}",
        f"span           {ns.l}",
        f"|2A|           {payload['card_double']}",
        f"|2^A|          {payload['card_restricted']}",
    ]
    return ns, prof, payload, lines


def _cmd_compute(args: argparse.Namespace) -> str:
    from .bounds import evaluate_bounds

    ns, prof, payload, lines = _report_head(args.set)
    payload["double"] = list(prof.double.elements)
    payload["restricted"] = list(prof.restricted.elements)
    payload["bounds"] = evaluate_bounds(ns).to_dict()["bounds"] if ns.k >= 3 else {}
    if payload["bounds"]:
        lines.append("bounds (target, value, satisfied, tight):")
        for name, entry in payload["bounds"].items():
            lines.append(
                f"  {name:<14} {entry['target']:<10} "
                f"{entry['bound_approx']:<8g} "
                f"{str(entry['satisfied']):<5} {entry['tight']}"
            )
    _emit(payload, args.json, lines)
    return "verified"


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args: argparse.Namespace) -> str:
    from .bounds import ap_cover_length, is_arithmetic_progression, is_union_two_aps_same_diff
    from .structure import (
        check_exceptional_points,
        decompose,
        exceptional_growth_ok,
        exceptional_profile,
        find_admissible_split,
        gap_patterns,
        has_dense_prefix,
        split_at,
        witness_profile,
    )

    ns, prof, payload, lines = _report_head(args.set)
    is_ap, step = is_arithmetic_progression(ns)
    two_ap, two_ap_diff = is_union_two_aps_same_diff(ns)
    payload.update(
        is_arithmetic_progression=is_ap,
        ap_step=step,
        ap_cover_length=ap_cover_length(ns),
        is_union_two_aps=two_ap,
        two_ap_difference=two_ap_diff,
        exceptional=list(prof.exceptional.elements) if prof.exceptional else [],
        dense_prefix=has_dense_prefix(ns),
    )
    lines += [
        f"AP             {is_ap}" + (f" (step {step})" if is_ap and step else ""),
        f"two-AP union   {two_ap}"
        + (f" (difference {two_ap_diff})" if two_ap else ""),
        f"missing low sums  {payload['exceptional']}",
    ]
    if payload["dense_prefix"]:
        ep = exceptional_profile(ns)
        payload["exceptional_values"] = list(ep.b_values.elements)
        payload["covered_offsets"] = list(ep.d_values.elements)
        payload["missed_offsets"] = list(ep.c_values.elements)
        payload["point_violations"] = check_exceptional_points(ns)
        payload["growth_ok"] = exceptional_growth_ok(ns)
        lines.append(f"dense prefix   True; exceptional values {payload['exceptional_values']}")
        lines.append(f"growth law     {payload['growth_ok']}")
        if payload["point_violations"]:
            lines.append(f"point violations: {payload['point_violations']}")
        if ep.m >= 2:
            gp = gap_patterns(ns)
            payload["gap_window"] = list(gp.window)
            payload["gap_missing"] = list(gp.missing.elements)
            lines.append(
                f"window {gp.window}: missing {list(gp.missing.elements)}"
            )
    else:
        lines.append("dense prefix   False")
    wp = witness_profile(ns)
    payload["witnesses"] = list(wp.values.elements)
    payload["witness_modulus"] = wp.modulus
    lines.append(f"witnesses      {payload['witnesses']}"
                 + (f" (modulus {wp.modulus})" if wp.modulus else ""))
    if wp.w1 is not None:
        try:
            dec = decompose(ns, wp.w1, wp.w2)
            payload["decomposition"] = {
                "modulus": dec.modulus,
                "seeds": list(dec.seeds),
                "x_max": dec.x_max,
                "residues": list(dec.residues.elements),
                "orbits": {str(v): list(o.elements) for v, o in dec.orbits.items()},
                "reconstructed": dec.reconstructed,
            }
            lines.append(
                f"decomposition  modulus {dec.modulus}, seeds {list(dec.seeds)}, "
                f"reconstructed {dec.reconstructed}"
            )
        except SetDomainError as exc:
            payload["decomposition"] = None
            lines.append(f"decomposition  unavailable ({exc})")
    split_pos: Optional[int] = None
    try:
        split_pos = find_admissible_split(ns)
    except SetDomainError:
        pass
    payload["split_position"] = split_pos
    if split_pos is not None:
        st = split_at(ns, split_pos)
        payload["split"] = {
            "s": st.s,
            "left": format_set_literal(st.left),
            "right": format_set_literal(st.right),
            "card_left": st.card_left,
            "card_right": st.card_right,
            "lower_bound": st.lower_bound,
            "card_restricted": st.card_restricted,
        }
        lines.append(
            f"split          s={st.s}: |2^left|={st.card_left}, "
            f"|2^right|={st.card_right}, floor {st.lower_bound} <= {st.card_restricted}"
        )
    _emit(payload, args.json, lines)
    return "verified"


# ---------------------------------------------------------------------------
# families


def _cmd_families(args: argparse.Namespace) -> str:
    from .families import FAMILY_KINDS, FamilySpec, extremal_catalog, family_members

    if args.all == (args.kind is not None):
        print("sumset-lab families: error: give exactly one of --kind or --all",
              file=sys.stderr)
        return "usage"
    members: list[tuple[str, Optional[int], str]] = []
    if args.all:
        if args.theta is not None:
            raise SetDomainError("--all lists every extremal set; drop --theta")
        for s in extremal_catalog(args.k):
            members.append(("extremal", None, format_set_literal(s)))
    elif args.theta is not None:
        spec = FamilySpec(args.kind, args.k, args.theta)
        members.append((args.kind, args.theta, format_set_literal(spec.member())))
    else:
        kind = FAMILY_KINDS.get(args.kind)
        sets = family_members(args.kind, args.k)
        thetas: tuple[Optional[int], ...] = (
            kind.thetas(args.k) if kind is not None and kind.needs_theta else (None,) * len(sets)
        )
        members += [(args.kind, t, format_set_literal(s)) for t, s in zip(thetas, sets)]
    payload = {
        "k": args.k,
        "members": [
            {"kind": kind, "theta": theta, "elements": lit}
            for kind, theta, lit in members
        ],
    }
    lines = []
    for kind, theta, lit in members:
        tag = kind if theta is None else f"{kind}(theta={theta})"
        lines.append(f"{tag:<24} {lit}")
    if not members:
        lines.append("(no members at this k)")
    _emit(payload, args.json, lines)
    return "verified"


# ---------------------------------------------------------------------------
# enumerate / classify


def _cmd_enumerate(args: argparse.Namespace) -> str:
    l_max = args.l_max if args.l_max is not None else args.l
    query = EnumerationQuery(
        args.k, args.l, l_max, tuple(args.constraint or ()), budget=args.budget
    )
    sets: list[str] = []
    truncated_after: Optional[int] = None
    try:
        for tup in enumerate_tuples(query):
            lit = format_set_literal(tup)
            if args.json:
                sets.append(lit)
            else:
                print(lit)
    except BudgetExceeded as exc:
        truncated_after = exc.nodes
    if args.json:
        print(json.dumps(
            {
                "query": query.to_dict(),
                "sets": sets,
                "truncated": truncated_after is not None,
            },
            sort_keys=True, indent=2,
        ))
    elif truncated_after is not None:
        print(f"# truncated: enumeration budget exhausted after {truncated_after} nodes")
    return "verified" if truncated_after is None else "budget_exhausted"


def _cmd_classify(args: argparse.Namespace) -> str:
    try:
        extremal = classify_extremal(args.k, args.l, budget=args.budget)
    except BudgetExceeded as exc:
        print(f"# truncated: enumeration budget exhausted after {exc.nodes} nodes")
        return "budget_exhausted"
    lits = [format_set_literal(s) for s in extremal]
    if args.json:
        print(json.dumps(
            {"k": args.k, "l": args.l, "extremal": lits}, sort_keys=True, indent=2
        ))
    else:
        for lit in lits:
            print(lit)
        if not lits:
            print("(no extremal sets)")
    return "verified"
