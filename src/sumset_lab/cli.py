"""Command-line interface.

Subcommands: ``compute`` (sumset cardinalities and bounds for one set),
``analyze`` (structural report for one set), ``families`` (extremal
family members), ``enumerate`` (stream normalized sets matching a
query), ``classify`` (extremal sets at one (k, span) cell), ``certify``
(run a verification sweep and emit a certificate).

Exit codes: 0 success/verified, 1 refuted, 2 budget exhausted,
3 usage error, 141 stdout closed by its reader (the shell's status for
a writer ended by SIGPIPE); a closed stdout ends quietly, with nothing
on stderr.

A config file (``--config FILE``, ``key=value`` lines, ``#`` comments)
supplies defaults for ``budget``, ``jobs``, ``cap`` and ``out_dir``;
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
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
# bounds, structure and families load in the handlers that call them;
# the parser reads KNOWN_CONSTRAINTS when it is built
from .verify import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Certificate,
    EnumerationQuery,
    KNOWN_CONSTRAINTS,
    classify_extremal,
    enumerate_tuples,
    sweep_structure,
    verify_conjecture,
    verify_dense_prefix,
    verify_low_second_max,
    verify_span_classification,
)

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_PIPE = 141

_CONFIG_KEYS = {"budget": int, "jobs": int, "cap": int, "out_dir": str}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 3."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SetDomainError(f"cannot read config file {path}: {exc}") from None
    cfg: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise SetDomainError(f"{path}:{lineno}: expected one of "
                                 f"{sorted(_CONFIG_KEYS)} as 'key=value', got {line!r}")
        try:
            cfg[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise SetDomainError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return cfg


def _setting(args: argparse.Namespace, cfg: dict, name: str, fallback):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return fallback


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


def _cmd_compute(args: argparse.Namespace, cfg: dict) -> int:
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
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args: argparse.Namespace, cfg: dict) -> int:
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
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# families


class _FamilyKinds:
    """The choices of ``families --kind``: the kinds of FAMILY_KINDS and
    ``sporadic``, read from families only when the choices are checked
    or printed, so a process that never does so does not load it."""

    def __iter__(self):
        from .families import FAMILY_KINDS

        return iter(sorted(FAMILY_KINDS) + ["sporadic"])

    def __contains__(self, name: object) -> bool:
        return name in iter(self)


def _cmd_families(args: argparse.Namespace, cfg: dict) -> int:
    from .families import FAMILY_KINDS, FamilySpec, extremal_catalog, family_members

    if args.all == (args.kind is not None):
        print("sumset-lab families: error: give exactly one of --kind or --all",
              file=sys.stderr)
        return EXIT_USAGE
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
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# enumerate / classify


def _cmd_enumerate(args: argparse.Namespace, cfg: dict) -> int:
    budget = _setting(args, cfg, "budget", DEFAULT_BUDGET)
    l_max = args.l_max if args.l_max is not None else args.l
    query = EnumerationQuery(
        args.k, args.l, l_max, tuple(args.constraint or ()), budget=budget
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
    return EXIT_VERIFIED if truncated_after is None else EXIT_BUDGET


def _cmd_classify(args: argparse.Namespace, cfg: dict) -> int:
    budget = _setting(args, cfg, "budget", DEFAULT_BUDGET)
    try:
        extremal = classify_extremal(args.k, args.l, budget=budget)
    except BudgetExceeded as exc:
        print(f"# truncated: enumeration budget exhausted after {exc.nodes} nodes")
        return EXIT_BUDGET
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
    return EXIT_VERIFIED


# ---------------------------------------------------------------------------
# certify


_THEOREM_CHOICES = ("1", "2", "3", "conjecture", "lemmas")


def _claim_out(out: str) -> list[str]:
    """Refuse an unwritable certificate path before the sweep walks a
    cell: make ``out``'s missing parent directories and open it to
    append, which creates it empty and leaves an existing file as it
    was.  Returns the paths made, innermost first, which
    :func:`_unclaim` removes when the query is refused."""
    made = [] if os.path.lexists(out) else [out]
    directory = parent = os.path.dirname(out)
    while parent and not os.path.lexists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    try:
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        _unclaim(made)
        raise SetDomainError(f"cannot write certificate to {out}: {exc}") from None
    return made


def _unclaim(made: list[str]) -> None:
    """Remove the paths that :func:`_claim_out` made, innermost first."""
    for path in made:
        try:
            (os.rmdir if os.path.isdir(path) else os.remove)(path)
        except OSError:
            pass


def _certify(args: argparse.Namespace, cfg: dict) -> Certificate:
    """Run the sweep that ``certify`` names and return its certificate."""
    budget = _setting(args, cfg, "budget", DEFAULT_BUDGET)
    jobs = _setting(args, cfg, "jobs", 1)
    cap = _setting(args, cfg, "cap", None)
    k_max, k_min = args.k_max, args.k_min
    kw = {"budget": budget, "jobs": jobs}
    if args.theorem == "conjecture":
        if k_min is not None:
            raise SetDomainError("the conjecture sweep always starts at k=3; drop --k-min")
        return verify_conjecture(k_max, cap, **kw)
    if args.theorem == "3":
        if args.cap is not None:
            raise SetDomainError("theorem 3 sweeps the span 2k-3 only; drop --cap")
        return verify_span_classification(k_max, 4 if k_min is None else k_min, **kw)
    driver = {"1": verify_low_second_max, "2": verify_dense_prefix,
              "lemmas": sweep_structure}[args.theorem]
    return driver(k_max, 3 if k_min is None else k_min, cap=cap, **kw)


def _cmd_certify(args: argparse.Namespace, cfg: dict) -> int:
    out = args.out
    made: list[str] = []
    if out is not None:
        out_dir = cfg.get("out_dir")
        if out_dir and not os.path.isabs(out):
            out = os.path.join(out_dir, out)
        made = _claim_out(out)
    try:
        cert = _certify(args, cfg)
    except BaseException:
        _unclaim(made)
        raise
    text = cert.to_json()
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SetDomainError(f"cannot write certificate to {out}: {exc}") from None
        print(f"{cert.outcome}: certificate written to {out}")
    else:
        sys.stdout.write(text)
    return {
        "verified": EXIT_VERIFIED,
        "refuted": EXIT_REFUTED,
        "budget_exhausted": EXIT_BUDGET,
    }[cert.outcome]


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", default=None,
                        help="key=value defaults: budget, jobs, cap, out_dir")
    readout = _Parser(add_help=False)
    readout.add_argument("--json", action="store_true", help="emit JSON")
    budgeted = _Parser(add_help=False)
    budgeted.add_argument("--budget", type=int, metavar="NODES", default=None,
                          help="enumeration node budget: the planned nodes of the "
                               "unpruned enumeration, so a cell can be refused "
                               "for nodes its pruned walk never visits")

    parser = _Parser(
        prog="sumset-lab",
        description="Sumsets and restricted sumsets of finite integer sets: "
                    "bounds, extremal families, exhaustive certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compute", parents=[common, readout],
                       help="cardinalities and lower bounds for one set")
    p.add_argument("set", help="set literal, e.g. '{0,1,4,9}' or 0,1,4,9")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("analyze", parents=[common, readout],
                       help="structural report for one set")
    p.add_argument("set", help="set literal, e.g. '{0,1,4,9}' or 0,1,4,9")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("families", parents=[common, readout],
                       help="extremal family members at one cardinality")
    # choices set after add_argument, which would read them at once to
    # check the option's metavar
    p.add_argument("--kind", help="one family kind").choices = _FamilyKinds()
    p.add_argument("--k", type=int, required=True, help="cardinality")
    p.add_argument("--theta", type=int, default=None, help="family parameter")
    p.add_argument("--all", action="store_true",
                   help="every span-(2k-3) extremal family member plus sporadics")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("enumerate", parents=[common, readout, budgeted],
                       help="stream normalized sets matching a query")
    p.add_argument("--k", type=int, required=True, help="cardinality")
    p.add_argument("--l", type=int, required=True, help="span (minimum if --l-max)")
    p.add_argument("--l-max", type=int, default=None, help="span range upper end")
    p.add_argument("--constraint", action="append", choices=KNOWN_CONSTRAINTS,
                   metavar="NAME",
                   help=f"named constraint, one of {', '.join(KNOWN_CONSTRAINTS)}")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", parents=[common, readout, budgeted],
                       help="extremal sets (restricted size 3k-7) at one (k, span)")
    p.add_argument("--k", type=int, required=True, help="cardinality")
    p.add_argument("--l", type=int, required=True, help="span")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("certify", parents=[common, budgeted],
                       help="run a verification sweep, emit a certificate")
    p.add_argument("--theorem", choices=_THEOREM_CHOICES, required=True,
                   help="which claim to certify")
    p.add_argument("--k-max", type=int, required=True, help="largest cardinality")
    p.add_argument("--k-min", type=int, default=None, help="smallest cardinality")
    p.add_argument("--cap", type=int, default=None,
                   help="span cap (conjecture: largest span; others: top cap)")
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the certificate here instead of stdout")
    p.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        code = args.func(args, cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's flush at exit writes nothing and prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except SetDomainError as exc:
        print(f"sumset-lab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
