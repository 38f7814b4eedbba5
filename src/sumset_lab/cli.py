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

This module holds the parser, the config file, ``main`` and ``certify``.
The handlers of the other five commands are in the private module
``_commands``, which ``main`` imports only when one of them runs, so no
``certify`` process compiles them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import SetDomainError
# the other commands' handlers load in main, and the parser reads
# KNOWN_CONSTRAINTS when it is built
from .verify import (
    DEFAULT_BUDGET,
    Certificate,
    KNOWN_CONSTRAINTS,
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

# the exit code of each outcome a command ends with
_EXIT_CODES = {
    "verified": EXIT_VERIFIED,
    "refuted": EXIT_REFUTED,
    "budget_exhausted": EXIT_BUDGET,
    "usage": EXIT_USAGE,
}

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
    jobs = _setting(args, cfg, "jobs", 1)
    cap = _setting(args, cfg, "cap", None)
    k_max, k_min = args.k_max, args.k_min
    kw = {"budget": args.budget, "jobs": jobs}
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


def _cmd_certify(args: argparse.Namespace, cfg: dict) -> str:
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
    return cert.outcome


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

    p = sub.add_parser("analyze", parents=[common, readout],
                       help="structural report for one set")
    p.add_argument("set", help="set literal, e.g. '{0,1,4,9}' or 0,1,4,9")

    p = sub.add_parser("families", parents=[common, readout],
                       help="extremal family members at one cardinality")
    # choices set after add_argument, which would read them at once to
    # check the option's metavar
    p.add_argument("--kind", help="one family kind").choices = _FamilyKinds()
    p.add_argument("--k", type=int, required=True, help="cardinality")
    p.add_argument("--theta", type=int, default=None, help="family parameter")
    p.add_argument("--all", action="store_true",
                   help="every span-(2k-3) extremal family member plus sporadics")

    p = sub.add_parser("enumerate", parents=[common, readout, budgeted],
                       help="stream normalized sets matching a query")
    p.add_argument("--k", type=int, required=True, help="cardinality")
    p.add_argument("--l", type=int, required=True, help="span (minimum if --l-max)")
    p.add_argument("--l-max", type=int, default=None, help="span range upper end")
    p.add_argument("--constraint", action="append", choices=KNOWN_CONSTRAINTS,
                   metavar="NAME",
                   help=f"named constraint, one of {', '.join(KNOWN_CONSTRAINTS)}")

    p = sub.add_parser("classify", parents=[common, readout, budgeted],
                       help="extremal sets (restricted size 3k-7) at one (k, span)")
    p.add_argument("--k", type=int, required=True, help="cardinality")
    p.add_argument("--l", type=int, required=True, help="span")

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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        args.budget = _setting(args, cfg, "budget", DEFAULT_BUDGET)
        if args.command == "certify":
            outcome = _cmd_certify(args, cfg)
        else:
            from . import _commands

            outcome = getattr(_commands, f"_cmd_{args.command}")(args)
        sys.stdout.flush()
        return _EXIT_CODES[outcome]
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
