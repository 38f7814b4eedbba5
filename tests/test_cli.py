"""Command-line interface, exercised in-process via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sumset_lab import families
from sumset_lab.cli import EXIT_PIPE, main
from sumset_lab.core import MAX_ELEMENT, format_set_literal
from sumset_lab.verify import DEFAULT_BUDGET, EnumerationQuery, enumerate_tuples


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# compute


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", "{0,1,4,5,6,9}")
    assert code == 0
    assert "k              6" in out
    assert "|2A|           16" in out
    assert "|2^A|          11" in out
    assert "freiman_lev" in out


def test_compute_json(capsys):
    code, payload, _ = run_json(capsys, "compute", "--json", "{0,1,4,5,6,9}")
    assert code == 0
    assert payload["k"] == 6
    assert payload["card_double"] == 16
    assert payload["card_restricted"] == 11
    assert len(payload["bounds"]) == 6
    assert payload["bounds"]["freiman_lev"]["tight"] is True
    assert payload["bounds"]["narrow_window"]["tight"] is True
    assert all(entry["satisfied"] for entry in payload["bounds"].values())


def test_compute_bare_literal_and_denormalized_input(capsys):
    code, payload, _ = run_json(capsys, "compute", "--json", "6,10,14")
    assert code == 0
    assert payload["normalized"] == "{0,1,2}"
    assert payload["offset"] == 6 and payload["scale"] == 4


def test_compute_parse_error_exits_3(capsys):
    code, _, err = run(capsys, "compute", "{0,1,")
    assert code == 3
    assert "error" in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_dense_prefix_set(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--json", "{0,1,3,4,7,10}")
    assert code == 0
    assert payload["dense_prefix"] is True
    assert payload["exceptional_values"] == [2, 6]
    assert payload["growth_ok"] is True
    assert payload["point_violations"] == []
    assert payload["gap_window"] == [9, 10]
    assert payload["gap_missing"] == [9]
    assert payload["is_arithmetic_progression"] is False
    assert payload["split_position"] is None


def test_analyze_witness_decomposition(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--json", "{0,1,4,5,7,8,11,12}")
    assert code == 0
    assert payload["witnesses"] == [2, 10]
    assert payload["decomposition"]["modulus"] == 4
    assert payload["decomposition"]["seeds"] == [5, 11]
    assert payload["decomposition"]["reconstructed"] is True


def test_analyze_split_set(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--json", "{0,2,3,5,7,10}")
    assert code == 0
    assert payload["split_position"] == 2
    assert payload["split"]["left"] == "{0,2,3,5}"
    assert payload["split"]["right"] == "{2,3,5,7,10}"
    assert payload["split"]["lower_bound"] == 11
    assert payload["split"]["card_restricted"] == 11


def test_analyze_ap(capsys):
    code, payload, _ = run_json(capsys, "analyze", "--json", "{0,2,4,6}")
    assert code == 0
    # analysis runs on the normalized set, so the step rescales to 1
    assert payload["normalized"] == "{0,1,2,3}"
    assert payload["is_arithmetic_progression"] is True
    assert payload["ap_step"] == 1
    assert payload["is_union_two_aps"] is True


# ---------------------------------------------------------------------------
# golden outputs: compute --json and analyze --json, byte for byte

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["compute", "analyze"])
@pytest.mark.parametrize("literal", [
    "7,13,19,31,37",  # denormalized: offset 7, scale 6
    "0,1,3,6,7",  # halved_span (l + 3k - 7) / 2 = 15/2, an odd bound_x2
    "0,1,4,5,6,9,10",  # k = 7, l = 10, |2^A| = 13 < 3k - 7
    # scale 1 with a nonzero offset: the normalized mask is the input's
    # shifted down
    "50,51,53,54,56,60",  # dense prefix, |B| >= 2, gap window, decomposition
    "20,21,22,26,27,30",  # split at s = 4, two witnesses
    # decompositions with nonempty residues: modulus 4, rebuilt; and
    # witnesses 3 and 8, modulus 5, not rebuilt
    "0,1,4,5,7,8,11,12",
    "0,2,4,5,7,10",
])
def test_json_output_matches_golden_file(capsys, command, literal):
    code, out, _ = run(capsys, command, "--json", "{%s}" % literal)
    assert code == 0
    assert out == (GOLDEN / f"{command}_{literal.replace(',', '_')}.json").read_text()


# ---------------------------------------------------------------------------
# families


def test_families_all(capsys):
    code, payload, _ = run_json(capsys, "families", "--json", "--k", "6", "--all")
    assert code == 0
    assert len(payload["members"]) == 13
    assert all(m["kind"] == "extremal" for m in payload["members"])


def test_families_kind_with_theta(capsys):
    code, out, _ = run(capsys, "families", "--k", "6", "--kind", "even_odd",
                       "--theta", "3")
    assert code == 0
    assert "{0,2,4,6,7,9}" in out


def test_families_kind_all_thetas(capsys):
    code, payload, _ = run_json(capsys, "families", "--json", "--k", "6",
                                "--kind", "two_intervals")
    assert code == 0
    assert [m["theta"] for m in payload["members"]] == [6, 7, 8]


def test_families_sporadic_kind(capsys):
    code, payload, _ = run_json(capsys, "families", "--json", "--k", "6",
                                "--kind", "sporadic")
    assert code == 0
    assert [m["elements"] for m in payload["members"]] == [
        "{0,1,4,5,6,9}", "{0,3,4,5,8,9}",
    ]


def test_families_usage_errors(capsys):
    code, _, err = run(capsys, "families", "--k", "6")
    assert code == 3 and "exactly one" in err
    code, _, err = run(capsys, "families", "--k", "6", "--all", "--kind", "four_step")
    assert code == 3
    code, _, err = run(capsys, "families", "--k", "6", "--kind", "even_odd",
                       "--theta", "9")
    assert code == 3 and "theta" in err


@pytest.mark.parametrize("argv", [
    ("--kind", "mod3_wide", "--k", "6", "--theta", "5"),
    ("--kind", "four_step", "--k", "6", "--theta", "1"),
    ("--kind", "sporadic", "--k", "6", "--theta", "1"),
    ("--all", "--k", "6", "--theta", "2"),
])
def test_families_refuse_an_ignored_theta_exit_3(capsys, argv):
    code, out, err = run(capsys, "families", *argv)
    assert code == 3
    assert out == ""
    assert "theta" in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "3", "--l", "4",
                       "--constraint", "gcd_one")
    assert code == 0
    assert out.splitlines() == ["{0,1,4}", "{0,3,4}"]


def test_enumerate_json_with_range(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--json", "--k", "3",
                                "--l", "2", "--l-max", "4")
    assert code == 0
    assert payload["truncated"] is False
    assert payload["query"]["l_min"] == 2 and payload["query"]["l_max"] == 4
    assert "{0,1,2}" in payload["sets"] and "{0,3,4}" in payload["sets"]


def test_enumerate_json_query_holds_the_five_query_fields(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--k", "5", "--l", "7",
                                "--constraint", "gcd_one", "--json")
    assert code == 0
    assert payload["query"] == {"k": 5, "l_min": 7, "l_max": 7, "constraints": ["gcd_one"],
                                "budget": DEFAULT_BUDGET}
    query = EnumerationQuery(5, 7, 7, ("gcd_one",))
    assert payload["sets"] == [format_set_literal(t) for t in enumerate_tuples(query)]
    assert payload["sets"]


def test_enumerate_budget_marker_and_exit_2(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "3", "--l", "4",
                       "--budget", "2")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "{0,1,4}"
    assert lines[-1] == "# truncated: enumeration budget exhausted after 3 nodes"


def test_enumerate_json_truncation(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--json", "--k", "3",
                                "--l", "4", "--budget", "2")
    assert code == 2
    assert payload["truncated"] is True
    assert payload["sets"] == ["{0,1,4}"]


def test_enumerate_bad_constraint_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--k", "3", "--l", "4", "--constraint", "bogus"])
    assert exc.value.code == 3


def test_enumerate_invalid_query_exits_3(capsys):
    code, _, err = run(capsys, "enumerate", "--k", "1", "--l", "4")
    assert code == 3 and "k >= 2" in err


# ---------------------------------------------------------------------------
# classify


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--k", "6", "--l", "9")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert "{0,1,4,5,8,9}" in lines


def test_classify_json_empty(capsys):
    code, payload, _ = run_json(capsys, "classify", "--json", "--k", "5", "--l", "4")
    assert code == 0
    assert payload == {"k": 5, "l": 4, "extremal": []}


def test_classify_wide_span(capsys):
    code, payload, _ = run_json(capsys, "classify", "--json", "--k", "4", "--l", "9")
    assert code == 0
    assert payload["extremal"] == ["{0,1,8,9}", "{0,2,7,9}", "{0,4,5,9}"]


def test_classify_budget_exhaustion(capsys):
    # the cell is skipped whole, and the line names the node at which the
    # enumerator raises
    code, out, _ = run(capsys, "classify", "--k", "6", "--l", "9", "--budget", "5")
    assert code == 2
    assert out == "# truncated: enumeration budget exhausted after 6 nodes\n"


def test_classify_past_the_supported_maximum_exits_3(capsys):
    code, out, err = run(capsys, "classify", "--k", "4", "--l", str(MAX_ELEMENT + 1))
    assert (code, out) == (3, "")
    assert err == (f"sumset-lab: error: element {MAX_ELEMENT + 1} exceeds the supported "
                   f"maximum {MAX_ELEMENT}\n")


# ---------------------------------------------------------------------------
# certify


def test_certify_stdout_json(capsys):
    code, out, _ = run(capsys, "certify", "--theorem", "3", "--k-max", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "verified"
    assert payload["claim"] == "classification_matches_families"
    assert payload["schema_version"] == 1
    assert payload["counts"]["extremal"] == 8  # k=4: 2, k=5: 6


def test_certify_out_file(capsys, tmp_path):
    target = tmp_path / "certs" / "t3.json"
    code, out, _ = run(capsys, "certify", "--theorem", "3", "--k-max", "5",
                       "--out", str(target))
    assert code == 0
    assert "verified: certificate written to" in out
    payload = json.loads(target.read_text())
    assert payload["claim"] == "classification_matches_families"


@pytest.mark.parametrize("where", ["a directory", "under a regular file"])
def test_certify_out_unwritable_exits_3(capsys, tmp_path, where):
    # exit 1 means refuted: a certificate that cannot be written is a
    # usage error, reported in one line, as an unreadable --config is
    if where == "a directory":
        target = tmp_path
    else:
        (tmp_path / "plain").write_text("")
        target = tmp_path / "plain" / "t3.json"
    code, out, err = run(capsys, "certify", "--theorem", "3", "--k-max", "5",
                         "--out", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith(f"sumset-lab: error: cannot write certificate to {target}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("where", ["a directory", "under a regular file"])
def test_certify_refuses_an_unwritable_out_before_the_sweep(capsys, tmp_path, monkeypatch, where):
    # the path is tried before the driver runs, so a box of any size is
    # refused at once, with the same one-line error
    from sumset_lab import cli

    def sweep(*_args, **_kw):
        raise AssertionError("the sweep ran before --out was tried")

    monkeypatch.setattr(cli, "verify_span_classification", sweep)
    if where == "a directory":
        target = tmp_path
    else:
        (tmp_path / "plain").write_text("")
        target = tmp_path / "plain" / "sub" / "t3.json"
    code, out, err = run(capsys, "certify", "--theorem", "3", "--k-max", "5",
                         "--out", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith(f"sumset-lab: error: cannot write certificate to {target}: ")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if where == "a directory" else ["plain"])


def test_certify_refused_query_leaves_no_file_behind(capsys, tmp_path):
    # --out is claimed before the sweep; a query the driver refuses
    # removes the file and the directories made for it, and leaves a file
    # that was there as it was
    fresh = tmp_path / "certs" / "deep" / "c.json"
    old = tmp_path / "old.json"
    old.write_text("kept")
    for target in (fresh, old):
        for argv in (["--theorem", "conjecture", "--k-max", "5", "--k-min", "4"],
                     ["--theorem", "3", "--k-max", "5", "--cap", "9"],
                     ["--theorem", "lemmas", "--k-max", "2"]):
            code, out, err = run(capsys, "certify", *argv, "--out", str(target))
            assert code == 3, argv
            assert out == "" and err.startswith("sumset-lab: error: "), argv
            assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"], argv
            assert old.read_text() == "kept"


def test_certify_lemmas_and_theorem_choices(capsys):
    code, out, _ = run(capsys, "certify", "--theorem", "lemmas", "--k-max", "5")
    assert code == 0
    assert json.loads(out)["claim"] == "structure_sweep"
    code, out, _ = run(capsys, "certify", "--theorem", "1", "--k-max", "5",
                       "--cap", "12")
    assert code == 0
    assert json.loads(out)["claim"] == "low_second_max_floor"
    code, out, _ = run(capsys, "certify", "--theorem", "2", "--k-max", "6",
                       "--k-min", "6", "--cap", "12")
    assert code == 0
    assert json.loads(out)["claim"] == "dense_prefix_equality"


def test_certify_budget_exhausted_exit_2(capsys):
    code, out, _ = run(capsys, "certify", "--theorem", "conjecture",
                       "--k-max", "7", "--budget", "300")
    assert code == 2
    assert json.loads(out)["outcome"] == "budget_exhausted"


def test_certify_refuted_exit_1(capsys, tmp_path, monkeypatch):
    # theorem 2 judges each equality set's shape in its merge, which reads
    # dense_extremal_shape from families when it runs
    monkeypatch.setattr(families, "dense_extremal_shape", lambda ns: False)
    code, out, _ = run(capsys, "certify", "--theorem", "2", "--k-max", "7")
    assert code == 1
    assert json.loads(out)["outcome"] == "refuted"
    target = tmp_path / "t2.json"
    code, out, _ = run(capsys, "certify", "--theorem", "2", "--k-max", "7", "--out", str(target))
    assert code == 1
    assert out == f"refuted: certificate written to {target}\n"
    assert json.loads(target.read_text())["outcome"] == "refuted"


@pytest.mark.parametrize("argv", [
    ("--theorem", "1", "--k-max", "6", "--cap", "3"),
    ("--theorem", "2", "--k-max", "6", "--cap", "3"),
    ("--theorem", "lemmas", "--k-max", "6", "--cap", "1"),
    ("--theorem", "3", "--k-max", "5", "--jobs", "-3"),
    ("--theorem", "2", "--k-max", "6", "--k-min", "0"),
    ("--theorem", "3", "--k-max", "6", "--k-min", "0"),
    ("--theorem", "conjecture", "--k-max", "6", "--k-min", "5"),
    ("--theorem", "3", "--k-max", "5", "--budget", "0"),
    ("--theorem", "3", "--k-max", "5", "--budget", "-5"),
    ("--theorem", "3", "--k-max", "5", "--budget", "1"),
    ("--theorem", "3", "--k-max", "5", "--cap", "9"),
])
def test_certify_refuses_empty_box_and_bad_jobs_exit_3(capsys, argv):
    # a box with no cell for some k, or a k_min or cap the driver does not take,
    # would certify nothing or a box other than the one asked for; a
    # budget below the box's cell count (two cells here) would walk cells
    # on a budget that was never given
    code, out, err = run(capsys, "certify", *argv)
    assert code == 3
    assert out == ""
    assert "error" in err


def test_certify_theorem_3_ignores_a_config_cap(capsys, tmp_path):
    # theorem 3 sweeps the span 2k-3 only: it refuses an explicit --cap,
    # but a cap from the config file stays a default that it ignores
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("cap = 9\n")
    code, out, _ = run(capsys, "certify", "--config", str(cfg), "--theorem", "3",
                       "--k-max", "5")
    assert code == 0
    assert json.loads(out)["cap"] is None


# ---------------------------------------------------------------------------
# config file


def test_config_supplies_budget(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# defaults\nbudget = 2\n")
    code, out, _ = run(capsys, "enumerate", "--config", str(cfg),
                       "--k", "3", "--l", "4")
    assert code == 2
    assert "# truncated" in out


def test_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("budget = 2\n")
    code, out, _ = run(capsys, "enumerate", "--config", str(cfg),
                       "--k", "3", "--l", "4", "--budget", "100000")
    assert code == 0
    assert out.splitlines() == ["{0,1,4}", "{0,2,4}", "{0,3,4}"]


def test_config_out_dir(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"out_dir = {tmp_path}/certs\n")
    code, out, _ = run(capsys, "certify", "--config", str(cfg), "--theorem", "3",
                       "--k-max", "5", "--out", "t3.json")
    assert code == 0
    assert (tmp_path / "certs" / "t3.json").exists()


def test_config_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    code, _, err = run(capsys, "enumerate", "--config", str(bad),
                       "--k", "3", "--l", "4")
    assert code == 3 and "key=value" in err
    code, _, err = run(capsys, "enumerate", "--config", str(tmp_path / "nope.cfg"),
                       "--k", "3", "--l", "4")
    assert code == 3 and "cannot read config" in err
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("budget = lots\n")
    code, _, err = run(capsys, "enumerate", "--config", str(bad2),
                       "--k", "3", "--l", "4")
    assert code == 3 and "bad value" in err


# ---------------------------------------------------------------------------
# top-level usage


def test_missing_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_unknown_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_missing_required_flag_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--k", "6"])
    assert exc.value.code == 3


def _src_env() -> dict:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


@pytest.mark.parametrize("argv", [
    ["classify", "--k", "8", "--l", "13", "--json"],
    ["families", "--all", "--k", "9", "--json"],
], ids=["classify", "families"])
def test_a_closed_stdout_ends_quietly_with_exit_141(argv):
    # the reader is gone before the command writes, as when `| head -c`
    # exits early: the write fails, and the command ends with the shell's
    # status for a writer ended by SIGPIPE and nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "sumset_lab.cli", *argv],
                             stdout=write_end, stderr=subprocess.PIPE, env=_src_env())
    finally:
        os.close(write_end)
    assert EXIT_PIPE == 141
    assert (out.returncode, out.stderr) == (141, b"")


# ---------------------------------------------------------------------------
# start-up


def _loaded_modules(code: str) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-c", code + "; import sys; print(*sys.modules)"],
        capture_output=True, text=True, env=_src_env(), check=True,
    )
    return set(out.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every sumset-lab process pays for what the CLI imports; these two
    # cost over 10 ms and the package uses nothing from them
    added = _loaded_modules("import sumset_lab.cli") - _loaded_modules("pass")
    assert "sumset_lab.cli" in added
    assert not {"dataclasses", "inspect"} & added


_CERTIFY = "import os; from sumset_lab.cli import main; main({!r} + ['--out', os.devnull])"
# enumerate and classify print to stdout; no output line names a module
_RUN = "from sumset_lab.cli import main; main({!r})"


@pytest.mark.parametrize("code", [
    "import sumset_lab.structure",
    _CERTIFY.format(["certify", "--theorem", "lemmas", "--k-max", "8"]),
], ids=["structure", "lemmas"])
def test_structure_and_the_lemma_sweep_load_neither_fractions_nor_decimal(code):
    # structure imports Fraction only in offset_count_bound, which the
    # lemma sweep never calls; fractions would load decimal and numbers
    loaded = _loaded_modules(code)
    assert "sumset_lab.structure" in loaded
    assert not {"fractions", "decimal"} & loaded


@pytest.mark.parametrize("code, absent", [
    # the package itself loads no submodule: each export loads on first use
    ("import sumset_lab",
     {"sumset_lab.core", "sumset_lab.bounds", "sumset_lab.structure",
      "sumset_lab.families", "sumset_lab.verify", "sumset_lab.cli"}),
    # the floor sweeps read only core's floor, and theorem 1 its split
    # position (structure's split_at runs only on a set that fails);
    # theorems 2 and 3 read families, whose shape check takes its regime
    # test from core.  The parser reads families' kind names only to
    # check or print --kind.
    (_CERTIFY.format(["certify", "--theorem", "conjecture", "--k-max", "6"]),
     {"sumset_lab.structure", "sumset_lab.bounds", "sumset_lab.families"}),
    (_CERTIFY.format(["certify", "--theorem", "3", "--k-max", "6"]),
     {"sumset_lab.structure", "sumset_lab.bounds"}),
    (_CERTIFY.format(["certify", "--theorem", "2", "--k-max", "6"]),
     {"sumset_lab.structure", "sumset_lab.bounds"}),
    (_CERTIFY.format(["certify", "--theorem", "1", "--k-max", "6"]),
     {"sumset_lab.structure", "sumset_lab.bounds", "sumset_lab.families"}),
    (_CERTIFY.format(["certify", "--theorem", "lemmas", "--k-max", "8"]),
     {"sumset_lab.bounds", "sumset_lab.families"}),
    (_RUN.format(["enumerate", "--k", "5", "--l", "8"]),
     {"sumset_lab.structure", "sumset_lab.bounds", "sumset_lab.families"}),
    (_RUN.format(["classify", "--k", "6", "--l", "9"]),
     {"sumset_lab.structure", "sumset_lab.bounds", "sumset_lab.families"}),
], ids=["import", "conjecture", "theorem3", "theorem2", "theorem1", "lemmas", "enumerate",
        "classify"])
def test_each_command_loads_only_the_modules_it_calls(code, absent):
    loaded = {m for m in _loaded_modules(code) if m.startswith("sumset_lab")}
    assert "sumset_lab" in loaded
    assert not absent & loaded, sorted(absent & loaded)
    if "main(" in code:
        assert {"sumset_lab.cli", "sumset_lab.verify"} <= loaded
