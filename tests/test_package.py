"""The package namespace: lazy exports, and sweep tasks in fresh workers."""

import ast
import os
import subprocess
import sys

import pytest

import sumset_lab
from sumset_lab import verify

# every name the package exported when it still imported its submodules
# eagerly, by the submodule it came from
EXPORTS = {
    "core": (
        "MAX_ELEMENT", "IntegerSet", "NormalizedSet", "SetDomainError", "SumsetProfile",
        "double_mask", "double_size", "elements_of", "format_set_literal", "mask_of",
        "normalize", "parse_set_literal", "profile", "reflect", "restricted_mask",
        "restricted_size", "restricted_sumset", "sumset",
    ),
    "bounds": (
        "Bound", "BoundEntry", "BoundReport", "GoldenValue", "ap_cover_length",
        "bound_attained", "bound_satisfied", "doubling_bound", "evaluate_bounds",
        "freiman_bound", "freiman_lev_bound", "golden_ratio_bound", "halved_span_bound",
        "is_arithmetic_progression", "is_union_two_aps_same_diff", "narrow_window_bound",
    ),
    "structure": (
        "Decomposition", "ExceptionalProfile", "GapPatterns", "SplitTriple",
        "TopGapCandidate", "WitnessProfile", "check_exceptional_points", "decompose",
        "diff3_exception_case", "exceptional_growth_ok", "exceptional_profile",
        "find_admissible_split", "gap_patterns", "has_dense_prefix",
        "matches_consecutive_exception", "offset_count_bound", "split_at",
        "tail_pair_counts_ok", "top_gap_candidates", "top_gap_structure", "witness_profile",
    ),
    "families": (
        "FAMILY_KINDS", "FamilyKind", "FamilySpec", "dense_extremal_shape",
        "extremal_catalog", "family_members", "flagged_sporadics", "gen_even_odd",
        "gen_four_step", "gen_k7_below_floor", "gen_mod3_pair", "gen_mod3_shift",
        "gen_mod3_wide", "gen_two_intervals", "has_locked_fourth", "sporadic_catalog",
        "top_pair_catalog", "top_pair_family",
    ),
    "verify": (
        "DEFAULT_BUDGET", "BudgetExceeded", "Certificate", "EnumerationQuery",
        "classify_extremal", "enumerate_sets", "enumerate_tuples", "sweep_structure",
        "verify_conjecture", "verify_dense_prefix", "verify_low_second_max",
        "verify_span_classification",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_every_export_is_its_submodule_object():
    strays = [f"{module}.{name}" for module, names in EXPORTS.items() for name in names
              if getattr(sumset_lab, name) is not getattr(getattr(sumset_lab, module), name)]
    assert strays == []


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from sumset_lab import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) == set(sumset_lab.__all__)
    listed = dir(sumset_lab)
    assert set(NAMES) <= set(listed)
    assert {"core", "bounds", "structure", "families", "verify", "cli"} <= set(listed)
    assert sumset_lab.__version__ == verify.TOOL_VERSION


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sumset_lab.no_such_name
    with pytest.raises(ImportError):
        exec("from sumset_lab import no_such_name", {})


# one task of each kind that a pool worker runs: a theorem 1 row, a
# theorem 2 row, a structure row, a witness cell (span 2k-3, so the
# residue laws run), theorem 3's floor cell and the conjecture's, each
# with a budget that covers it whole
_TASKS = """
from sumset_lab import _rows, verify
tasks = [
    (_rows._low_second_row, verify._LOW_SECOND, 6, (10, 11, 12), 10**6),
    (_rows._dense_row, verify._DENSE, 7, (12, 13), 10**6),
    (_rows._structure_row, verify._DENSE, 7, (12, 13), 10**6),
    (_rows._witness_cell, ("gcd_one",), 8, (13,), 10**6),
    (verify._floor_cells, ("gcd_one",), 7, (11,), 10**6),
    (verify._conjecture_cell, ("gcd_one",), 7, (11,), 10**6),
]
"""


def test_sweep_tasks_run_in_a_fresh_interpreter():
    # a worker started fresh (the spawn start method) has loaded only
    # verify and the task's own module: each task must import what it
    # uses itself
    code = _TASKS + (
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.startswith('sumset_lab')))\n"
        "print(repr([verify._run_task(t) for t in tasks]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env, check=True)
    loaded, fresh = out.stdout.splitlines()
    assert ast.literal_eval(loaded) == ["sumset_lab", "sumset_lab._rows", "sumset_lab.core",
                                          "sumset_lab.verify"]
    namespace: dict = {}
    exec(_TASKS, namespace)
    here = [verify._run_task(t) for t in namespace["tasks"]]
    assert ast.literal_eval(fresh) == here
    assert all(cells for cells in here)
