"""Sumsets and restricted sumsets of finite integer sets.

Computation kernels, every known lower bound on |2A| and |2^A| for sets
with a prescribed cardinality and span, generators for all extremal
families, structural checkers for the dense-prefix and two-witness
regimes, and exhaustive desk-scale certification with machine-readable
certificates.

Importing the package loads none of its submodules: each exported name,
and each submodule, loads on first use (PEP 562), so a process pays only
for the modules its work calls.
"""

from importlib import import_module as _import_module

# set before the submodules load: verify stamps it into every certificate
__version__ = "0.1.0"

_SUBMODULES = ("core", "bounds", "structure", "families", "verify", "cli")

# each exported name, by the submodule that holds it
_EXPORTS = {
    "core": (
        "MAX_ELEMENT", "IntegerSet", "NormalizedSet", "SetDomainError", "SumsetProfile",
        "double_mask", "double_size", "elements_of", "format_set_literal",
        "freiman_lev_bound", "has_dense_prefix", "mask_of", "normalize",
        "parse_set_literal", "profile", "reflect", "restricted_mask", "restricted_size",
        "restricted_sumset", "sumset",
    ),
    "bounds": (
        "Bound", "BoundEntry", "BoundReport", "GoldenValue", "ap_cover_length",
        "bound_attained", "bound_satisfied", "doubling_bound", "evaluate_bounds",
        "freiman_bound", "golden_ratio_bound", "halved_span_bound",
        "is_arithmetic_progression", "is_union_two_aps_same_diff",
        "narrow_window_bound",
    ),
    "structure": (
        "Decomposition", "ExceptionalProfile", "GapPatterns", "SplitTriple",
        "TopGapCandidate", "WitnessProfile", "check_exceptional_points", "decompose",
        "diff3_exception_case", "exceptional_growth_ok", "exceptional_profile",
        "find_admissible_split", "gap_patterns", "matches_consecutive_exception",
        "offset_count_bound", "split_at", "tail_pair_counts_ok", "top_gap_candidates",
        "top_gap_structure", "witness_profile",
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

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, later lookups skip this hook
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
