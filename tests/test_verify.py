"""Enumeration engine, certificates, and verification drivers."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_lab import families, structure, verify
from sumset_lab.core import MAX_ELEMENT, NormalizedSet, SetDomainError, mask_of
from sumset_lab.families import extremal_catalog
from sumset_lab.verify import (
    DEFAULT_BUDGET,
    KNOWN_CONSTRAINTS,
    SCHEMA_VERSION,
    TOOL_VERSION,
    BudgetExceeded,
    Certificate,
    EnumerationQuery,
    classify_extremal,
    enumerate_sets,
    enumerate_tuples,
    sweep_structure,
    verify_conjecture,
    verify_dense_prefix,
    verify_low_second_max,
    verify_span_classification,
)

from helpers import count_normalized_sets, enumerate_bruteforce

PAYLOAD_KEYS = [
    "schema_version", "claim", "query", "outcome", "counterexamples",
    "observations", "missing", "spurious", "extremal_sets", "counts",
    "cap", "tool_version", "wall_time_ms",
]


DEMO_CERTIFICATES = pathlib.Path(__file__).resolve().parents[1] / "demos" / "certificates"


def _strip_time(payload: dict) -> dict:
    out = dict(payload)
    out.pop("wall_time_ms")
    return out


# ---------------------------------------------------------------------------
# EnumerationQuery


def test_query_validation():
    with pytest.raises(SetDomainError):
        EnumerationQuery(1, 3, 5)
    with pytest.raises(SetDomainError):
        EnumerationQuery(4, 2, 5)  # l_min below k-1
    with pytest.raises(SetDomainError):
        EnumerationQuery(4, 6, 5)  # empty range
    with pytest.raises(SetDomainError):
        EnumerationQuery(4, 3, 5, budget=0)
    with pytest.raises(SetDomainError):
        EnumerationQuery(4, 3, 5, constraints=("no_such_rule",))


def test_query_normalizes_constraints():
    q = EnumerationQuery(4, 3, 5, constraints=("gcd_one", "gcd_one", "growth_a_i_lt_2i"))
    assert q.constraints == ("gcd_one", "growth_a_i_lt_2i")
    assert set(KNOWN_CONSTRAINTS) >= set(q.constraints)


def test_query_exact_and_to_dict():
    q = EnumerationQuery.exact(5, 7, ("gcd_one",), budget=123)
    assert (q.l_min, q.l_max) == (7, 7)
    assert q.to_dict() == {
        "k": 5, "l_min": 7, "l_max": 7, "constraints": ["gcd_one"], "budget": 123,
    }
    assert EnumerationQuery(2, 1, 1).budget == DEFAULT_BUDGET
    assert EnumerationQuery._fields == ("k", "l_min", "l_max", "constraints", "budget")


# ---------------------------------------------------------------------------
# enumeration: frozen streams and brute-force equivalence


def test_enumerate_frozen_k3():
    q = EnumerationQuery.exact(3, 4, ("gcd_one",))
    assert list(enumerate_tuples(q)) == [(0, 1, 4), (0, 3, 4)]


def test_enumerate_lexicographic_order():
    q = EnumerationQuery(4, 3, 5)
    tups = list(enumerate_tuples(q))
    assert tups == sorted(tups)
    assert tups[0] == (0, 1, 2, 3)
    assert tups[-1] == (0, 3, 4, 5)


def test_enumerate_sets_wrapping():
    q = EnumerationQuery.exact(3, 4, ("gcd_one",))
    sets = list(enumerate_sets(q))
    assert [s.elements for s in sets] == [(0, 1, 4), (0, 3, 4)]
    assert sets[0].mask == 0b10011


def test_enumerate_sets_refuses_a_top_past_the_supported_maximum():
    # the sets are built without validation, so the query is checked as
    # IntegerSet checks its elements, in core's words; the plain tuples
    # of enumerate_tuples are still streamed
    query = EnumerationQuery.exact(3, MAX_ELEMENT + 1)
    with pytest.raises(SetDomainError,
                       match=f"element {MAX_ELEMENT + 1} exceeds the supported maximum"):
        next(enumerate_sets(query))
    assert next(enumerate_tuples(query)) == (0, 1, MAX_ELEMENT + 1)
    assert next(enumerate_sets(query._replace(l_min=MAX_ELEMENT, l_max=MAX_ELEMENT))).elements \
        == (0, 1, MAX_ELEMENT)


BRUTE_GRID = [
    (4, 7, ()),
    (4, 7, ("gcd_one",)),
    (5, 8, ("gcd_one",)),
    (5, 7, ("gcd_one", "last_eq_2k_minus_3",)),
    (6, 10, ("gcd_one", "growth_a_i_lt_2i", "last_ge_2k_minus_2")),
    (6, 12, ("gcd_one", "interior_lt_2k_minus_4", "last_ge_2k_minus_2")),
    (7, 11, ("gcd_one", "last_eq_2k_minus_3")),
    (7, 13, ("growth_a_i_lt_2i",)),
]


@pytest.mark.parametrize("k,l,cons", BRUTE_GRID)
def test_enumerate_matches_bruteforce(k, l, cons):
    q = EnumerationQuery.exact(k, l, cons)
    assert list(enumerate_tuples(q)) == enumerate_bruteforce(k, l, cons)


def test_enumerate_range_is_union_of_exact_spans():
    # the interior caps depend on l_max, so check every constraint tuple;
    # [6, 9] holds 2k-3 = 7 and 2k-2 = 8 at k = 5
    for cons in dict.fromkeys(cons for _k, _l, cons in BRUTE_GRID):
        got = list(enumerate_tuples(EnumerationQuery(5, 6, 9, cons)))
        expected = []
        for l in range(6, 10):
            expected += enumerate_bruteforce(5, l, cons)
        # range streams interleave by interior prefix, so compare as sets
        assert sorted(got) == sorted(expected), cons
        assert len(got) == len(expected), cons


@pytest.mark.parametrize("k,l", [(4, 9), (5, 9), (6, 11)])
def test_enumeration_counts_match_raw_combinations(k, l):
    q = EnumerationQuery.exact(k, l, ("gcd_one",))
    assert sum(1 for _ in enumerate_tuples(q)) == count_normalized_sets(k, l)


# ---------------------------------------------------------------------------
# budget


def test_budget_exceeded_mid_stream():
    full = list(enumerate_tuples(EnumerationQuery(6, 9, 11, ("gcd_one",))))
    q = EnumerationQuery(6, 9, 11, ("gcd_one",), budget=40)
    got = []
    with pytest.raises(BudgetExceeded) as exc:
        for t in enumerate_tuples(q):
            got.append(t)
    assert exc.value.nodes == 41
    # everything yielded before the failure is a prefix of the full stream
    assert got == full[: len(got)]
    assert 0 < len(got) < len(full)


def test_shared_counter_draws_one_budget():
    counter = [0]
    q1 = EnumerationQuery.exact(4, 6, budget=30)
    list(enumerate_tuples(q1, counter=counter))
    used = counter[0]
    assert used > 0
    q2 = EnumerationQuery.exact(4, 7, budget=used + 5)
    with pytest.raises(BudgetExceeded):
        list(enumerate_tuples(q2, counter=counter))


# ---------------------------------------------------------------------------
# certificates


def test_certificate_payload_and_json():
    cert = Certificate(claim="demo", query={"k": 3})
    payload = cert.to_payload()
    assert list(payload) == PAYLOAD_KEYS
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["tool_version"] == TOOL_VERSION
    text = cert.to_json()
    assert text.endswith("}\n")
    assert json.loads(text) == payload
    # canonical: keys sorted, two-space indent
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_certificate_derives_its_outcome():
    assert Certificate("demo", {}).outcome == "verified"
    assert Certificate("demo", {}, counts={"truncated": False}).outcome == "verified"
    assert Certificate("demo", {}, counts={"truncated": True}).outcome == "budget_exhausted"
    # a counterexample refutes even a truncated sweep
    cert = Certificate("demo", {}, counterexamples=["{0,1,2}"], counts={"truncated": True})
    assert cert.outcome == "refuted"


def test_certificate_fields_after_the_query_are_keyword_only():
    # a positional outcome would otherwise pass its letters off as counterexamples
    with pytest.raises(TypeError):
        Certificate("demo", {}, "verified")


def test_certificate_lists_are_sorted_without_repeats():
    cert = Certificate(
        "demo", {}, counterexamples=("b", "a", "b"), observations=["b", "a", "a"],
        missing=["b", "a"], spurious=("a", "b", "a"), extremal_sets=["b", "b", "a"],
    )
    for name in ("counterexamples", "observations", "missing", "spurious", "extremal_sets"):
        assert getattr(cert, name) == ["a", "b"]
    assert cert.outcome == "refuted"


@pytest.mark.parametrize("path", sorted(DEMO_CERTIFICATES.glob("*.json")), ids=lambda p: p.stem)
def test_demo_certificate_rebuilds_from_its_own_fields(path):
    # the outcome and the two versions are the constructor's own; every
    # other field, given back, gives the file's text
    text = path.read_text(encoding="utf-8")
    rest = json.loads(text)
    for derived in ("outcome", "schema_version", "tool_version"):
        del rest[derived]
    cert = Certificate(rest.pop("claim"), rest.pop("query"), **rest)
    assert cert.to_json() == text


# ---------------------------------------------------------------------------
# drivers: frozen reduced-scope results


def test_verify_conjecture_frozen():
    cert = verify_conjecture(7, 18)
    assert cert.outcome == "verified"
    assert cert.counterexamples == []
    assert cert.counts == {
        "enumerated": 30647, "extremal": 596, "nodes": 74857, "truncated": False,
    }
    assert cert.cap == 18
    assert len(cert.observations) == 11
    assert cert.observations[0] == (
        "below-threshold k=7 l=10: {0,1,4,5,6,9,10} has restricted size 13 < 14"
    )
    assert all("k=7" in o for o in cert.observations)


def test_verify_conjecture_k10_frozen():
    # counts from the plain enumerator, before subtree counting replaced it
    cert = verify_conjecture(10, 24)
    assert cert.outcome == "verified"
    assert cert.counts == {
        "enumerated": 2574850, "extremal": 3227, "nodes": 6429671, "truncated": False,
    }
    assert len(cert.observations) == 20


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_verify_conjecture_k12_frozen():
    # counts from the stream-order walker, before cells took them from a plan
    cert = verify_conjecture(12, 28, budget=10**11)
    assert cert.outcome == "verified"
    assert cert.counts == {
        "enumerated": 46278693, "extremal": 9373, "nodes": 117412065, "truncated": False,
    }
    assert len(cert.observations) == 29
    # the findings too, each below-threshold set in its line: digests
    # computed before the conjecture cells were walked in half
    assert _digest(cert.observations) == (
        "6106e2aa1838bbe5d73f7f242ea926ab1909cc64aa2fc5243e06d358b5ac74ad"
    )
    # the default budget gives each of the 225 cells 1/225 of 10^9 nodes:
    # most cells fit their share and are walked, and the 8 largest
    # are skipped and named with the budget that walks every cell
    cert = verify_conjecture(12, 28)
    assert cert.outcome == "budget_exhausted"
    assert cert.counts == {
        "enumerated": 15228806, "extremal": 9150, "nodes": 38393342, "truncated": True,
    }
    assert len(cert.observations) == 38
    budget_notes = [o for o in cert.observations if o.startswith("budget: ")]
    assert budget_notes[0] == (
        "budget: 8 of 225 cells skipped; --budget 4850863650 walks every cell"
    )
    assert budget_notes[-1] == (
        "budget: cell k=12 l=28 skipped, 21559394 planned nodes over its share 4444444"
    )
    assert len(budget_notes) == 9
    assert _digest(cert.observations) == (
        "96e092d2225ed18be77af46339b39dd0a42f6e7e23a20ecb29a4a3524521b2a9"
    )


def test_verify_conjecture_validation():
    with pytest.raises(SetDomainError):
        verify_conjecture(2)
    with pytest.raises(SetDomainError):
        verify_conjecture(8, 5)


def test_verify_low_second_max_frozen():
    cert = verify_low_second_max(6)
    assert cert.outcome == "verified"
    assert cert.counts == {
        "enumerated": 441, "extremal": 9, "nodes": 1610,
        "splits_validated": 243, "truncated": False,
    }
    assert cert.cap == 18
    assert cert.claim == "low_second_max_floor"


def test_verify_low_second_max_k10_frozen():
    # counts from the cell-by-cell walk, before the cells of a k shared
    # one walk over their heads
    cert = verify_low_second_max(10)
    assert cert.outcome == "verified"
    assert cert.counterexamples == []
    assert cert.counts == {
        "enumerated": 79092, "extremal": 45, "nodes": 351485,
        "splits_validated": 60597, "truncated": False,
    }
    assert cert.cap == 26


def test_verify_dense_prefix_frozen():
    cert = verify_dense_prefix(7)
    assert cert.outcome == "verified"
    assert cert.counts == {
        "enumerated": 576, "extremal": 2, "nodes": 1458, "truncated": False,
    }
    assert cert.extremal_sets == ["{0,1,3,4,6,9,12}", "{0,1,3,4,7,10}"]
    assert cert.observations == [
        "k=6: equality occurs at top values [10]",
        "k=7: equality occurs at top values [12]",
    ]
    assert cert.missing == [] and cert.spurious == []


def test_dense_prefix_equality_without_the_rigid_shape_is_refuted(monkeypatch):
    # the shape check judges each equality set in the driver's merge,
    # which reads it from families when it runs
    monkeypatch.setattr(families, "dense_extremal_shape", lambda ns: False)
    cert = verify_dense_prefix(7)
    assert cert.outcome == "refuted"
    equality = ["{0,1,3,4,6,9,12}", "{0,1,3,4,7,10}"]
    assert cert.counterexamples == [f"{lit}: equality without the rigid shape" for lit in equality]
    assert [o for o in cert.observations if o.startswith("shape mismatch")] == [
        f"shape mismatch on equality set {lit}" for lit in equality
    ]


# ---------------------------------------------------------------------------
# refutation branches, by fault injection: each driver turns a finding
# into the counterexample it words


def _find_below(monkeypatch, cell, tup):
    """Patch both walkers so that the cell (k, l) also finds ``tup``, its
    restricted size one below the cell's floor."""
    k, l = cell
    walk_span, walk_row = verify._walk_span, verify._walk_row

    def span(k_, l_, bound, *args, **kwargs):
        found, tallied = walk_span(k_, l_, bound, *args, **kwargs)
        if (k_, l_) == cell:
            found = found + [(tup, bound - 1)]
        return found, tallied

    def row(k_, tops, constraints, check=None):
        below, at = walk_row(k_, tops, constraints, check)
        if k_ == k and l in below:
            below[l].append((tup, 3 * k - 8))
        return below, at

    monkeypatch.setattr(verify, "_walk_span", span)
    monkeypatch.setattr(verify, "_walk_row", row)


def test_a_conjecture_set_below_the_floor_refutes_at_k8_and_is_observed_below(monkeypatch):
    plain = verify_conjecture(8, 13)
    _find_below(monkeypatch, (8, 13), (0, 1, 2, 3, 4, 5, 6, 13))
    _find_below(monkeypatch, (7, 13), (0, 1, 2, 3, 4, 5, 13))
    cert = verify_conjecture(8, 13)
    assert plain.outcome == "verified" and cert.outcome == "refuted"
    assert cert.counterexamples == ["{0,1,2,3,4,5,6,13}"]
    # k = 7 is below the conjecture's hypothesis: an observation, not a refutation
    assert set(cert.observations) - set(plain.observations) == {
        "below-threshold k=7 l=13: {0,1,2,3,4,5,13} has restricted size 13 < 14"
    }


@pytest.mark.parametrize("driver, cell, tup", [
    (verify_low_second_max, (6, 10), (0, 1, 2, 3, 7, 10)),
    (verify_dense_prefix, (6, 10), (0, 1, 2, 3, 4, 10)),
    (verify_span_classification, (6, 9), (0, 1, 2, 3, 4, 9)),
], ids=["theorem1", "theorem2", "theorem3"])
def test_a_set_below_the_floor_refutes_the_theorems(monkeypatch, driver, cell, tup):
    _find_below(monkeypatch, cell, tup)
    cert = driver(6)
    assert cert.outcome == "refuted"
    lit = "{%s}" % ",".join(map(str, tup))
    assert cert.counterexamples == [f"{lit}: restricted size 10 < 11"]


def test_dense_prefix_equality_off_the_mod3_family_is_refuted(monkeypatch):
    # the driver reads gen_mod3_wide from families when it runs: at k = 7
    # it then expects a set the sweep does not find, and finds one it
    # does not expect
    wide = families.gen_mod3_wide
    monkeypatch.setattr(families, "gen_mod3_wide",
                        lambda k: (0, 1, 2, 3, 4, 5, 12) if k == 7 else wide(k))
    cert = verify_dense_prefix(7)
    assert cert.outcome == "refuted"
    assert cert.counterexamples == [
        "{0,1,2,3,4,5,12}: expected equality set not found at k=7",
        "{0,1,3,4,6,9,12}: unexpected equality set at k=7",
    ]
    assert cert.missing == ["{0,1,3,4,6,9,12}"]
    assert cert.spurious == ["{0,1,2,3,4,5,12}"]


def test_span_classification_off_the_catalog_is_refuted(monkeypatch):
    # the driver reads extremal_catalog from families when it runs: at
    # k = 6 the catalog loses its first member and gains a set with
    # |2^A| = 12 > 3k-7
    catalog = families.extremal_catalog
    not_extremal = NormalizedSet((0, 1, 2, 3, 4, 9))
    monkeypatch.setattr(families, "extremal_catalog",
                        lambda k: catalog(k)[1:] + (not_extremal,) if k == 6 else catalog(k))
    cert = verify_span_classification(6)
    assert cert.outcome == "refuted"
    assert cert.counterexamples == [
        "{0,1,2,3,4,9}: cataloged at k=6 but not extremal",
        "{0,1,2,3,8,9}: extremal at k=6 but not in the catalog",
    ]
    assert cert.missing == ["{0,1,2,3,8,9}"]
    assert cert.spurious == ["{0,1,2,3,4,9}"]
    # a 54-node share walks the cells k = 4 and 5 and skips k = 6, 195
    # planned nodes: its catalog entries, the added one too, are spurious
    # but refute nothing
    cert = verify_span_classification(6, budget=162)
    assert cert.outcome == "budget_exhausted"
    assert "budget: cell k=6 l=9 skipped, 195 planned nodes over its share 54" in cert.observations
    assert cert.counterexamples == [] and cert.missing == []
    assert "{0,1,2,3,4,9}" in cert.spurious


def test_structure_sweep_records_a_head_failure_at_every_top(monkeypatch):
    # the structure row reads _head_failures from structure when it runs
    fails = structure._head_failures
    monkeypatch.setattr(
        structure, "_head_failures",
        lambda head, mask, reach: ("injected failure",) if head == (0, 1, 2, 3, 4)
        else fails(head, mask, reach),
    )
    cert = sweep_structure(6)
    assert cert.outcome == "refuted"
    assert cert.counterexamples == [
        f"k=6 l={l}: {{0,1,2,3,4,{l}}}: injected failure" for l in range(10, 19)
    ]


def test_witness_cell_refutes_a_set_with_more_than_two_witnesses(monkeypatch):
    # the witness cell reads _witness_mask from structure when it runs;
    # {0,1,3,4,7,8,9,12} has the witnesses 2 and 6, and gains a third
    target = mask_of((0, 1, 3, 4, 7, 8, 9, 12))
    witness_mask = structure._witness_mask
    monkeypatch.setattr(
        structure, "_witness_mask",
        lambda mask, r, l: witness_mask(mask, r, l) | (1 << 10 if mask == target else 0),
    )
    cert = sweep_structure(8, 8)
    assert cert.outcome == "refuted"
    assert cert.counterexamples == ["k=8 l=12: {0,1,3,4,7,8,9,12}: 3 witnesses {2,6,10}"]
    # the set counts as no pair: sweep_structure(8) has 33
    assert cert.counts["witness_pairs"] == 32


def test_verify_span_classification_frozen():
    cert = verify_span_classification(6)
    assert cert.outcome == "verified"
    assert cert.counts == {
        "enumerated": 96, "extremal": 21, "nodes": 264, "truncated": False,
    }
    assert cert.missing == [] and cert.spurious == []
    assert len(cert.extremal_sets) == 21
    assert cert.observations == [
        "flagged catalog entry {0,3,4,6,10,11,13,14,17} matches no enumerated "
        "extremal set; recorded as a catalog typo"
    ]


def _every_cell(cells, walks):
    """The observation of a sweep whose budget skips all its cells."""
    return f"budget: {cells} of {cells} cells skipped; --budget {walks} walks every cell"


# the counts of the larger boxes that the CI workflow also pins on the
# certificates of the installed entry point, read here in process: the
# sweep, the counts it must give, and its number of observations or one
# observation it must make.  A one-node share skips every cell of the
# k = 12 boxes, so only their plans run, and each names the budget that
# walks every cell
PINNED_COUNTS = [
    pytest.param(lambda: sweep_structure(11),
                 {"enumerated": 187092, "extremal": 108, "witness_pairs": 260}, None,
                 id="lemmas-k11"),
    pytest.param(lambda: sweep_structure(12),
                 {"enumerated": 690972, "extremal": 136, "witness_pairs": 454}, None,
                 id="lemmas-k12"),
    pytest.param(lambda: verify_conjecture(9, 22),
                 {"enumerated": 598247, "nodes": 1481160, "extremal": 1946}, 18,
                 id="conjecture-k9-cap22"),
    pytest.param(lambda: verify_conjecture(9, 22, budget=200000),
                 {"enumerated": 7895, "nodes": 20860, "extremal": 680}, 47,
                 id="conjecture-k9-cap22-budget200000"),
    pytest.param(lambda: verify_conjecture(11, 26),
                 {"enumerated": 10961892, "nodes": 27598828, "extremal": 5415}, 26,
                 id="conjecture-k11-cap26"),
    pytest.param(lambda: verify_dense_prefix(9, cap=30),
                 {"enumerated": 9963, "nodes": 24634, "extremal": 3}, None,
                 id="theorem2-k9-cap30"),
    pytest.param(lambda: verify_low_second_max(12),
                 {"enumerated": 1129284, "extremal": 54, "splits_validated": 915867}, None,
                 id="theorem1-k12"),
    pytest.param(lambda: verify_low_second_max(9, cap=30),
                 {"enumerated": 37055, "extremal": 35, "splits_validated": 27092}, None,
                 id="theorem1-k9-cap30"),
    pytest.param(lambda: verify_conjecture(12, 28, budget=225),
                 {"nodes": 0}, _every_cell(225, 4850863650), id="conjecture-k12-plan"),
    pytest.param(lambda: sweep_structure(12, budget=135),
                 {"nodes": 0}, _every_cell(135, 72558585), id="lemmas-k12-plan"),
    pytest.param(lambda: verify_low_second_max(12, budget=90),
                 {"nodes": 0}, _every_cell(90, 40220910), id="theorem1-k12-plan"),
]


@pytest.mark.parametrize("sweep, counts, observations", PINNED_COUNTS)
def test_the_counts_of_the_larger_boxes_stay_pinned(sweep, counts, observations):
    cert = sweep()
    assert {field: cert.counts[field] for field in counts} == counts
    if isinstance(observations, int):
        assert len(cert.observations) == observations
    elif observations is not None:
        assert observations in cert.observations


def test_verify_span_classification_validation():
    with pytest.raises(SetDomainError):
        verify_span_classification(3)
    with pytest.raises(SetDomainError):
        verify_span_classification(13)


def test_sweep_structure_frozen():
    cert = sweep_structure(8)
    assert cert.outcome == "verified"
    assert cert.counterexamples == []
    assert cert.counts == {
        "enumerated": 3480, "extremal": 27, "nodes": 9550,
        "witness_pairs": 33, "truncated": False,
    }
    assert cert.cap == 22


def test_classify_extremal_matches_catalog():
    got = [s.elements for s in classify_extremal(6, 9)]
    assert got == [s.elements for s in extremal_catalog(6)]
    assert len(got) == 13
    with pytest.raises(SetDomainError):
        classify_extremal(3, 3)


def test_classify_extremal_refuses_a_span_past_the_supported_maximum():
    # its sets are built without validation: NormalizedSet refuses their
    # top, and so does classify_extremal, in core's words
    top = MAX_ELEMENT + 1
    message = f"element {top} exceeds the supported maximum {MAX_ELEMENT}"
    with pytest.raises(SetDomainError, match=message):
        NormalizedSet((0, 1, top - 1, top))
    with pytest.raises(SetDomainError, match=message):
        classify_extremal(4, top)


def test_driver_budget_exhaustion():
    cert = verify_conjecture(7, 18, budget=500)
    assert cert.outcome == "budget_exhausted"
    assert cert.counts["truncated"] is True
    assert cert.counterexamples == []


def test_truncated_sweeps_count_only_the_cells_that_fit_their_share():
    # a cell over its share is skipped whole, so a truncated sweep's nodes
    # are those of the cells whose stream fits the share: here the 126
    # cells get 6 nodes each, and the enumerator finishes 9 of them
    cert = verify_conjecture(9, 22, budget=777)
    fit = 0
    for k in range(3, 10):
        for l in range(k - 1, 23):
            counter = [0]
            try:
                for _tup in enumerate_tuples(
                    EnumerationQuery.exact(k, l, ("gcd_one",), budget=6), counter
                ):
                    pass
            except BudgetExceeded:
                continue
            fit += counter[0]
    assert cert.counts["nodes"] == fit == 30
    # 21 cells with a one-node share each: every one is skipped
    cert = verify_conjecture(4, budget=21)
    assert cert.counts == {"enumerated": 0, "extremal": 0, "nodes": 0, "truncated": True}
    assert "budget: 21 of 21 cells skipped; --budget 2520 walks every cell" in cert.observations


SUMMARY = re.compile(r"budget: (\d+) of (\d+) cells skipped; --budget (\d+) walks every cell")


@st.composite
def small_sweeps(draw):
    """(driver, args): one of the five drivers on a small box."""
    driver = draw(st.sampled_from([
        verify_conjecture, verify_low_second_max, verify_dense_prefix,
        verify_span_classification, sweep_structure,
    ]))
    if driver is verify_conjecture:
        k_max = draw(st.integers(min_value=3, max_value=6))
        l_max = draw(st.integers(min_value=2 * k_max - 4, max_value=2 * k_max + 2))
        return driver, (k_max, l_max)
    if driver is verify_span_classification:
        return driver, (draw(st.integers(min_value=4, max_value=7)),)
    # structure's witness cells start at k = 8
    k_max = draw(st.integers(min_value=3, max_value=8 if driver is sweep_structure else 7))
    return driver, (k_max,)


@given(small_sweeps(), st.data())
@settings(max_examples=60, deadline=None)
def test_sweeps_walk_within_their_budget_and_name_the_budget_that_walks_every_cell(sweep, data):
    driver, args = sweep
    full = driver(*args)
    assert full.outcome == "verified"
    # a one-node budget is refused with the box's cell count, unless the
    # box has one cell
    try:
        driver(*args, budget=1)
        n_cells = 1
    except SetDomainError as exc:
        n_cells = int(re.search(r"the box's (\d+) cells", str(exc)).group(1))
    nodes = full.counts["nodes"]
    budget = data.draw(st.one_of(st.integers(min_value=n_cells, max_value=n_cells + 10 * nodes),
                                 st.integers(min_value=n_cells, max_value=n_cells * (nodes + 1))))
    cert = driver(*args, budget=budget)
    assert cert.counts["nodes"] <= budget
    summary = [m for m in map(SUMMARY.fullmatch, cert.observations) if m]
    assert cert.counts["truncated"] == bool(summary)
    if not summary:
        assert cert.outcome == "verified" and cert.counts == full.counts
        return
    (line,) = summary
    skipped, cells, need = map(int, line.groups())
    assert cells == n_cells
    assert skipped == sum(o.startswith("budget: cell ") for o in cert.observations) >= 1
    enough = driver(*args, budget=need)
    assert enough.outcome == "verified" and enough.counts == full.counts
    assert driver(*args, budget=need - 1).outcome == "budget_exhausted"


def test_drivers_refuse_a_budget_below_one():
    # a share clamped up to one node per cell would walk cells on a budget
    # that was never given; a budget of 1 is below every box's cell count
    # here, so it cannot give each cell a node either
    drivers = [verify_conjecture, verify_low_second_max, verify_dense_prefix,
               verify_span_classification, sweep_structure]
    for driver in drivers:
        for budget in (0, -5, 1):
            with pytest.raises(SetDomainError, match="budget"):
                driver(5, budget=budget)


def test_dense_prefix_truncation_is_not_refutation():
    # a truncated sweep that never reached the expected equality sets must
    # report budget_exhausted, not refuted: absence only counts on a
    # complete enumeration
    cert = verify_dense_prefix(7, budget=100)
    assert cert.outcome == "budget_exhausted"
    assert cert.counts["truncated"] is True
    assert cert.counterexamples == []
    assert len(cert.spurious) == 2  # both expected sets unreached, still listed


def test_classification_truncation_is_not_refutation():
    cert = verify_span_classification(6, budget=50)
    assert cert.outcome == "budget_exhausted"
    assert cert.counts["truncated"] is True
    assert cert.counterexamples == []
    assert cert.spurious != []  # unreached catalog entries stay informational


def test_driver_determinism_and_jobs_invariance():
    a = _strip_time(verify_dense_prefix(7).to_payload())
    b = _strip_time(verify_dense_prefix(7).to_payload())
    c = _strip_time(verify_dense_prefix(7, jobs=2).to_payload())
    assert a == b == c


def test_sweep_structure_jobs_invariance():
    # k_max 8 takes in the witness cells, which start at k = 8
    serial = _strip_time(sweep_structure(8).to_payload())
    assert serial["counts"]["witness_pairs"] > 0
    assert _strip_time(sweep_structure(8, jobs=2).to_payload()) == serial


def test_import_leaves_the_process_pool_unloaded():
    # a serial run must not pay for importing the pool's modules
    code = (
        "import sys, sumset_lab, sumset_lab.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
