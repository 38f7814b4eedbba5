"""The result records: immutable tuples, validated where they validate."""

import pickle

import pytest

from sumset_lab import (
    BoundEntry,
    BoundReport,
    Certificate,
    Decomposition,
    EnumerationQuery,
    ExceptionalProfile,
    FamilyKind,
    FamilySpec,
    GapPatterns,
    GoldenValue,
    SetDomainError,
    SplitTriple,
    SumsetProfile,
    TopGapCandidate,
    WitnessProfile,
)

PLAIN = (
    SumsetProfile,
    BoundEntry,
    BoundReport,
    ExceptionalProfile,
    GapPatterns,
    TopGapCandidate,
    WitnessProfile,
    Decomposition,
    SplitTriple,
    FamilyKind,
)
VALIDATED = (
    GoldenValue(1, 2),
    FamilySpec("two_intervals", 6, theta=7),
    FamilySpec("sporadic", 6),
    EnumerationQuery(5, 6, 9, ("gcd_one", "last_ge_2k_minus_2", "gcd_one")),
)


def test_golden_value_needs_nonnegative_q():
    assert GoldenValue(0, 0).eq_int(0)
    with pytest.raises(SetDomainError):
        GoldenValue(0, -1)


@pytest.mark.parametrize("record", VALIDATED, ids=lambda r: type(r).__name__)
def test_validated_record_survives_pickle(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


@pytest.mark.parametrize(
    "record",
    [cls(*range(len(cls._fields))) for cls in PLAIN] + list(VALIDATED),
    ids=lambda r: type(r).__name__,
)
def test_records_are_immutable_tuples(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert isinstance(record, tuple) and tuple(record) == record


def test_validated_records_validate_on_replace():
    q = EnumerationQuery(4, 6, 6)
    assert q._replace(constraints=["gcd_one", "gcd_one"]).constraints == ("gcd_one",)
    with pytest.raises(SetDomainError):
        q._replace(constraints=("no_such_constraint",))
    with pytest.raises(SetDomainError):
        GoldenValue(3, 1)._replace(q=-1)
    with pytest.raises(SetDomainError):
        FamilySpec("two_intervals", 6, theta=7)._replace(theta=99)


def test_enumeration_query_stores_constraints_sorted():
    q = VALIDATED[-1]
    assert q.constraints == ("gcd_one", "last_ge_2k_minus_2")
    assert q == (5, 6, 9, ("gcd_one", "last_ge_2k_minus_2"), q.budget)


def test_certificates_do_not_share_defaults():
    a = Certificate(claim="a", query={})
    b = Certificate(claim="b", query={})
    for name in ("counterexamples", "observations", "missing", "spurious", "extremal_sets"):
        getattr(a, name).append("x")
        assert getattr(b, name) == []
    a.counts["sets"] = 1
    assert b.counts == {}
    a.wall_time_ms = 5
    assert a.to_payload()["wall_time_ms"] == 5 and b.wall_time_ms == 0
