"""Exact lower bounds for sumsets of normalized sets, and progression tests.

Every verdict here is computed in exact arithmetic.  Half-integral
bounds ride on :class:`fractions.Fraction`; the golden-ratio bound is
kept symbolically as ``(p + q*sqrt(5)) / 2`` and compared through its
defining quadratic, so no floating-point rounding can flip a verdict.
Each bound with a branch has a private integer form (the Freiman bound
itself, twice the halved-span bound, or the golden pair ``(p, q)``)
holding its formula; the public function and :func:`evaluate_bounds`
both read it, and the report builds its entries from these integers
without a dimension check, a Fraction or a GoldenValue per call.

Throughout, ``k`` is the cardinality of a normalized set and ``l`` its
largest element, so ``l >= k - 1``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import sub
from typing import NamedTuple, Optional, Union

from .core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    _require_dimensions,
    _set_masks,
    freiman_lev_bound,
)

__all__ = [
    "GoldenValue",
    "Bound",
    "BoundEntry",
    "BoundReport",
    "doubling_bound",
    "freiman_bound",
    "freiman_lev_bound",
    "halved_span_bound",
    "golden_ratio_bound",
    "narrow_window_bound",
    "bound_satisfied",
    "bound_attained",
    "evaluate_bounds",
    "is_arithmetic_progression",
    "ap_cover_length",
    "is_union_two_aps_same_diff",
]


def _golden_leq(p: int, q: int, n: int) -> bool:
    """Whether (p + q*sqrt(5)) / 2 <= n, decided by the defining quadratic."""
    d = 2 * n - p
    return d >= 0 and 5 * q * q <= d * d


def _golden_approx(p: int, q: int) -> float:
    return (p + q * 5 ** 0.5) / 2.0


class _GoldenFields(NamedTuple):
    p: int
    q: int


class GoldenValue(_GoldenFields):
    """The exact number (p + q*sqrt(5)) / 2 with integers p and q >= 0."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> GoldenValue:
        if q < 0:
            raise SetDomainError("GoldenValue needs q >= 0")
        return super().__new__(cls, p, q)

    # _replace builds through _make: keep it validating
    _make = classmethod(lambda cls, fields: cls(*fields))

    def leq_int(self, n: int) -> bool:
        """Whether self <= n, decided by the defining quadratic."""
        return _golden_leq(self.p, self.q, n)

    def eq_int(self, n: int) -> bool:
        """Whether self == n exactly (impossible unless q == 0)."""
        return self.q == 0 and self.p == 2 * n

    def ceil(self) -> int:
        """Smallest integer n with self <= n."""
        n = (self.p + isqrt(5 * self.q * self.q)) // 2
        while not self.leq_int(n):
            n += 1
        return n

    def __float__(self) -> float:
        return _golden_approx(self.p, self.q)


Bound = Union[int, Fraction, GoldenValue]


def doubling_bound(k: int) -> int:
    """Floor for |A + A| over all k-sets: 2k - 1."""
    if k < 1:
        raise SetDomainError(f"doubling bound needs k >= 1, got {k}")
    return 2 * k - 1


def freiman_bound(k: int, l: int) -> int:
    """Floor for |A + A| by span: l + k when l <= 2k - 3, else 3k - 3."""
    _require_dimensions(k, l)
    return _freiman(k, l)


def _freiman(k: int, l: int) -> int:
    """:func:`freiman_bound` without the dimension check."""
    return l + k if l <= 2 * k - 3 else 3 * k - 3


# freiman_lev_bound, the conjectured restricted floor, is defined in core,
# so that the floor sweeps need not load this module, and re-exported here


def halved_span_bound(k: int, l: int) -> Fraction:
    """Proven half-integral floor for the restricted sumset.

    (l + 3k - 7) / 2 when l <= 2k - 3, else (5k - 10) / 2.
    """
    _require_dimensions(k, l)
    return Fraction(_halved_span_x2(k, l), 2)


def _halved_span_x2(k: int, l: int) -> int:
    """Twice :func:`halved_span_bound`."""
    return l + 3 * k - 7 if l <= 2 * k - 3 else 5 * k - 10


def golden_ratio_bound(k: int, l: int) -> Bound:
    """Proven floor for the restricted sumset with a golden-ratio slope.

    l + k - 2 when l <= 2k - 5, else (t + 1)k - 6 where t is the golden
    ratio (1 + sqrt(5)) / 2.  The second branch is returned as an exact
    :class:`GoldenValue` ((3k - 12) + k*sqrt(5)) / 2.
    """
    _require_dimensions(k, l)
    p, q = _golden_pair(k, l)
    return GoldenValue(p, q) if q else p // 2


def _golden_pair(k: int, l: int) -> tuple[int, int]:
    """:func:`golden_ratio_bound` as the pair (p, q) of (p + q*sqrt(5)) / 2;
    q is 0 on the integral branch."""
    if l <= 2 * k - 5:
        return 2 * (l + k - 2), 0
    return 3 * k - 12, k


def narrow_window_bound(k: int, l: int) -> int:
    """Proven floor 3k - 7 for the restricted sumset when k >= 5 and
    2k - 4 <= l <= 2k - 3.

    Under this hypothesis the floor is broken: {0,1,4,5,6,9,10} (k = 7,
    l = 10 = 2k - 4) has |2^A| = 13 < 14, so the bound report lists it as
    unmet.  Whether the hypothesis or the label is wrong is open (the
    ROADMAP item "certificates that check themselves"); until then the
    bound keeps its stated form.
    """
    _require_dimensions(k, l, k_floor=5)
    if not 2 * k - 4 <= l <= 2 * k - 3:
        raise SetDomainError(f"narrow window needs 2k-4 <= l <= 2k-3, got k={k}, l={l}")
    return 3 * k - 7


def bound_satisfied(bound: Bound, n: int) -> bool:
    """Whether the integer cardinality n meets the bound (n >= bound)."""
    if isinstance(bound, GoldenValue):
        return bound.leq_int(n)
    return n >= bound


def bound_attained(bound: Bound, n: int) -> bool:
    """Whether n equals the bound exactly (never true for irrational bounds)."""
    if isinstance(bound, GoldenValue):
        return bound.eq_int(n)
    return n == bound


class BoundEntry(NamedTuple):
    """One bound evaluated against one set.

    ``bound_x2`` is the exact bound scaled by 2 (half-integral bounds
    stay integral); it is ``None`` for irrational bounds, which are
    carried only through their verdicts and ``bound_approx``.
    """

    target: str  # "double" or "restricted"
    bound_x2: Optional[int]
    bound_approx: float
    satisfied: bool
    tight: bool

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "bound_x2": self.bound_x2,
            "bound_approx": self.bound_approx,
            "satisfied": self.satisfied,
            "tight": self.tight,
        }


class BoundReport(NamedTuple):
    """All applicable bounds evaluated against one normalized set."""

    k: int
    l: int
    card_double: int
    card_restricted: int
    entries: dict[str, BoundEntry]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "card_double": self.card_double,
            "card_restricted": self.card_restricted,
            "bounds": {name: e.to_dict() for name, e in sorted(self.entries.items())},
        }


def _x2_entry(target: str, bound_x2: int, n: int) -> BoundEntry:
    """The entry of a rational bound, given twice its value.  Its
    denominator is 1 or 2, so bound_x2 / 2 is the float of the bound."""
    return BoundEntry(target, bound_x2, bound_x2 / 2, 2 * n >= bound_x2, 2 * n == bound_x2)


def evaluate_bounds(a: NormalizedSet) -> BoundReport:
    """Evaluate every applicable lower bound against ``a``.

    Requires k >= 3.  The narrow-window entry appears only when its
    hypothesis (k >= 5 and 2k - 4 <= l <= 2k - 3) holds.  The two
    cardinalities are the popcounts of the masks in the set's context
    (``core._set_masks``), which one sweep of the set's head fills for
    the whole analyze pipeline.  Each entry is built from its bound's
    integer form, with no dimension check past the one above, and equals
    the entry of the public bound function's exact value.
    """
    elems = a._elements
    k, l = len(elems), elems[-1]
    if k < 3:
        raise SetDomainError(f"bound report needs k >= 3, got k={k}")
    double, restricted, _ = _set_masks(a)
    nd, nr = double.bit_count(), restricted.bit_count()
    return BoundReport(k, l, nd, nr, _entries(k, l, nd, nr))


def _entries(k: int, l: int, nd: int, nr: int) -> dict[str, BoundEntry]:
    """The report's entries for a k-set with top l, |A + A| = nd and
    |2^A| = nr, given k >= 3 and l >= k - 1."""
    p, q = _golden_pair(k, l)
    entries = {
        "doubling": _x2_entry("double", 4 * k - 2, nd),  # 2 * doubling_bound
        "freiman": _x2_entry("double", 2 * _freiman(k, l), nd),
        "halved_span": _x2_entry("restricted", _halved_span_x2(k, l), nr),
        # q = k > 0 off the integral branch: irrational, never attained;
        # freiman_lev_bound shares that branch, and is 3k - 7 off it
        "golden_ratio": _x2_entry("restricted", p, nr) if not q else BoundEntry(
            "restricted", None, _golden_approx(p, q), _golden_leq(p, q, nr), False),
        "freiman_lev": _x2_entry("restricted", 6 * k - 14 if q else p, nr),
    }
    if k >= 5 and 2 * k - 4 <= l <= 2 * k - 3:  # narrow_window_bound's hypothesis
        entries["narrow_window"] = _x2_entry("restricted", 6 * k - 14, nr)
    return entries


def is_arithmetic_progression(a: IntegerSet) -> tuple[bool, Optional[int]]:
    """Whether the elements form an arithmetic progression.

    Returns ``(True, step)`` for k >= 2, ``(True, None)`` for k == 1,
    and ``(False, None)`` otherwise.
    """
    elems = a._elements
    if not elems:
        raise SetDomainError("empty set has no progression structure")
    if len(elems) == 1:
        return True, None
    d = elems[1] - elems[0]
    for prev, cur in zip(elems, elems[1:]):
        if cur - prev != d:
            return False, None
    return True, d


def ap_cover_length(a: NormalizedSet) -> int:
    """Length of the shortest arithmetic progression containing ``a``.

    A covering progression's difference divides every element; with 0
    present and gcd 1 that difference is 1, so the cover is [0, l] and
    the length is l + 1.
    """
    return a.l + 1


def is_union_two_aps_same_diff(a: IntegerSet) -> tuple[bool, Optional[int]]:
    """Whether ``a`` splits into two arithmetic progressions sharing one
    common difference, and the smallest workable difference.

    For a fixed difference d, decompose ``a`` into maximal d-runs (an
    element starts a run exactly when ``v - d`` is absent, so the run
    starts are the bits of ``mask & ~(mask << d)``).  Any
    progression with step d inside ``a`` lies within a single maximal
    run, and each maximal run is itself such a progression, so a
    two-progression split exists iff there are at most two runs.
    Singletons count as (length-1) progressions.

    No d above span - k + 3 works, so the search stops there.  With at
    most two runs, at least k - 2 elements v start none, so have v - d in
    ``a``; each lies in [min + d, max], which holds span - d + 1 values,
    so k - 2 <= span - d + 1.

    A set whose neighbour gaps take more than three values is refused
    before the search.  Let ``a`` be the union of two maximal d-runs.  If
    both lie in one class mod d, one ends before the other starts, so the
    gaps are d and the single jump between them.  Otherwise let delta be
    the difference of their classes mod d, with 0 < delta < d.  Neighbours
    within one run differ by d.  Where the runs' ranges overlap, each
    element has an element of the other run less than d away, so the gaps
    there are delta or d - delta.  Where they do not overlap there is one
    jump.  So there are at most three gap values.  Every set that passes
    still runs the search, so the verdict and the smallest d are as
    without the refusal.
    """
    elems = a._elements
    if len(elems) < 2:
        raise SetDomainError("two-progression test needs at least two elements")
    if len(elems) == 2:
        return True, 1
    if len(set(map(sub, elems[1:], elems))) > 3:
        return False, None
    mask = a._mask
    span = elems[-1] - elems[0]
    for d in range(1, span - len(elems) + 4):
        if (mask & ~(mask << d)).bit_count() <= 2:
            return True, d
    return False, None
