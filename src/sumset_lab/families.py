"""Generators for every known extremal family of the restricted sumset.

A normalized k-set is *extremal* when its restricted sumset has exactly
3k - 7 members, the smallest value possible once the span reaches
2k - 4.  Two landscapes are covered:

* span 2k - 2 with slow interior growth: a single mod-3 family
  (:func:`gen_mod3_wide`) per admissible k;
* span exactly 2k - 3: five parametric kinds plus a finite catalog of
  sporadic sets, together conjectured-and-proven to be the complete
  list of extremal sets.

Every generator validates its parameter ranges and re-checks the
produced set's cardinality and span, failing loudly on any mismatch.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, NamedTuple, Optional

from .core import (
    IntegerSet,
    NormalizedSet,
    SetDomainError,
    require_dense_prefix,
    restricted_sumset,
)

__all__ = [
    "FamilySpec",
    "FamilyKind",
    "FAMILY_KINDS",
    "gen_mod3_wide",
    "gen_two_intervals",
    "gen_even_odd",
    "gen_mod3_pair",
    "gen_four_step",
    "gen_mod3_shift",
    "sporadic_catalog",
    "flagged_sporadics",
    "extremal_catalog",
    "family_members",
    "top_pair_family",
    "top_pair_catalog",
    "gen_k7_below_floor",
    "has_locked_fourth",
    "dense_extremal_shape",
]


def _build(elements, k: int, span: int, what: str) -> NormalizedSet:
    out = NormalizedSet(elements)
    if out.k != k or out.l != span:
        raise RuntimeError(
            f"{what} produced a malformed set {out!r}: "
            f"expected cardinality {k} and span {span}"
        )
    return out


def gen_mod3_wide(k: int) -> NormalizedSet:
    """The unique extremal set with span 2k - 2 and slow interior growth.

    For k divisible by 3 it is the multiples of 3 in [0, k-3] together
    with the 1 mod 3 values in [1, 2k-2]; for k = 1 mod 3 the two
    residue classes swap window lengths.  No set exists for k = 2 mod 3
    or k < 6.
    """
    if k < 6 or k % 3 not in (0, 1):
        raise SetDomainError(f"no wide mod-3 family for k={k}")
    if k % 3 == 0:
        elems = [v for v in range(0, k - 2) if v % 3 == 0]
        elems += [v for v in range(1, 2 * k - 1) if v % 3 == 1]
    else:
        elems = [v for v in range(0, 2 * k - 1) if v % 3 == 0]
        elems += [v for v in range(1, k - 2) if v % 3 == 1]
    return _build(elems, k, 2 * k - 2, f"gen_mod3_wide({k})")


def gen_two_intervals(k: int, theta: int) -> NormalizedSet:
    """[0, theta-k+1] followed by [theta, 2k-3], for k <= theta <= 2k-4."""
    if k < 4:
        raise SetDomainError(f"two-interval family needs k >= 4, got k={k}")
    if not k <= theta <= 2 * k - 4:
        raise SetDomainError(f"two-interval family needs k <= theta <= 2k-4, got theta={theta}")
    elems = list(range(0, theta - k + 2)) + list(range(theta, 2 * k - 2))
    return _build(elems, k, 2 * k - 3, f"gen_two_intervals({k},{theta})")


def gen_even_odd(k: int, theta: int) -> NormalizedSet:
    """Evens 0..2*theta plus odds 2*theta+1..2k-3, for 1 <= theta <= k-3."""
    if k < 4:
        raise SetDomainError(f"even-odd family needs k >= 4, got k={k}")
    if not 1 <= theta <= k - 3:
        raise SetDomainError(f"even-odd family needs 1 <= theta <= k-3, got theta={theta}")
    elems = [2 * i for i in range(theta + 1)] + [2 * j - 1 for j in range(theta + 1, k)]
    return _build(elems, k, 2 * k - 3, f"gen_even_odd({k},{theta})")


def gen_mod3_pair(k: int, theta: int) -> NormalizedSet:
    """{3i : i <= theta} plus {3j - k : theta < j <= k-1}, for 3 not
    dividing k and (k-3)/3 < theta < (2k-3)/3 (strict)."""
    if k < 4:
        raise SetDomainError(f"mod3-pair family needs k >= 4, got k={k}")
    if k % 3 == 0:
        raise SetDomainError(f"mod3-pair family needs 3 to not divide k, got k={k}")
    if not (k - 3 < 3 * theta < 2 * k - 3):
        raise SetDomainError(
            f"mod3-pair family needs (k-3)/3 < theta < (2k-3)/3, got theta={theta}"
        )
    elems = [3 * i for i in range(theta + 1)] + [3 * j - k for j in range(theta + 1, k)]
    return _build(elems, k, 2 * k - 3, f"gen_mod3_pair({k},{theta})")


def gen_four_step(k: int) -> NormalizedSet:
    """{0} plus {4i-3, 4i : 1 <= i <= (k-2)/2} plus {2k-3}, for even k."""
    if k < 4 or k % 2:
        raise SetDomainError(f"four-step family needs even k >= 4, got k={k}")
    elems = [0, 2 * k - 3]
    for i in range(1, (k - 2) // 2 + 1):
        elems += [4 * i - 3, 4 * i]
    return _build(elems, k, 2 * k - 3, f"gen_four_step({k})")


def gen_mod3_shift(k: int, theta: int) -> NormalizedSet:
    """Multiples of 3 up to 2k-3 plus a shifted copy of the short grid,
    for 3 | k, 1 <= theta <= k-1, 3 not dividing theta."""
    if k < 6 or k % 3:
        raise SetDomainError(f"mod3-shift family needs k >= 6 divisible by 3, got k={k}")
    if not 1 <= theta <= k - 1 or theta % 3 == 0:
        raise SetDomainError(
            f"mod3-shift family needs 1 <= theta <= k-1 with 3 not dividing theta, "
            f"got theta={theta}"
        )
    elems = [3 * i for i in range((2 * k - 3) // 3 + 1)]
    elems += [theta + 3 * i for i in range((k - 3) // 3 + 1)]
    return _build(elems, k, 2 * k - 3, f"gen_mod3_shift({k},{theta})")


# Sporadic extremal sets with span 2k-3, k = 6..10, exactly as cataloged.
_SPORADIC_FIXED: tuple[tuple[int, ...], ...] = (
    (0, 1, 4, 5, 6, 9),
    (0, 3, 4, 5, 8, 9),
    (0, 1, 2, 5, 6, 7, 11),
    (0, 1, 3, 4, 7, 8, 11),
    (0, 1, 4, 5, 6, 10, 11),
    (0, 1, 4, 5, 7, 8, 11),
    (0, 1, 5, 6, 7, 10, 11),
    (0, 3, 4, 6, 7, 10, 11),
    (0, 3, 4, 7, 8, 10, 11),
    (0, 4, 5, 6, 9, 10, 11),
    (0, 1, 2, 6, 7, 8, 12, 13),
    (0, 1, 4, 5, 6, 9, 10, 13),
    (0, 1, 5, 6, 7, 8, 12, 13),
    (0, 1, 5, 6, 7, 11, 12, 13),
    (0, 2, 3, 5, 7, 8, 10, 13),
    (0, 2, 3, 5, 8, 10, 11, 13),
    (0, 3, 4, 7, 8, 9, 12, 13),
    (0, 3, 5, 6, 8, 10, 11, 13),
    (0, 1, 2, 6, 7, 8, 9, 14, 15),
    (0, 1, 4, 5, 7, 8, 11, 12, 15),
    (0, 1, 6, 7, 8, 9, 13, 14, 15),
    (0, 3, 4, 7, 8, 10, 11, 14, 15),
    (0, 1, 2, 7, 8, 9, 10, 15, 16, 17),
    (0, 1, 5, 6, 7, 10, 11, 12, 16, 17),
    (0, 2, 3, 5, 7, 8, 10, 12, 15, 17),
    (0, 2, 5, 7, 9, 10, 12, 14, 15, 17),
)

# Cataloged entries whose own numbers disagree: cardinality 9 yet span
# 17 = 2*10 - 3.  Kept out of sporadic_catalog(); the classifier reports
# how enumeration actually relates to them instead of guessing a fix.
_SPORADIC_FLAGGED: tuple[tuple[int, ...], ...] = ((0, 3, 4, 6, 10, 11, 13, 14, 17),)


def _five_step_rows() -> list[tuple[int, ...]]:
    """The two parametric 9-element rows built on the grid {0,5,10,15}."""
    rows = []
    for theta in range(1, 5):
        base = {0, 5, 10, 15, theta, 5 + theta, 10 + theta}
        rows.append(tuple(sorted(base | {5 - theta, 10 - theta})))
        rows.append(tuple(sorted(base | {10 - theta, 15 - theta})))
    return rows


def sporadic_catalog() -> tuple[NormalizedSet, ...]:
    """Every consistent sporadic extremal set, expanded and deduplicated,
    ordered by (cardinality, elements)."""
    seen: dict[tuple[int, ...], None] = {}
    for elems in list(_SPORADIC_FIXED) + _five_step_rows():
        seen.setdefault(elems, None)
    ordered = sorted(seen, key=lambda e: (len(e), e))
    return tuple(NormalizedSet(e) for e in ordered)


def flagged_sporadics() -> tuple[IntegerSet, ...]:
    """Cataloged entries with inconsistent (cardinality, span) numbers."""
    return tuple(IntegerSet(e) for e in _SPORADIC_FLAGGED)


class FamilyKind(NamedTuple):
    """One parametric family: its builder and valid parameter values."""

    name: str
    needs_theta: bool
    applicable: Callable[[int], bool]
    thetas: Callable[[int], tuple[int, ...]]
    build: Callable[[int, Optional[int]], NormalizedSet]


FAMILY_KINDS: dict[str, FamilyKind] = {
    "mod3_wide": FamilyKind(
        "mod3_wide",
        False,
        lambda k: k >= 6 and k % 3 in (0, 1),
        lambda k: (),
        lambda k, t: gen_mod3_wide(k),
    ),
    "two_intervals": FamilyKind(
        "two_intervals",
        True,
        lambda k: k >= 4,
        lambda k: tuple(range(k, 2 * k - 3)),
        lambda k, t: gen_two_intervals(k, t),
    ),
    "even_odd": FamilyKind(
        "even_odd",
        True,
        lambda k: k >= 4,
        lambda k: tuple(range(1, k - 2)),
        lambda k, t: gen_even_odd(k, t),
    ),
    "mod3_pair": FamilyKind(
        "mod3_pair",
        True,
        lambda k: k >= 4 and k % 3 != 0,
        lambda k: tuple(t for t in range(1, k) if k - 3 < 3 * t < 2 * k - 3),
        lambda k, t: gen_mod3_pair(k, t),
    ),
    "four_step": FamilyKind(
        "four_step",
        False,
        lambda k: k >= 4 and k % 2 == 0,
        lambda k: (),
        lambda k, t: gen_four_step(k),
    ),
    "mod3_shift": FamilyKind(
        "mod3_shift",
        True,
        lambda k: k >= 6 and k % 3 == 0,
        lambda k: tuple(t for t in range(1, k) if t % 3),
        lambda k, t: gen_mod3_shift(k, t),
    ),
}


class _FamilySpecFields(NamedTuple):
    kind: str
    k: int
    theta: Optional[int]
    sporadic_index: Optional[int]


class FamilySpec(_FamilySpecFields):
    """A validated pointer to one family member."""

    __slots__ = ()

    def __new__(
        cls, kind: str, k: int, theta: Optional[int] = None, sporadic_index: Optional[int] = None
    ) -> FamilySpec:
        if kind == "sporadic":
            if theta is not None:
                raise SetDomainError("family kind 'sporadic' takes no theta")
            catalog = [s for s in sporadic_catalog() if s.k == k]
            if not catalog:
                raise SetDomainError(f"no sporadic sets with k={k}")
            idx = sporadic_index or 0
            if not 0 <= idx < len(catalog):
                raise SetDomainError(
                    f"sporadic index {idx} out of range for k={k} "
                    f"({len(catalog)} entries)"
                )
            return super().__new__(cls, kind, k, theta, sporadic_index)
        if kind not in FAMILY_KINDS:
            raise SetDomainError(f"unknown family kind {kind!r}")
        family = FAMILY_KINDS[kind]
        if not family.applicable(k):
            raise SetDomainError(f"family kind {kind!r} does not exist at k={k}")
        if family.needs_theta:
            if theta is None:
                raise SetDomainError(f"family kind {kind!r} needs a theta")
            if theta not in family.thetas(k):
                raise SetDomainError(f"theta={theta} invalid for kind {kind!r} at k={k}")
        elif theta is not None:
            raise SetDomainError(f"family kind {kind!r} takes no theta")
        return super().__new__(cls, kind, k, theta, sporadic_index)

    # _replace builds through _make: keep it validating
    _make = classmethod(lambda cls, fields: cls(*fields))

    def member(self) -> NormalizedSet:
        if self.kind == "sporadic":
            catalog = [s for s in sporadic_catalog() if s.k == self.k]
            return catalog[self.sporadic_index or 0]
        return FAMILY_KINDS[self.kind].build(self.k, self.theta)


def family_members(kind_name: str, k: int) -> tuple[NormalizedSet, ...]:
    """All members of one kind at cardinality k (empty if inapplicable)."""
    if kind_name == "sporadic":
        return tuple(s for s in sporadic_catalog() if s.k == k)
    if kind_name not in FAMILY_KINDS:
        raise SetDomainError(f"unknown family kind {kind_name!r}")
    kind = FAMILY_KINDS[kind_name]
    if not kind.applicable(k):
        return ()
    if kind.needs_theta:
        return tuple(kind.build(k, t) for t in kind.thetas(k))
    return (kind.build(k, None),)


def extremal_catalog(k: int) -> tuple[NormalizedSet, ...]:
    """The asserted complete list of extremal sets with span 2k-3:
    all five span-(2k-3) parametric kinds plus the sporadics at k,
    deduplicated and ordered by elements."""
    if k < 4:
        raise SetDomainError(f"the span-(2k-3) catalog starts at k=4, got k={k}")
    members: dict[tuple[int, ...], NormalizedSet] = {}
    for name in ("two_intervals", "even_odd", "mod3_pair", "four_step", "mod3_shift"):
        for s in family_members(name, k):
            members.setdefault(s.elements, s)
    for s in family_members("sporadic", k):
        members.setdefault(s.elements, s)
    return tuple(members[e] for e in sorted(members))


def top_pair_family(k: int) -> NormalizedSet:
    """[0, k-3] plus the detached top pair {2k-4, 2k-3}."""
    if k < 4:
        raise SetDomainError(f"top-pair family needs k >= 4, got k={k}")
    elems = list(range(0, k - 2)) + [2 * k - 4, 2 * k - 3]
    return _build(elems, k, 2 * k - 3, f"top_pair_family({k})")


_TOP_PAIR_SPORADIC: tuple[tuple[int, ...], ...] = (
    (0, 3, 4, 5, 8, 9),
    (0, 1, 4, 5, 6, 10, 11),
    (0, 1, 5, 6, 7, 10, 11),
    (0, 3, 4, 6, 7, 10, 11),
    (0, 1, 2, 6, 7, 8, 12, 13),
    (0, 1, 5, 6, 7, 8, 12, 13),
    (0, 3, 4, 7, 8, 9, 12, 13),
    (0, 1, 2, 6, 7, 8, 9, 14, 15),
    (0, 1, 4, 5, 6, 9, 10, 14, 15),
    (0, 1, 5, 6, 9, 10, 11, 14, 15),
    (0, 4, 5, 6, 9, 10, 11, 14, 15),
    (0, 3, 4, 7, 8, 10, 11, 14, 15),
    (0, 1, 5, 6, 7, 10, 11, 12, 16, 17),
)


def top_pair_catalog(k: int) -> tuple[NormalizedSet, ...]:
    """The top-pair interval family plus the listed sporadics at k:
    the extremal span-(2k-3) sets whose second-largest element is 2k-4
    while a_{k-3} stays below 2k-6, except ``gen_four_step(k)``.  At
    even k that set lies in the regime too, and is left out here as it
    has its own family.  With it, the list is the whole regime for
    4 <= k <= 12, where the tests check it against
    ``verify.classify_extremal``; past k = 12 it is unchecked."""
    members = [top_pair_family(k)]
    members += [NormalizedSet(e) for e in _TOP_PAIR_SPORADIC if len(e) == k]
    return tuple(sorted(members, key=lambda s: s.elements))


def gen_k7_below_floor(c: int, a: int) -> NormalizedSet:
    """{0, a, c-a, c, c+a, 2c-a, 2c} = ({0, c, 2c} + {-a, 0, a}) within
    [0, 2c], for c >= 4, 1 <= a < c/2 and gcd(a, c) = 1: k = 7, |2^A| = 13.
    From c = 5 on, the top 2c reaches 2k - 4 and the set is one below the
    Freiman-Lev floor 3k - 7; the conjecture sweep's k = 7 sets below that
    floor (tops up to 30) are exactly these."""
    if c < 4:
        raise SetDomainError(f"k = 7 family needs c >= 4, got c={c}")
    if not 1 <= a < c / 2 or gcd(a, c) != 1:
        raise SetDomainError(f"k = 7 family needs 1 <= a < c/2 and gcd(a, c) = 1, got a={a}")
    elems = (0, a, c - a, c, c + a, 2 * c - a, 2 * c)
    return _build(elems, 7, 2 * c, f"gen_k7_below_floor({c},{a})")


def has_locked_fourth(a: NormalizedSet) -> bool:
    """For an extremal-shaped top (a_{k-3} = 2k-6, a_{k-2} = 2k-5,
    a_{k-1} = 2k-3), whether the fourth-from-top element is locked at
    2k-8.  Raises when the three-element premise does not hold."""
    elems = a.elements
    k = len(elems)
    if k < 4:
        raise SetDomainError(f"locked-fourth check needs k >= 4, got k={k}")
    if elems[k - 3] != 2 * k - 6 or elems[k - 2] != 2 * k - 5 or elems[k - 1] != 2 * k - 3:
        raise SetDomainError(
            "locked-fourth check needs a_{k-3} = 2k-6, a_{k-2} = 2k-5, a_{k-1} = 2k-3"
        )
    return elems[k - 4] == 2 * k - 8


def dense_extremal_shape(a: NormalizedSet) -> bool:
    """Whether the restricted sumset of an extremal detached-top set has
    the rigid shape: all of [1, 2k-4] except {2, 2k-6}, plus the top
    element added to everything below it.

    Requires the detached-top regime and |2^A| = 3k-7.
    """
    require_dense_prefix(a)
    k = a.k
    if k < 4:
        raise SetDomainError(f"shape check needs k >= 4, got k={k}")
    reach = restricted_sumset(a)
    if len(reach) != 3 * k - 7:
        raise SetDomainError(
            f"shape check needs an extremal set (|2^A| = {3 * k - 7}), got {len(reach)}"
        )
    window = ((1 << (2 * k - 3)) - 1) ^ 1
    window &= ~(1 << 2)
    window &= ~(1 << (2 * k - 6))
    top = a.elements[-1]
    head_mask = a.mask ^ (1 << top)
    expected = window | (head_mask << top)
    return reach.mask == expected
