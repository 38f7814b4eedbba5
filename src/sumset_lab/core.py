"""Bit-mask kernels for sumsets of finite sets of nonnegative integers.

A set is carried in two synchronized forms: an ascending tuple of
elements and an arbitrary-precision integer mask whose bit ``v`` is set
exactly when ``v`` is in the set.  On this carrier the pair sumset
``A + B`` is an OR of shifted masks, and the restricted sumset (sums of
two *distinct* elements of ``A``) falls out of the same sweep: while the
shifts accumulate, any value produced by two different shifts is a sum
of two distinct elements, so collecting the overlap plane is enough.

Why the overlap plane is exactly the restricted sumset: a value
``x = a + a'`` with ``a != a'`` is produced by both the shift-by-``a``
plane and the shift-by-``a'`` plane, so it lands in the overlap; a
doubled value ``2a`` with no other representation is produced by the
single shift-by-``a`` plane only, so it stays out.

One sweep thus gives both masks: when it ends, its accumulator is the
``A + A`` mask and its overlap plane the restricted one.  Callers that
need only the two cardinalities take the popcounts of these masks and
build no set.

A normalized set also carries a context, empty when it is built and
filled on first use by ``_set_masks``: its ``A + A`` mask, its
restricted mask and the restricted mask of its head (the set minus its
top ``l``).  One sweep of the head gives all three.  ``_exceptional``
unpacks, once per set, the values in ``[1, 2k-4]`` that the head's
restricted sums miss, for ``profile`` and the structure checkers alike.
With ``hd`` and ``hr`` the head's two masks and ``h`` its own mask,
the top adds the sums ``l + a`` for every head element ``a`` and the
double ``2l``, so

    A + A = hd | h << l | 1 << 2l,    2^A = hr | h << l.

``profile``, ``bounds.evaluate_bounds`` and the public checkers of
``structure`` read the set's masks from this context, so the analyze
pipeline sweeps each set once.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd
from operator import index
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "MAX_ELEMENT",
    "SetDomainError",
    "IntegerSet",
    "NormalizedSet",
    "SumsetProfile",
    "mask_of",
    "elements_of",
    "double_mask",
    "restricted_mask",
    "double_size",
    "restricted_size",
    "sumset",
    "restricted_sumset",
    "normalize",
    "reflect",
    "profile",
    "freiman_lev_bound",
    "has_dense_prefix",
    "require_dense_prefix",
    "parse_set_literal",
    "format_set_literal",
]

# Largest element accepted from external input, a fixed constant.  Internal
# results (sumsets) may exceed it.
MAX_ELEMENT = 4096


class SetDomainError(ValueError):
    """An input set violates a precondition of the requested operation."""


def mask_of(elements: Iterable[int]) -> int:
    """Pack elements into a bit mask (bit v set iff v is present)."""
    m = 0
    for v in elements:
        m |= 1 << v
    return m


# the binary digits of a mask as the bytes 0 and 1
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def elements_of(mask: int) -> tuple[int, ...]:
    """Unpack a nonnegative bit mask into an ascending tuple of elements.

    The mask's binary digits, least significant first, select from the
    counting numbers: the scan runs in C, not one bit per Python step.
    The list is built first: a tuple grown from an iterator of unknown
    length is resized as it fills, which parks spare tuples of every
    size in the interpreter's free lists and raised the peak RSS of a
    query loop by about 0.5 MB.
    """
    return tuple(list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_BITS))))


def double_mask(mask: int, elements: Iterable[int]) -> int:
    """Mask of {x + e : bit x set in mask, e in elements}."""
    acc = 0
    for v in elements:
        acc |= mask << v
    return acc


def _sumset_masks(mask: int, elements: Iterable[int]) -> tuple[int, int]:
    """Masks of A + A and of the restricted sumset, from one shift sweep
    (elements must match mask)."""
    acc = 0
    twice = 0
    for v in elements:
        sh = mask << v
        twice |= acc & sh
        acc |= sh
    return acc, twice


def restricted_mask(mask: int, elements: Iterable[int]) -> int:
    """Mask of sums of two distinct elements (elements must match mask)."""
    return _sumset_masks(mask, elements)[1]


def double_size(elements: Sequence[int]) -> int:
    """|A + A| straight from an element sequence (hot path for sweeps)."""
    m = mask_of(elements)
    return double_mask(m, elements).bit_count()


def restricted_size(elements: Sequence[int]) -> int:
    """|{a + a' : a != a' in A}| straight from an element sequence."""
    m = mask_of(elements)
    return restricted_mask(m, elements).bit_count()


class IntegerSet:
    """Immutable finite set of nonnegative integers.

    Keeps the ascending element tuple and the bit mask in sync.  Empty
    sets are allowed (several derived sets, such as the low missing-sum
    window, can be empty); most kernels require more.
    """

    __slots__ = ("_elements", "_mask")

    def __init__(self, elements: Iterable[int] = ()):
        # index, not int: a float or a numeric string is refused, not
        # truncated or parsed; a bool is the int it subclasses
        try:
            elems = tuple(sorted(set(map(index, elements))))
        except TypeError as exc:
            raise SetDomainError(f"set elements must be integers: {exc}") from None
        if elems:
            if elems[0] < 0:
                raise SetDomainError(f"elements must be nonnegative, got {elems[0]}")
            if elems[-1] > MAX_ELEMENT:
                raise SetDomainError(
                    f"element {elems[-1]} exceeds the supported maximum {MAX_ELEMENT}"
                )
        self._elements = elems
        self._mask = mask_of(elems)

    @classmethod
    def _from_trusted(cls, elements: tuple[int, ...], mask: int) -> "IntegerSet":
        """Internal constructor for data already in canonical form.

        On NormalizedSet the caller also guarantees what its ``__init__``
        checks: at least two elements, starting at 0, with gcd 1.
        """
        obj = cls.__new__(cls)
        obj._elements = elements
        obj._mask = mask
        return obj

    @classmethod
    def from_mask(cls, mask: int) -> "IntegerSet":
        """Build from a bit mask.  Trusted path: no range re-check, and
        always a plain IntegerSet, also when called on a subclass."""
        if mask < 0:
            raise SetDomainError("mask must be nonnegative")
        obj = IntegerSet.__new__(IntegerSet)
        obj._elements, obj._mask = elements_of(mask), mask
        return obj

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elements

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def min(self) -> int:
        if not self._elements:
            raise SetDomainError("empty set has no minimum")
        return self._elements[0]

    @property
    def max(self) -> int:
        if not self._elements:
            raise SetDomainError("empty set has no maximum")
        return self._elements[-1]

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and 0 <= value and bool(self._mask >> value & 1)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._mask == other._mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._mask)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_set_literal(self._elements)})"


class NormalizedSet(IntegerSet):
    """An IntegerSet in hypothesis form: smallest element 0 and gcd 1.

    ``k`` is the cardinality and ``l`` the largest element, so the set
    spans ``[0, l]`` and every covering arithmetic progression has
    difference 1.  It never compares equal to a plain IntegerSet.

    Its context (``_masks``, filled by ``_set_masks``, ``_b``, filled
    by ``_exceptional``, and ``_head``, filled by ``structure._context``)
    is a cache of values the carrier determines: every constructor
    leaves it empty, a pickle carries only the carrier, and equality,
    hashing and ``repr`` ignore it.
    """

    __slots__ = ("_masks", "_b", "_head")

    def __init__(self, elements: Iterable[int]):
        if isinstance(elements, IntegerSet):
            # already canonical, and range-checked unless it came from a
            # trusted mask: take its carrier as it is
            self._elements, self._mask = elements._elements, elements._mask
        else:
            super().__init__(elements)
        elems = self._elements
        if len(elems) < 2:
            raise SetDomainError("a normalized set needs at least two elements")
        if elems[0] != 0:
            raise SetDomainError(f"a normalized set starts at 0, got min {elems[0]}")
        g = gcd(*elems)
        if g != 1:
            raise SetDomainError(f"a normalized set has gcd 1, got gcd {g}")
        self._masks = self._b = self._head = None

    @classmethod
    def _from_trusted(cls, elements: tuple[int, ...], mask: int) -> "NormalizedSet":
        obj = cls.__new__(cls)
        obj._elements = elements
        obj._mask = mask
        obj._masks = obj._b = obj._head = None
        return obj

    def __reduce__(self):
        return type(self)._from_trusted, (self._elements, self._mask)

    @property
    def k(self) -> int:
        return len(self._elements)

    @property
    def l(self) -> int:
        return self._elements[-1]


def sumset(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """Full pair sumset {x + y : x in a, y in b}."""
    if not len(a) or not len(b):
        raise SetDomainError("sumset of an empty set is undefined")
    if len(a) < len(b):
        a, b = b, a
    return IntegerSet.from_mask(double_mask(a.mask, b.elements))


def restricted_sumset(a: IntegerSet) -> IntegerSet:
    """Sums of two distinct elements of a."""
    if len(a) < 2:
        raise SetDomainError("restricted sumset needs at least two elements")
    return IntegerSet.from_mask(restricted_mask(a.mask, a.elements))


def normalize(a: IntegerSet) -> tuple[NormalizedSet, int, int]:
    """Translate the minimum to 0 and divide out the gcd of the rest.

    Returns ``(normalized, offset, scale)`` with
    ``a = {scale * v + offset : v in normalized}``.  Cardinalities of
    sumsets are invariant under this affine change, so every bound and
    classification can be computed on the normalized form.

    The result needs no validation: it is ascending, starts at 0 and has
    gcd 1.  At scale 1 its mask is the input's shifted down by the offset.
    """
    if len(a) < 2:
        raise SetDomainError("normalization needs at least two elements")
    offset = a._elements[0]
    shifted = [v - offset for v in a._elements]
    scale = gcd(*shifted)
    if scale == 1:
        return NormalizedSet._from_trusted(tuple(shifted), a._mask >> offset), offset, 1
    elems = tuple([v // scale for v in shifted])
    return NormalizedSet._from_trusted(elems, mask_of(elems)), offset, scale


def reflect(a: NormalizedSet) -> NormalizedSet:
    """Mirror through the span: the normalized form of {l - v : v in a}.

    Reflection preserves the cardinality of both sumsets, so extremal
    families come in mirror pairs.
    """
    mirrored = IntegerSet(a.l - v for v in a.elements)
    return normalize(mirrored)[0]


class SumsetProfile(NamedTuple):
    """Sumset data of one normalized set.

    ``exceptional`` lists the values in ``[1, 2k-4]`` that the
    restricted sumset of the set *minus its largest element* fails to
    reach; it is ``None`` for k < 3 where that window is empty.
    """

    source: NormalizedSet
    double: IntegerSet
    restricted: IntegerSet
    exceptional: Optional[IntegerSet]


def exceptional_mask(head_reach: int, k: int) -> int:
    """Mask of [1, 2k-4] minus the restricted sumset of a k-set's head
    (the set minus its top), given that sumset's mask ``head_reach``."""
    window = ((1 << (2 * k - 3)) - 1) ^ 1
    return window & ~head_reach


def _set_masks(a: NormalizedSet) -> tuple[int, int, int]:
    """The context masks of ``a``: ``(A + A, 2^A, 2^head)``, from one
    sweep of the head on first use (see the module docstring)."""
    masks = a._masks
    if masks is None:
        top = a._elements[-1]
        head_mask = a._mask ^ 1 << top
        hd, hr = _sumset_masks(head_mask, a._elements[:-1])
        up = head_mask << top
        masks = a._masks = (hd | up | 1 << 2 * top, hr | up, hr)
    return masks


def _exceptional(a: NormalizedSet) -> IntegerSet:
    """The exceptional set of a k-set ``a``, k >= 3: the values in
    [1, 2k-4] that the restricted sums of its head miss, unpacked from
    the set's context on first use and cached on the set."""
    b = a._b
    if b is None:
        b = a._b = IntegerSet.from_mask(exceptional_mask(_set_masks(a)[2], len(a._elements)))
    return b


def profile(a: NormalizedSet) -> SumsetProfile:
    """Compute both sumsets and the low missing-sum window of ``a``."""
    double, restricted, _ = _set_masks(a)
    exceptional = _exceptional(a) if len(a._elements) >= 3 else None
    return SumsetProfile(
        a, IntegerSet.from_mask(double), IntegerSet.from_mask(restricted), exceptional
    )


def _require_dimensions(k: int, l: int, k_floor: int = 3) -> None:
    if k < k_floor:
        raise SetDomainError(f"bound needs k >= {k_floor}, got k={k}")
    if l < k - 1:
        raise SetDomainError(f"a k-set spanning [0, l] needs l >= k-1, got k={k}, l={l}")


def freiman_lev_bound(k: int, l: int) -> int:
    """Conjectured floor for the restricted sumset.

    l + k - 2 when l <= 2k - 5, else 3k - 7.  Stated for k > 7; the
    formula itself is defined for all k >= 3 so desk sweeps can probe
    the small cases too.  It lives here, with the kernels, because the
    floor sweeps need it and nothing else of :mod:`sumset_lab.bounds`;
    ``bounds`` re-exports it beside the other bounds.
    """
    _require_dimensions(k, l)
    return l + k - 2 if l <= 2 * k - 5 else 3 * k - 7


# The detached-top regime's test lives here, with the kernels, because
# families' shape check needs it and nothing else of structure;
# structure re-exports both functions beside its checkers.


def has_dense_prefix(a: NormalizedSet) -> bool:
    """Whether a_i < 2i for i = 1..k-2 and a_{k-1} >= 2k - 2."""
    elems = a._elements
    k = len(elems)
    if k < 3 or elems[-1] < 2 * k - 2:
        return False
    for i in range(1, k - 1):
        if elems[i] >= 2 * i:
            return False
    return True


def require_dense_prefix(a: NormalizedSet) -> None:
    """Raise unless ``a`` is in the detached-top regime."""
    elems = a._elements
    k = len(elems)
    if k < 3:
        raise SetDomainError(f"detached-top analysis needs k >= 3, got k={k}")
    if elems[-1] < 2 * k - 2:
        raise SetDomainError(
            f"top element {elems[-1]} is not detached (needs >= {2 * k - 2})"
        )
    for i in range(1, k - 1):
        if elems[i] >= 2 * i:
            raise SetDomainError(
                f"interior element a_{i}={elems[i]} breaks the growth bound < {2 * i}"
            )


def parse_set_literal(text: str) -> IntegerSet:
    """Parse a brace literal such as "{0, 1, 4, 9}" into an IntegerSet."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise SetDomainError(f"set literal must be brace-delimited, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return IntegerSet()
    try:
        values = [int(p.strip()) for p in body.split(",")]
    except ValueError:
        raise SetDomainError(f"set literal holds a non-integer part: {text!r}") from None
    return IntegerSet(values)


def format_set_literal(a: Iterable[int]) -> str:
    """Render ascending ints (a tuple, or any IntegerSet) as a canonical
    brace literal, no spaces."""
    return "{%s}" % ",".join(map(str, a))
