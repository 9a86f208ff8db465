"""Cyclic orders on [n], Gale orders on equal-size subsets, and cyclic intervals.

Conventions used throughout the package:

* the ground set [n] is {1, 2, ..., n} with 1-indexed elements;
* subsets are plain frozensets at the API surface, while bitmasks
  (bit i-1 represents element i) are the internal currency of the kernels
  and of ``Matroid``; n is bounded by the machine word (n <= 64);
* ``<_i`` denotes the rotated total order i < i+1 < ... < n < 1 < ... < i-1;
* the half-open cyclic interval (i, i] is empty.

``gale_extrema`` reads the Gale minimum (maximum) under <_i off the prefix
(suffix) counts of a family of masks at once, and ``gale_min``/``gale_max``
decode its one answer for one i.  An error message shows a long value cut
short (``shown``).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MAX_GROUND = 64
# maxsize of every bounded global cache (positroids, LPM bases, uniform matroids)
CACHE_SIZE = 4096

EMPTY = "empty"
FULL = "full"
ARC = "arc"


def check_ground(n: int) -> None:
    if type(n) is not int or not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size must be an integer in 1..{MAX_GROUND}, got {n!r}")


def check_same_ground(a, b) -> None:
    if a.n != b.n:
        raise ValueError("ground-set mismatch")


def shown(value) -> str:
    """repr(value) for an error message, cut past 80 characters to its first and
    last 8 and its length; an int too long for repr shows its bit length."""
    try:
        text = repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"int of {value.bit_length()} bits"
    if len(text) <= 80:
        return text
    if isinstance(value, str):
        return f"{value[:8] + '...' + value[-8:]!r} of {len(value)} characters"
    return f"{text[:8]}...{text[-8:]} of {len(text)} characters"


def check_element(x: int, n: int) -> None:
    if type(x) is not int or not 1 <= x <= n:
        raise ValueError(f"element {shown(x)} out of range 1..{n}")


def check_rank(k: int, n: int) -> None:
    """check_ground(n), then k an int in 0..n."""
    check_ground(n)
    if type(k) is not int or not 0 <= k <= n:
        raise ValueError(f"rank {k!r} out of range 0..{n}")


def check_members(sets: Iterable[Iterable[int]], n: int) -> None:
    """check_element on every member of the given sets, set by set, so a
    non-int equal to an int (2.0 or True) is named, not hidden in a union."""
    for members in sets:
        for x in members:
            check_element(x, n)


def member_masks(lists: list, n: int) -> list[int] | None:
    """The mask of each given list of distinct elements of [n], in one pass
    over the members, or None when n is not a ground-set size, an item is
    not a list, or a member is not an int in 1..n or repeats in its list.
    Callers then take their checked route, which names the fault with its
    own message and in its own order.
    """
    if type(n) is not int or not 1 <= n <= MAX_GROUND or not set(map(type, lists)) <= {list}:
        return None
    if not set(map(type, itertools.chain.from_iterable(lists))) <= {int}:
        return None
    bit = {x: 1 << (x - 1) for x in range(1, n + 1)}
    try:
        masks = [sum(map(bit.__getitem__, members)) for members in lists]
    except KeyError:
        return None
    # a repeated member carries into a higher bit, so the mask has fewer bits
    if list(map(int.bit_count, masks)) != list(map(len, lists)):
        return None
    return masks


def json_list(value, what: str) -> list:
    """A JSON value, refused unless it is a list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} {value!r} is not a list")
    return value


def distinct_members(items: list, what: str) -> frozenset:
    """The members of a JSON list as a set; refuses a non-list and a
    repeated element."""
    members = frozenset(json_list(items, what))
    if len(members) != len(items):
        raise ValueError(f"{what} {items} repeats an element")
    return members


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(members: Iterable[int], n: int) -> int:
    """Bitmask of a subset of [n]; raises on out-of-range elements."""
    m = 0
    for x in members:
        check_element(x, n)
        m |= 1 << (x - 1)
    return m


def bits_of(members: Iterable[int]) -> int:
    """Bitmask of members already checked to lie in [n]; no check of its own."""
    m = 0
    for x in members:
        m |= 1 << (x - 1)
    return m


def arc_mask(n: int, a: int, b: int) -> int:
    """Bitmask of the arc {a, a+1, ..., b} of [n], wrapping past n."""
    if a <= b:
        return (1 << b) - (1 << (a - 1))
    return full_mask(n) ^ ((1 << (a - 1)) - (1 << b))


def sorted_members(mask: int) -> list[int]:
    """The members of a mask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def members_of(mask: int) -> frozenset[int]:
    return frozenset(sorted_members(mask))


def cyclic_pos(i: int, a: int, n: int) -> int:
    """0-based position of a in the order <_i, i.e. 0 for a = i, n-1 for a = i-1."""
    return (a - i) % n


def gale_leq(i: int, a: Iterable[int], b: Iterable[int], n: int) -> bool:
    """Gale order <=_i: componentwise comparison of the <_i-sorted subsets.

    Both subsets must have the same cardinality.
    """
    check_ground(n)
    check_element(i, n)
    ka = sorted(cyclic_pos(i, x, n) for x in a)
    kb = sorted(cyclic_pos(i, x, n) for x in b)
    if len(ka) != len(kb):
        raise ValueError(f"Gale order compares equal-size subsets, got sizes {len(ka)} and {len(kb)}")
    for x in a:
        check_element(x, n)
    for x in b:
        check_element(x, n)
    return all(pa <= pb for pa, pb in zip(ka, kb))


def gale_extrema(masks: Sequence[int], n: int, starts: Iterable[int], maximum: bool) -> tuple[int, ...]:
    """The masks of the <=_i-minimum (maximum) of a nonempty family of
    subsets of [n], given by their masks, for each i in starts.

    Let f(P) be the largest |B & P| over the family at each prefix P of <_i
    (of its reverse, for a maximum).  Among equal-size sets M <=_i B exactly
    when |M & P| >= |B & P| at every prefix, so a minimum M is the set G of
    elements where f rises (the greedy basis, Gale 1968), and G, which has
    |G & P| = f(P), is the minimum whenever it is a member.  So an extremum
    exists exactly when G is in the family.  The counts of all members sit
    in one int, a byte-aligned field each with a guard bit on top, so each
    step is one add and one guarded subtraction.
    """
    sizes = set(map(int.bit_count, masks))
    if len(sizes) > 1:
        raise ValueError(f"Gale order compares equal-size subsets, got sizes {min(sizes)} and {max(sizes)}")
    (k,) = sizes
    width = n // 8 + 1  # bytes per field: the n mask bits and a guard bit above every count
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(masks), "little")
    guards = ones << (8 * width - 1)
    packed = int.from_bytes(b"".join(b.to_bytes(width, "little") for b in masks), "little")
    columns = [(packed >> x) & ones for x in range(n)]
    members = set(masks)
    step = -1 if maximum else 1
    out = []
    for i in starts:
        counts, target, extremum, found = guards, ones, 0, 0
        x = i - 2 if maximum else i - 1
        while found < k:
            x %= n
            counts += columns[x]
            if (counts - target) & guards:
                extremum |= 1 << x
                target += ones
                found += 1
            x += step
        if extremum not in members:
            word = "maximum" if maximum else "minimum"
            raise ValueError(f"family has no Gale {word} under <_{i}; not a matroid basis family")
        out.append(extremum)
    return tuple(out)


def _extremum_of(i: int, family: Iterable[Iterable[int]], n: int, maximum: bool) -> frozenset[int]:
    check_ground(n)
    check_element(i, n)
    masks = [mask_of(s, n) for s in family]
    if not masks:
        raise ValueError(f"Gale {'maximum' if maximum else 'minimum'} of an empty family")
    return members_of(gale_extrema(masks, n, (i,), maximum)[0])


def gale_min(i: int, family: Iterable[Iterable[int]], n: int) -> frozenset[int]:
    """The unique <=_i-minimum of a family of equal-size subsets of [n],
    decoded from ``gale_extrema``.  A family with no minimum (which a
    matroid basis family can never be) raises ValueError.
    """
    return _extremum_of(i, family, n, maximum=False)


def gale_max(i: int, family: Iterable[Iterable[int]], n: int) -> frozenset[int]:
    """The unique <=_i-maximum of the family (see gale_min)."""
    return _extremum_of(i, family, n, maximum=True)


@dataclass(frozen=True)
class CyclicInterval:
    """An arc of the circle (1, 2, ..., n), possibly empty or the full circle.

    ``arc(n, a, b)`` denotes {a, a+1, ..., b} with indices wrapping mod n; it
    is always nonempty and may cover the whole circle while remaining
    structurally distinct from ``full(n)``.
    """

    n: int
    kind: str
    start: int = 0
    end: int = 0

    def __post_init__(self):
        check_ground(self.n)
        if self.kind not in (EMPTY, FULL, ARC):
            raise ValueError(f"unknown interval kind {self.kind!r}")
        if self.kind == ARC:
            check_element(self.start, self.n)
            check_element(self.end, self.n)
        elif (self.start, self.end) != (0, 0):
            raise ValueError(f"{self.kind} interval takes no endpoints")

    @classmethod
    def empty(cls, n: int) -> "CyclicInterval":
        return cls(n, EMPTY)

    @classmethod
    def full(cls, n: int) -> "CyclicInterval":
        return cls(n, FULL)

    @classmethod
    def arc(cls, n: int, start: int, end: int) -> "CyclicInterval":
        return cls(n, ARC, start, end)

    @classmethod
    def half_open(cls, n: int, a: int, b: int) -> "CyclicInterval":
        """The cyclic interval (a, b] = {a+1, ..., b}; (a, a] is empty."""
        check_ground(n)
        check_element(a, n)
        check_element(b, n)
        if a == b:
            return cls.empty(n)
        return cls.arc(n, a % n + 1, b)

    def __len__(self) -> int:
        if self.kind == EMPTY:
            return 0
        if self.kind == FULL:
            return self.n
        return (self.end - self.start) % self.n + 1

    @cached_property
    def mask(self) -> int:
        if self.kind == EMPTY:
            return 0
        if self.kind == FULL:
            return full_mask(self.n)
        return arc_mask(self.n, self.start, self.end)

    def members(self) -> frozenset[int]:
        """Explicit member set; arcs may wrap past n.

        >>> sorted(CyclicInterval.arc(7, 6, 3).members())
        [1, 2, 3, 6, 7]
        """
        return members_of(self.mask)

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.n and bool(self.mask >> (x - 1) & 1)

    def to_json(self) -> dict:
        if self.kind == ARC:
            return {"kind": ARC, "start": self.start, "end": self.end}
        return {"kind": self.kind}


def cyclic_components(members: Iterable[int], n: int) -> list[CyclicInterval]:
    """Decompose a proper subset of [n] into maximal cyclic intervals.

    The parts are pairwise non-adjacent on the circle (no part ends right
    before another starts) and are returned in increasing order of their
    start element.  The decomposition is undefined for the full set.

    >>> [iv.to_json() for iv in cyclic_components({1, 3, 5, 8}, 8)]
    [{'kind': 'arc', 'start': 3, 'end': 3}, {'kind': 'arc', 'start': 5, 'end': 5}, {'kind': 'arc', 'start': 8, 'end': 1}]
    """
    check_ground(n)
    m = mask_of(members, n)
    if m == full_mask(n):
        raise ValueError("cyclic components of the full ground set are undefined")
    if m == 0:
        return []
    has = lambda x: m >> (x - 1) & 1
    comps = []
    for a in range(1, n + 1):
        prev = (a - 2) % n + 1
        if has(a) and not has(prev):
            b = a
            nxt = b % n + 1
            while has(nxt):
                b = nxt
                nxt = b % n + 1
            comps.append(CyclicInterval.arc(n, a, b))
    return comps
