"""Cyclic orders on [n], Gale orders on equal-size subsets, and cyclic intervals.

Conventions used throughout the package:

* the ground set [n] is {1, 2, ..., n} with 1-indexed elements;
* subsets are plain frozensets at the API surface, while bitmasks
  (bit i-1 represents element i) are the internal currency of the
  exhaustive sweeps; n is bounded by the machine word (n <= 64);
* ``<_i`` denotes the rotated total order i < i+1 < ... < n < 1 < ... < i-1;
* the half-open cyclic interval (i, i] is empty.

Gale extrema are bitmask kernels too: ``gale_extrema`` reads the minimum
(maximum) under <_i off the prefix (suffix) counts of the whole family at
once, and ``gale_min``/``gale_max`` wrap it for one i.  The sorted-tuple
search it replaces is kept as an oracle in ``tests/support.py``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MAX_GROUND = 64
# maxsize of every bounded global cache (LPM bases, uniform matroids, arrows)
CACHE_SIZE = 4096

EMPTY = "empty"
FULL = "full"
ARC = "arc"


def check_ground(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size must be an integer in 1..{MAX_GROUND}, got {n!r}")


def check_element(x: int, n: int) -> None:
    if not isinstance(x, int) or not 1 <= x <= n:
        raise ValueError(f"element {x!r} out of range 1..{n}")


def check_members(sets: Iterable[frozenset[int]], n: int) -> None:
    """check_element on the members of the given sets, each value once.

    A union compares by value, so a non-int equal to an int (2.0 and 2)
    would hide behind it; one pass over the member types sends such input
    to the element-by-element check instead.
    """
    sets = tuple(sets)
    if set(map(type, itertools.chain.from_iterable(sets))) <= {int}:
        members = frozenset().union(*sets)
    else:
        members = itertools.chain.from_iterable(sets)
    for x in members:
        check_element(x, n)


def distinct_members(items: list, what: str) -> frozenset:
    """The members of a JSON list as a set; refuses a non-list and a
    repeated element."""
    if not isinstance(items, list):
        raise ValueError(f"{what} {items!r} is not a list")
    members = frozenset(items)
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


def members_of(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length())
        mask ^= low
    return frozenset(out)


def cyclic_pos(i: int, a: int, n: int) -> int:
    """0-based position of a in the order <_i, i.e. 0 for a = i, n-1 for a = i-1."""
    return (a - i) % n


def cyclic_leq(i: int, a: int, b: int, n: int) -> bool:
    """Whether a <=_i b in the rotated total order starting at i.

    >>> cyclic_leq(3, 4, 1, 5)
    True
    >>> cyclic_leq(6, 5, 6, 7)
    False
    """
    check_ground(n)
    for x in (i, a, b):
        check_element(x, n)
    return cyclic_pos(i, a, n) <= cyclic_pos(i, b, n)


def cyclic_sorted(i: int, members: Iterable[int], n: int) -> list[int]:
    """Members sorted increasingly under <_i."""
    return sorted(members, key=lambda x: cyclic_pos(i, x, n))


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


def gale_extrema(
    family: Sequence[frozenset[int]], masks: Sequence[int], n: int, starts: Iterable[int], maximum: bool
) -> tuple[frozenset[int], ...]:
    """The <=_i-minimum (maximum) of a nonempty family for each i in starts,
    as the family's own objects; masks are the members' checked bitmasks.

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
    member = dict(zip(reversed(masks), reversed(family)))
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
        if extremum not in member:
            word = "maximum" if maximum else "minimum"
            raise ValueError(f"family has no Gale {word} under <_{i}; not a matroid basis family")
        out.append(member[extremum])
    return tuple(out)


def _extremum_of(i: int, family: Iterable[Iterable[int]], n: int, maximum: bool) -> frozenset[int]:
    check_ground(n)
    check_element(i, n)
    fam = [frozenset(s) for s in family]
    if not fam:
        raise ValueError(f"Gale {'maximum' if maximum else 'minimum'} of an empty family")
    check_members(fam, n)
    return gale_extrema(fam, tuple(map(bits_of, fam)), n, (i,), maximum)[0]


def gale_min(i: int, family: Iterable[Iterable[int]], n: int) -> frozenset[int]:
    """The unique <=_i-minimum of a family of equal-size subsets of [n], by
    ``gale_extrema``.  A family with no minimum (which a matroid basis
    family can never be) raises ValueError.
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
        m = 0
        x = self.start
        while True:
            m |= 1 << (x - 1)
            if x == self.end:
                break
            x = x % self.n + 1
        return m

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

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "CyclicInterval":
        kind = obj.get("kind")
        if kind == ARC:
            return cls.arc(n, obj["start"], obj["end"])
        if kind == EMPTY:
            return cls.empty(n)
        if kind == FULL:
            return cls.full(n)
        raise ValueError(f"bad cyclic interval payload: {obj!r}")


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
