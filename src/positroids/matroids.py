"""Explicit-bases matroids and the positroid basis layer.

A matroid stores its full basis family and derives everything else (rank
function, circuits, duality, loops and coloops) from it.  Three routes are
bitmask kernels.  ``bases_from_necklace`` applies each rank cap on a cyclic
interval to all k-subsets at once, as one AND with a bitset from the packed
cap table of (n, k), cached for n <= 10 and built row by row above; the
positroid census counts the surviving bits without building a matroid.  Input off the necklace axioms gets the caps all the
same: [[1], [3], [1]] gives the one basis {1}.  ``Matroid.rank_table`` packs
the ranks of all subsets one byte each and computes every field at once
with big-int operations, over ``byte_table_masks`` and ``subset_max``,
which the quotient check shares.  The necklace and conecklace come from
``cyclic.gale_extrema`` over the basis masks, which alone decide
``is_positroid``.  The direct routes they replace (the Gale-order filter,
max over bases, the sorted-tuple Gale extremum, the exchange axiom ahead of
the closure) are oracles in ``tests/support.py``.  Circuits and
``is_valid``, kept for outside input, are direct search over subsets, exact
at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable

from .cyclic import (
    CACHE_SIZE,
    bits_of,
    check_ground,
    check_members,
    distinct_members,
    full_mask,
    gale_extrema,
    json_list,
    mask_of,
    members_of,
)
from .decorated import DecoratedPermutation, GrassmannNecklace


@dataclass(frozen=True)
class Matroid:
    """Ground size n plus an explicit basis family.

    The family is deduplicated and canonically ordered at construction.
    Structural checks only; ``is_valid`` performs the exchange-axiom check,
    and the semantic operations assume it holds.
    """

    n: int
    bases: tuple[frozenset[int], ...]

    def __init__(self, n: int, bases: Iterable[Iterable[int]]):
        check_ground(n)
        family = {frozenset(b) for b in bases}
        if not family:
            raise ValueError("a matroid needs at least one basis")
        check_members(family, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bases", tuple(sorted(family, key=sorted)))

    @property
    def rank(self) -> int:
        return len(self.bases[0])

    @cached_property
    def basis_masks(self) -> tuple[int, ...]:
        return tuple(map(bits_of, self.bases))

    def is_valid(self) -> bool:
        """Equicardinality plus the basis-exchange axiom, checked pairwise."""
        if len({len(b) for b in self.bases}) != 1:
            return False
        masks = self.basis_masks
        mset = set(masks)
        for b1 in masks:
            for b2 in masks:
                diff = b1 & ~b2
                while diff:
                    x = diff & -diff
                    diff ^= x
                    fresh = b2 & ~b1
                    found = False
                    while fresh:
                        y = fresh & -fresh
                        fresh ^= y
                        if (b1 ^ x) | y in mset:
                            found = True
                            break
                    if not found:
                        return False
        return True

    @cached_property
    def rank_table(self) -> bytes:
        """rank_of every subset, one byte per subset, indexed by bitmask.
        Exponential; desk scale only.

        The table is built as one integer with a byte field per subset, in
        three passes of big-int operations over all 2^n fields at once:
        close the basis indicator downward, one shift-and-OR per element,
        to mark the independent sets; multiply by 0xFF and keep the
        popcount table, so an independent S holds |S| and the rest 0; then
        take rk(S) = max over subsets, one guarded-subtraction select per
        element.  Ranks stay at most 16, below the guard bit 0x80.
        """
        if self.n > 16:
            raise ValueError("rank table supported only for n <= 16")
        _, sizes, covers = byte_table_masks(self.n)
        packed = 0
        for b in self.basis_masks:
            packed |= 1 << 8 * b
        for shift, values, g in covers:
            packed |= (packed & (values | g)) >> shift
        return subset_max(packed * 0xFF & sizes, self.n).to_bytes(1 << self.n, "little")

    def rank_of(self, subset: Iterable[int]) -> int:
        """rk(S) = max over bases of |S intersect B|."""
        s = mask_of(subset, self.n)
        return max((s & b).bit_count() for b in self.basis_masks)

    def dual(self) -> "Matroid":
        full = full_mask(self.n)
        return Matroid(self.n, (members_of(full & ~b) for b in self.basis_masks))

    @cached_property
    def circuits(self) -> tuple[frozenset[int], ...]:
        """All minimal dependent sets, by exhaustive search over subsets of [n]."""
        table = self.rank_table
        out = []
        for m in range(1, 1 << self.n):
            size = m.bit_count()
            if table[m] >= size:
                continue
            bits, minimal = m, True
            while bits:
                x = bits & -bits
                bits ^= x
                if table[m ^ x] != size - 1:
                    minimal = False
                    break
            if minimal:
                out.append(members_of(m))
        return tuple(sorted(out, key=lambda c: (len(c), sorted(c))))

    @cached_property
    def circuit_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(c, self.n) for c in self.circuits)

    def loops_and_coloops(self) -> tuple[frozenset[int], frozenset[int]]:
        """(elements in no basis, elements in every basis)."""
        union = 0
        inter = full_mask(self.n)
        for b in self.basis_masks:
            union |= b
            inter &= b
        return members_of(full_mask(self.n) & ~union), members_of(inter)

    # -- positroid structure ---------------------------------------------------

    @cached_property
    def _necklace(self) -> GrassmannNecklace:
        entries = gale_extrema(self.bases, self.basis_masks, self.n, range(1, self.n + 1), maximum=False)
        return GrassmannNecklace(self.n, self.rank, entries)

    @cached_property
    def _conecklace(self) -> GrassmannNecklace:
        entries = gale_extrema(self.bases, self.basis_masks, self.n, range(1, self.n + 1), maximum=True)
        return GrassmannNecklace(self.n, self.rank, entries)

    def grassmann_necklace(self) -> GrassmannNecklace:
        """Entry i is the <=_i-minimum basis, read off the prefix counts of
        all basis masks at once (``gale_extrema``); raises ValueError when
        some <=_i has no minimum, which a matroid never lacks."""
        return self._necklace

    def grassmann_conecklace(self) -> GrassmannNecklace:
        """Entry i is the <=_i-maximum basis (see grassmann_necklace)."""
        return self._conecklace

    def is_positroid(self) -> bool:
        """Whether the Gale minima exist, satisfy the necklace axioms and
        their positroid is this family: a positroid is determined by its
        necklace (Postnikov, arXiv:math/0609764; Oh, arXiv:0803.1018), so
        no exchange-axiom check is needed."""
        try:
            necklace = self.grassmann_necklace()
        except ValueError:
            return False
        return necklace.satisfies_axioms() and set(bases_from_necklace(necklace).bases) == set(self.bases)

    def to_json(self) -> dict:
        return {"n": self.n, "bases": [sorted(b) for b in self.bases]}

    @classmethod
    def from_json(cls, obj: dict) -> "Matroid":
        return cls(obj["n"], [distinct_members(b, "basis") for b in json_list(obj["bases"], "bases")])


@lru_cache(maxsize=16)
def byte_table_masks(n: int) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """Masks over a table of 2^n one-byte fields, field S at bits 8S..8S+7:
    the guard bits 0x80 of every field, |S| in every field, and for each
    element x the shift that moves field S - x onto field S together with
    the value bits (0x7F) and guard bits (0x80) of the fields S that hold x.

    Subtracting field-aligned values below 0x80 from operands whose guard
    bits are set borrows no further than the field's own guard bit, and
    that bit survives exactly when the field did not go negative.
    """
    size = 1 << n
    guards = int.from_bytes(b"\x80" * size, "little")
    sizes = int.from_bytes(bytes(s.bit_count() for s in range(size)), "little")
    covers = []
    for i in range(n):
        h = 1 << i
        blocks = size >> (i + 1)
        values = int.from_bytes((bytes(h) + b"\x7f" * h) * blocks, "little")
        held = int.from_bytes((bytes(h) + b"\x80" * h) * blocks, "little")
        covers.append((8 * h, values, held))
    return guards, sizes, tuple(covers)


def subset_max(packed: int, n: int) -> int:
    """Each field S of a packed table (values below 0x80) replaced by the
    maximum over the subsets of S: for each x, a guarded subtraction picks
    the larger of fields S and S - x wherever S holds x."""
    for shift, values, g in byte_table_masks(n)[2]:
        a = packed & values
        b = (packed << shift) & values
        keep = ((((a | g) - b) & g) >> 7) * 0x7F  # fields with a >= b
        packed ^= (a ^ b) & (values ^ keep)
    return packed


# cap tables are cached for ground sets up to this size, where every
# table together takes 1.4 MB; larger ones are built row by row per call
CACHED_N = 10


def _subsets(n: int, k: int) -> tuple[tuple[frozenset[int], ...], list[int]]:
    """The k-subsets of [n] in lexicographic order, and for each element x
    the bitset of those that hold x (bit c for the c-th subset)."""
    subsets = tuple(map(frozenset, itertools.combinations(range(1, n + 1), k)))
    # digits[x - 1]: the binary digits of has[x], highest bit first, marked
    # from the members of each subset or, for k > n / 2, its fewer non-members
    members = 2 * k <= n
    ground = frozenset(range(1, n + 1))
    digits = [bytearray(b"0" if members else b"1") * len(subsets) for _ in range(n)]
    mark = ord("1" if members else "0")
    for c, b in enumerate(reversed(subsets)):
        for x in b if members else ground - b:
            digits[x - 1][c] = mark
    return subsets, [int(d, 2) for d in digits]


def _arc_caps(has: list[int], s: int, k: int, count: int) -> tuple:
    """The rank caps on the arcs from bit s, as bitsets over ``count``
    subsets: ``row[L][t]`` holds the subsets with more than t members in
    the arc of length L, for 1 <= L < n and t < k.

    Each arc grows one element x at a time, updating the "at least j
    members" bitsets as ge[j] |= ge[j-1] & has[x]: n*k big-int operations.
    """
    n = len(has)
    ge = [(1 << count) - 1] + [0] * k
    row = [()]
    for length in range(1, n):
        x = has[(s + length - 1) % n]
        for j in range(min(k, length), 0, -1):
            ge[j] |= ge[j - 1] & x
        row.append(tuple(ge[1:]))
    return tuple(row)


@lru_cache(maxsize=32)
def _cap_table(n: int, k: int) -> tuple[tuple[frozenset[int], ...], tuple]:
    """The k-subsets of [n] (``_subsets``), shared by every basis family
    built from them, and ``rows[s]``, the caps on the arcs from bit s
    (``_arc_caps``): n*n*k big-int operations.

    Only ``_basis_bits`` calls it, and only for n <= ``CACHED_N``.  Build
    time and footprint, Python 3.11: 0.1 ms and 9 KB at (6, 3), 0.2 ms and
    26 KB at (8, 4), 0.5 ms and 0.21 MB at (10, 5), mostly the subsets
    themselves.  The 32 tables the cache holds cover every rank of every n
    from 6 to 8 at once (24 keys, 0.3 MB together), and every table with
    n <= 10 together is 1.4 MB, which bounds the cache.
    """
    subsets, has = _subsets(n, k)
    # equal bitsets are stored once: on arcs longer than n - k + t every
    # subset has more than t members, which matters for k close to n
    shared: dict[int, int] = {}
    rows = tuple(
        tuple(tuple(map(shared.setdefault, caps, caps)) for caps in _arc_caps(has, s, k, len(subsets)))
        for s in range(n)
    )
    return subsets, rows


def _basis_bits(necklace: GrassmannNecklace) -> tuple[tuple[frozenset[int], ...], int]:
    """The k-subsets of [n] in lexicographic order, and the bases of the
    positroid of a necklace as a bitset over them: every subset, less
    those over some cap.  The caps come from the cached ``_cap_table`` for
    n <= ``CACHED_N``; above it, each row is built for the entry that
    needs one and dropped, so the memory held is one row, not n of them.

    I_i <=_i B says that, for each t from 0, the t-th member of B under <_i
    comes no earlier than the t-th member x of I_i: |B & P| <= t for the
    prefix P of <_i that ends just before x.  A cap with |P| = t constrains
    nothing and is skipped.  The prefixes kept are nonempty proper cyclic
    intervals, one per start and length, so no cap repeats.
    """
    n, k = necklace.n, necklace.k
    if n <= CACHED_N:
        subsets, rows = _cap_table(n, k)
        row_of = rows.__getitem__
    else:
        subsets, has = _subsets(n, k)
        row_of = partial(_arc_caps, has, k=k, count=len(subsets))
    alive = (1 << len(subsets)) - 1
    full = full_mask(n)
    for i, entry in enumerate(necklace.masks):
        # bit j of rot: the element at position j of <_i
        rot = (entry >> i | entry << (n - i)) & full
        row = None
        t = 0
        while rot:
            low = rot & -rot
            j = low.bit_length() - 1
            if t < j:
                if row is None:
                    row = row_of(i)
                alive &= ~row[j][t]
            rot ^= low
            t += 1
    if not alive:
        raise ValueError("no subset dominates every necklace entry; invalid necklace")
    return subsets, alive


def bases_from_necklace(necklace: GrassmannNecklace) -> Matroid:
    """B(I) = { B in C([n], k) : I_i <=_i B for all i }, the positroid of I.

    The positroid is cut out by rank caps on cyclic intervals (Oh,
    arXiv:0803.1018): ``_basis_bits`` applies each cap to all k-subsets at
    once, as one AND with a bitset of the packed cap table, and the
    surviving bits decode to the table's subsets, shared by every call
    with the same cached (n, k).

    Assumes the necklace axioms.  Input that breaks them may leave no
    subset (ValueError) or yield the positroid of another necklace:
    [[1], [3], [1]] gives the one basis {1}.  Outside input is checked by
    ``DecoratedPermutation.from_necklace``, which names the violation.
    """
    subsets, alive = _basis_bits(necklace)
    return Matroid(necklace.n, [b for b, bit in zip(subsets, bin(alive)[:1:-1]) if bit == "1"])


@lru_cache(maxsize=CACHE_SIZE)
def positroid_of(dp: DecoratedPermutation) -> Matroid:
    """The positroid whose Grassmann necklace is the one of dp."""
    return bases_from_necklace(dp.necklace)


@lru_cache(maxsize=CACHE_SIZE)
def uniform_matroid(k: int, n: int) -> Matroid:
    """U_{k,n}: every k-subset of [n] is a basis."""
    check_ground(n)
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range 0..{n}")
    return Matroid(n, itertools.combinations(range(1, n + 1), k))
