"""Explicit-bases matroids and the positroid basis layer.

A matroid stores its basis family as masks in canonical order and derives
everything else (the bases as sets, rank function, circuits, duality,
loops and coloops) from them.  Three routes are bitmask kernels.
``bases_from_necklace`` applies each rank cap on a cyclic interval to all
k-subsets at once, as one AND with a bitset from the packed cap table of
(n, k), cached for n <= 10 and built row by row above (``_cap_rows``,
which ``lpm_bases`` shares); the surviving masks become the matroid
unchecked.  Input off the necklace axioms gets the caps
all the same: [[1], [3], [1]] gives the one basis {1}.  Rank tables are
packed ints, one byte field per subset, computed with big-int operations
over ``byte_table_masks`` and ``subset_max``, which the quotient check
shares: ``Matroid.rank_table`` is ``packed_rank_table`` as bytes, and the
flag-pair sweep takes the same int of the ``_basis_bits`` of necklace
masks and compares the flats ``flat_table`` marks in it; circuits are
packed passes over the independence table it starts from.
The necklace and conecklace are the masks ``cyclic.gale_extrema`` finds,
taken unchecked; ``is_valid``, for outside input, checks exchange pairwise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable

from .cyclic import (
    CACHE_SIZE,
    bits_of,
    check_ground,
    check_members,
    check_rank,
    distinct_members,
    full_mask,
    gale_extrema,
    json_list,
    mask_of,
    member_masks,
    members_of,
    sorted_members,
)
from .decorated import DecoratedPermutation, GrassmannNecklace, necklace_masks


@dataclass(frozen=True)
class Matroid:
    """Ground size n plus an explicit basis family, stored as its masks,
    deduplicated and in canonical order: the lexicographic order of the
    sorted bases (``canonical_order``).  ``from_json`` turns each basis
    into its mask in one pass over the members (``member_masks``) and takes
    the constructor's checks only to name a fault.  Structural checks only;
    ``is_valid`` performs the exchange-axiom check, and the semantic
    operations assume it holds.
    """

    n: int
    basis_masks: tuple[int, ...]

    def __init__(self, n: int, bases: Iterable[Iterable[int]]):
        check_ground(n)
        given = [tuple(b) for b in bases]
        if not given:
            raise ValueError("a matroid needs at least one basis")
        check_members(given, n)  # before deduplication, which would hide 1.0 or True behind 1
        family = {distinct_members(list(b), "basis") for b in given}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis_masks", canonical_order(map(bits_of, family)))

    @classmethod
    def _of_masks(cls, n: int, basis_masks: tuple[int, ...]) -> "Matroid":
        """The kernels' route: distinct masks of subsets of [n], nonempty and
        already in canonical order, taken with no check and no sort."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "basis_masks", basis_masks)
        return m

    @cached_property
    def bases(self) -> tuple[frozenset[int], ...]:
        return tuple(map(members_of, self.basis_masks))

    @property
    def rank(self) -> int:
        return self.basis_masks[0].bit_count()

    def is_valid(self) -> bool:
        """Equicardinality plus the basis-exchange axiom, checked pairwise."""
        masks = self.basis_masks
        if len(set(map(int.bit_count, masks))) != 1:
            return False
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
        """rank_of every subset, one byte per subset, indexed by bitmask
        (``packed_rank_table`` as bytes).  Exponential; desk scale only."""
        return packed_rank_table(self.n, self.basis_masks).to_bytes(1 << self.n, "little")

    def rank_of(self, subset: Iterable[int]) -> int:
        """rk(S) = max over bases of |S intersect B|."""
        s = mask_of(subset, self.n)
        return max((s & b).bit_count() for b in self.basis_masks)

    def dual(self) -> "Matroid":
        full = full_mask(self.n)
        return Matroid._of_masks(self.n, canonical_order(full ^ b for b in self.basis_masks))

    @cached_property
    def circuit_masks(self) -> tuple[int, ...]:
        """All minimal dependent sets, ordered by size and then as sorted
        member lists.  Packed passes over the 2^n byte fields: the dependent
        sets are the fields ``packed_independence_table`` leaves 0, and one
        AND per element x drops every S that holds x with S - x dependent."""
        n = self.n
        independent = packed_independence_table(n, self.basis_masks)
        guards, _, covers = byte_table_masks(n)
        dependent = independent ^ guards >> 7  # guards >> 7 holds 1 in every field
        circuits = dependent
        for shift, values, _ in covers:
            circuits &= ~(dependent << shift & values)
        found = itertools.compress(range(1 << n), circuits.to_bytes(1 << n, "little"))
        return tuple(sorted(canonical_order(found), key=int.bit_count))

    @cached_property
    def circuits(self) -> tuple[frozenset[int], ...]:
        return tuple(map(members_of, self.circuit_masks))

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
        masks = gale_extrema(self.basis_masks, self.n, range(1, self.n + 1), maximum=False)
        return GrassmannNecklace._of_masks(self.n, self.rank, masks)

    @cached_property
    def _conecklace(self) -> GrassmannNecklace:
        masks = gale_extrema(self.basis_masks, self.n, range(1, self.n + 1), maximum=True)
        return GrassmannNecklace._of_masks(self.n, self.rank, masks)

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
        return necklace.satisfies_axioms() and bases_from_necklace(necklace) == self

    def to_json(self) -> dict:
        return {"n": self.n, "bases": list(map(sorted_members, self.basis_masks))}

    @classmethod
    def from_json(cls, obj: dict) -> "Matroid":
        """The checked constructor's matroid, in one pass over the members
        (``member_masks``) when nothing is at fault; otherwise the checked
        route names the fault, with its messages and in its order."""
        n, bases = obj["n"], json_list(obj["bases"], "bases")
        masks = member_masks(bases, n)
        if not masks:
            return cls(n, [distinct_members(b, "basis") for b in bases])
        return cls._of_masks(n, canonical_order(masks))


def _lex_key(mask: int) -> str:
    """A key whose reverse order is the lexicographic order of sorted member
    lists: the binary digits from element 1 up, then "2".  Where two subsets
    first differ, the one that holds the element comes first ("1" above
    "0"), unless the other has run out of members ("2" above "1").  The
    empty set's key is "2" alone, so it comes first of all."""
    return bin(mask)[:1:-1] + "2" if mask else "2"


def canonical_order(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks in canonical order, the order of ``Matroid.basis_masks``."""
    return tuple(sorted(set(masks), key=_lex_key, reverse=True))


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


def flat_table(n: int, packed_rank: int) -> int:
    """Field S of a packed rank table replaced by 1 when S is a flat and 0
    otherwise.  S - x is no flat when x lies in its closure: for each x,
    one subtraction gives rk(S) - rk(S - x), 0 or 1, in every field S that
    holds x, and field S - x is cleared wherever it is 0."""
    guards, _, covers = byte_table_masks(n)
    flats = guards >> 7
    for shift, values, g in covers:
        rises = (packed_rank & values) - (packed_rank << shift & values)
        flats &= ~((g >> 7 ^ rises) >> shift)
    return flats


def packed_independence_table(n: int, basis_masks: Iterable[int]) -> int:
    """Field S (bits 8S..8S+7) is 1 when S lies in one of the given bases and
    0 otherwise: the basis indicator closed downward, one shift-and-OR per
    element."""
    if n > 16:
        raise ValueError("rank table supported only for n <= 16")
    indicator = bytearray(1 << n)
    for b in basis_masks:
        indicator[b] = 1
    packed = int.from_bytes(indicator, "little")
    for shift, values, g in byte_table_masks(n)[2]:
        packed |= (packed & (values | g)) >> shift
    return packed


def packed_rank_table(n: int, basis_masks: Iterable[int]) -> int:
    """The rank of every subset of [n] as one int, field S at bits 8S..8S+7:
    the independent sets (``packed_independence_table``) times 0xFF, kept on
    the popcount table, so an independent S holds |S| and the rest 0, then
    rk(S) = max over subsets (``subset_max``).  Ranks stay below 0x80."""
    return subset_max(packed_independence_table(n, basis_masks) * 0xFF & byte_table_masks(n)[1], n)


# cap tables are cached for ground sets up to this size, where every
# table together takes 0.53 MB; larger ones are built row by row per call
CACHED_N = 10
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits -> compress selectors


def _subsets(n: int, k: int) -> tuple[tuple[int, ...], list[int]]:
    """The masks of the k-subsets of [n] in lexicographic order, and for
    each element x the bitset of those that hold x (bit c for the c-th
    subset)."""
    subsets = list(itertools.combinations(range(1, n + 1), k))
    # digits[x - 1]: the binary digits of has[x], highest bit first
    digits = [bytearray(b"0") * len(subsets) for _ in range(n)]
    for c, b in enumerate(reversed(subsets)):
        for x in b:
            digits[x - 1][c] = 49  # ord("1")
    return tuple(map(bits_of, subsets)), [int(d, 2) for d in digits]


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
def _cap_table(n: int, k: int) -> tuple[tuple[int, ...], tuple]:
    """The masks of the k-subsets of [n] (``_subsets``) and ``rows[s]``,
    the caps on the arcs from bit s (``_arc_caps``): n*n*k big-int
    operations.

    Only ``_cap_rows`` calls it, and only for n <= ``CACHED_N``.  Build
    time and footprint, Python 3.11: 0.06 ms and 5 KB at (6, 3), 0.15 ms and
    14 KB at (8, 4), 0.4 ms and 38 KB at (10, 5).  The 32 tables the cache
    holds cover every rank of every n from 6 to 8 at once (24 keys, 0.14 MB
    together), and every table with n <= 10 together is 0.53 MB, which
    bounds the cache.
    """
    subset_masks, has = _subsets(n, k)
    return subset_masks, tuple(_arc_caps(has, s, k, len(subset_masks)) for s in range(n))


def _cap_rows(n: int, k: int) -> tuple[tuple[int, ...], Callable[[int], tuple]]:
    """The masks of the k-subsets of [n] and, for each start bit s, the
    caps on the arcs from s (``_arc_caps``): from the cached ``_cap_table``
    for n <= ``CACHED_N``; above it, each row is built when asked for and
    not kept, so the memory held is one row, not n of them."""
    if n <= CACHED_N:
        subset_masks, rows = _cap_table(n, k)
        return subset_masks, rows.__getitem__
    subset_masks, has = _subsets(n, k)
    return subset_masks, partial(_arc_caps, has, k=k, count=len(subset_masks))


def _surviving(subset_masks: tuple[int, ...], alive: int) -> tuple[int, ...]:
    """The masks of the subsets whose bits are set in alive, in order."""
    return tuple(itertools.compress(subset_masks, bin(alive)[:1:-1].encode().translate(_SELECTORS)))


def _basis_bits(n: int, k: int, masks: Iterable[int]) -> tuple[int, ...]:
    """The basis masks, in lexicographic order, of the positroid of the
    rank-k necklace with the given entry masks: a bitset over the k-subsets
    of [n], every subset less those over some cap (``_cap_rows``), decoded
    to the subsets' masks.

    I_i <=_i B says that, for each t from 0, the t-th member of B under <_i
    comes no earlier than the t-th member x of I_i: |B & P| <= t for the
    prefix P of <_i that ends just before x.  A cap with |P| = t constrains
    nothing and is skipped.  The prefixes kept are nonempty proper cyclic
    intervals, one per start and length, so no cap repeats.
    """
    subset_masks, row_of = _cap_rows(n, k)
    alive = (1 << len(subset_masks)) - 1
    full = full_mask(n)
    for i, entry in enumerate(masks):
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
    return _surviving(subset_masks, alive)


def bases_from_necklace(necklace: GrassmannNecklace) -> Matroid:
    """B(I) = { B in C([n], k) : I_i <=_i B for all i }, the positroid of I.

    The positroid is cut out by rank caps on cyclic intervals (Oh,
    arXiv:0803.1018): ``_basis_bits`` applies each cap to all k-subsets at
    once, as one AND with a bitset of the packed cap table, and the
    surviving bits decode to basis masks in canonical order, which become
    the matroid with no check and no sort.

    Assumes the necklace axioms.  Input that breaks them may leave no
    subset (ValueError) or yield the positroid of another necklace:
    [[1], [3], [1]] gives the one basis {1}.  Outside input is checked by
    ``DecoratedPermutation.from_necklace``, which names the violation.
    """
    return Matroid._of_masks(necklace.n, _basis_bits(necklace.n, necklace.k, necklace.masks))


@lru_cache(maxsize=CACHE_SIZE)
def positroid_of(dp: DecoratedPermutation) -> Matroid:
    """The positroid of dp's necklace, read off ``necklace_masks``."""
    masks = necklace_masks(dp.perm, dp.col)
    return Matroid._of_masks(dp.n, _basis_bits(dp.n, masks[0].bit_count(), masks))


@lru_cache(maxsize=CACHE_SIZE, typed=True)  # typed: True and 1.0 are refused, not read as 1
def uniform_matroid(k: int, n: int) -> Matroid:
    """U_{k,n}: every k-subset of [n] is a basis."""
    check_rank(k, n)
    return Matroid._of_masks(n, tuple(map(bits_of, itertools.combinations(range(1, n + 1), k))))
