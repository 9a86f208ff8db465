"""Explicit-bases matroids and the positroid basis layer.

A matroid stores its full basis family and derives everything else (rank
function, circuits, duality, loops and coloops) from it.  Three routes are
bitmask kernels: ``bases_from_necklace`` tests k-subsets against rank caps
on cyclic intervals; ``Matroid.rank_table`` packs the ranks of all subsets
one byte each and computes every field at once with big-int operations,
over masks from ``byte_table_masks`` that the quotient check shares; and
the necklace and conecklace come from ``cyclic.gale_extrema`` over the
basis masks.  The direct routes they replace, the Gale-order filter, max
over bases and the sorted-tuple Gale extremum, are kept as oracles in
``tests/support.py`` and cross-checked against them.
The rest (circuits, the exchange-axiom check) is still direct search over
subsets: exact at desk scale, and the substrate the quotient criteria are
cross-validated against.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .cyclic import (
    CACHE_SIZE,
    bits_of,
    check_ground,
    check_members,
    full_mask,
    gale_extrema,
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
        packed = packed * 0xFF & sizes
        for shift, values, g in covers:
            a = packed & values
            b = (packed << shift) & values
            keep = ((((a | g) - b) & g) >> 7) * 0x7F  # fields with a >= b
            packed ^= (a ^ b) & (values ^ keep)
        return packed.to_bytes(1 << self.n, "little")

    def rank_of(self, subset: Iterable[int]) -> int:
        """rk(S) = max over bases of |S intersect B|."""
        s = mask_of(subset, self.n)
        return max((s & b).bit_count() for b in self.basis_masks)

    def independent(self, subset: Iterable[int]) -> bool:
        s = mask_of(subset, self.n)
        return any(s & ~b == 0 for b in self.basis_masks)

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
        return GrassmannNecklace(self.n, self.rank, entries, "conecklace")

    def grassmann_necklace(self) -> GrassmannNecklace:
        """Entry i is the <=_i-minimum basis, read off the prefix counts of
        all basis masks at once (``gale_extrema``); raises ValueError when
        some <=_i has no minimum, which a matroid never lacks."""
        return self._necklace

    def grassmann_conecklace(self) -> GrassmannNecklace:
        """Entry i is the <=_i-maximum basis (see grassmann_necklace)."""
        return self._conecklace

    def is_positroid(self) -> bool:
        """Whether the necklace closure reproduces exactly this basis family.

        Non-matroids are never positroids, so the exchange axiom is checked
        first; this also keeps the Gale minima well defined.
        """
        if not self.is_valid():
            return False
        closure = bases_from_necklace(self.grassmann_necklace())
        return set(closure.bases) == set(self.bases)

    def to_json(self) -> dict:
        return {"n": self.n, "bases": [sorted(b) for b in self.bases]}

    @classmethod
    def from_json(cls, obj: dict) -> "Matroid":
        return cls(obj["n"], [frozenset(b) for b in obj["bases"]])


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


def bases_from_necklace(necklace: GrassmannNecklace) -> Matroid:
    """B(I) = { B in C([n], k) : I_i <=_i B for all i }, the positroid of I.

    The positroid is cut out by rank caps on cyclic intervals (Oh,
    arXiv:0803.1018).  I_i <=_i B says that, for each t from 0, the t-th
    member of B under <_i comes no earlier than the t-th member x of I_i:
    |B & P| <= t for the prefix P of <_i that ends just before x.  A cap
    with |P| = t constrains nothing and is dropped.  The prefixes kept are
    nonempty proper cyclic intervals, one per start and length, so no cap
    repeats; every k-subset is tested against all of them.

    Raises ValueError when the filter comes back empty, which signals input
    that does not satisfy the necklace axioms.
    """
    n, k = necklace.n, necklace.k
    caps = []
    for i, entry in enumerate(necklace.masks):
        prefix = t = 0
        for j in range(n):
            bit = 1 << (i + j) % n
            if entry & bit:
                if t < j:
                    caps.append((prefix, t))
                t += 1
                if t == k:
                    break
            prefix |= bit
    found = []
    for combo, bits in zip(
        itertools.combinations(range(1, n + 1), k),
        itertools.combinations([1 << x for x in range(n)], k),
    ):
        b = sum(bits)
        for prefix, cap in caps:
            if (b & prefix).bit_count() > cap:
                break
        else:
            found.append(combo)
    if not found:
        raise ValueError("no subset dominates every necklace entry; invalid necklace")
    return Matroid(n, found)


@lru_cache(maxsize=None)
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
