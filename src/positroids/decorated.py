"""Decorated permutations, Grassmann necklaces and conecklaces, Grassmann
matrices, and the cyclic shift operation.

A decorated permutation is a permutation of [n] together with a colour on
each position: 0 on every unfixed point, +1 (a loop, written with an ``o``
suffix in text form) or -1 (a coloop, ``c`` suffix) on each fixed point.
Decorated permutations are in bijection with Grassmann necklaces and are
the compact encoding of positroids used everywhere in this package.
Necklaces and conecklaces share the untagged type ``GrassmannNecklace``;
which one a value is follows from the property that made it.  Both are
stored as the entry masks the kernels hand over unchecked, which the axiom
check, ``from_necklace`` and ``anti_exceedances`` read.  Images, colours and
n must be ints: a JSON ``true`` is refused, not read as 1.  The library's
producers hand valid decorated permutations to ``DecoratedPermutation._of``,
which checks nothing.  A text token is ASCII digits, then an optional ``o``
or ``c``; ``from_text`` reads the tokens, then checks the whole permutation
once with ``is_valid``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .cyclic import (
    MAX_GROUND,
    CyclicInterval,
    bits_of,
    check_element,
    check_ground,
    check_members,
    check_rank,
    check_same_ground,
    distinct_members,
    full_mask,
    json_list,
    mask_of,
    members_of,
    shown,
)

LOOP = 1
COLOOP = -1

_SUFFIX = {0: "", LOOP: "o", COLOOP: "c"}
_COL_OF_SUFFIX = {"": 0, "o": LOOP, "c": COLOOP}
# every token that ``to_text`` writes, 1 to MAX_GROUND bare or with a suffix
_TOKENS = {f"{v}{_SUFFIX[c]}": (v, c) for v in range(1, MAX_GROUND + 1) for c in _SUFFIX}


@dataclass(frozen=True)
class GrassmannNecklace:
    """A sequence (I_1, ..., I_n) of k-subsets of [n], stored as its entry masks
    (shown by ``repr``; ``entries`` decodes them on first read).  The constructor
    checks its entries and ``_of_masks``, the kernels' route, does not.  Conecklaces
    share the type, so the necklace axioms are never imposed at construction."""

    n: int
    k: int
    masks: tuple[int, ...]

    def __init__(self, n: int, k: int, entries: Iterable[Iterable[int]]):
        if type(k) is not int:
            raise ValueError(f"k {k!r} is not an integer")
        check_ground(n)
        if not 0 <= k <= n:
            raise ValueError(f"rank {k} out of range for n={n}")
        entries = tuple(distinct_members(list(e), "entry") for e in entries)
        if len(entries) != n:
            raise ValueError(f"expected {n} entries, got {len(entries)}")
        for e in entries:
            if len(e) != k:
                raise ValueError(f"entry {sorted(e)} is not a {k}-subset")
        check_members(entries, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "masks", tuple(map(bits_of, entries)))

    @classmethod
    def _of_masks(cls, n: int, k: int, masks: tuple[int, ...]) -> "GrassmannNecklace":
        """The kernels' route: n masks of k-subsets of [n], unchecked."""
        neck = object.__new__(cls)
        object.__setattr__(neck, "n", n)
        object.__setattr__(neck, "k", k)
        object.__setattr__(neck, "masks", masks)
        return neck

    @cached_property
    def entries(self) -> tuple[frozenset[int], ...]:
        return tuple(map(members_of, self.masks))

    def satisfies_axioms(self) -> bool:
        return self._axiom_violation() is None

    def _axiom_violation(self) -> str | None:
        for i, (cur, nxt) in enumerate(zip(self.masks, self.masks[1:] + self.masks[:1]), start=1):
            if cur >> (i - 1) & 1:
                if cur & ~nxt & ~(1 << (i - 1)):
                    return f"entry {i + 1} does not contain entry {i} minus {{{i}}}"
            elif nxt != cur:
                return f"{i} is not in entry {i} but entry {i + 1} differs"
        return None

    def contains_entrywise(self, other: "GrassmannNecklace") -> bool:
        """Whether other's entries are contained in self's, entry by entry."""
        check_same_ground(self, other)
        return not any(b & ~a for a, b in zip(self.masks, other.masks))

    def to_json(self) -> dict:
        return {"k": self.k, "entries": [sorted(e) for e in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "GrassmannNecklace":
        entries = [distinct_members(e, "entry") for e in json_list(obj["entries"], "entries")]
        return cls(len(entries), obj["k"], tuple(entries))


@dataclass(frozen=True)
class DecoratedPermutation:
    """perm[i-1] is the image of position i; col[i-1] is its colour.

    Construction only checks shapes and ranges, so malformed decorations are
    representable; ``is_valid`` is the semantic check.  All other operations
    assume a valid value.  ``_of``, the producers' route, checks nothing.
    """

    perm: tuple[int, ...]
    col: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(self.perm)
        col = tuple(self.col)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "col", col)
        n = len(perm)
        check_ground(n)
        if len(col) != n:
            raise ValueError(f"perm has length {n} but col has length {len(col)}")
        for x in perm:
            check_element(x, n)
        for c in col:
            if type(c) is not int or c not in (-1, 0, 1):
                raise ValueError(f"colour {c!r} not in {{-1, 0, +1}}")

    @classmethod
    def _of(cls, perm: tuple[int, ...], col: tuple[int, ...]) -> "DecoratedPermutation":
        """The producers' route: a valid (perm, col) as tuples, unchecked."""
        dp = object.__new__(cls)
        object.__setattr__(dp, "perm", perm)
        object.__setattr__(dp, "col", col)
        return dp

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, v in enumerate(self.perm, start=1):
            inv[v - 1] = i
        return tuple(inv)

    def is_valid(self) -> bool:
        """Bijectivity plus the decoration rule: col is 0 exactly off fixed points."""
        perm, ground = self.perm, range(1, len(self.perm) + 1)
        return sorted(perm) == list(ground) and list(map(bool, self.col)) == list(map(operator.eq, perm, ground))

    @property
    def loops(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.col, start=1) if c == LOOP)

    @property
    def coloops(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.col, start=1) if c == COLOOP)

    def anti_exceedances(self, i: int) -> frozenset[int]:
        """W_i = { j : j <_i perm^{-1}(j), or j is a coloop }, the i-th necklace entry."""
        check_element(i, self.n)
        return members_of(self.necklace.masks[i - 1])

    @cached_property
    def necklace(self) -> GrassmannNecklace:
        """The masks of ``necklace_masks``, taken unchecked."""
        masks = necklace_masks(self.perm, self.col)
        return GrassmannNecklace._of_masks(self.n, masks[0].bit_count(), masks)

    @cached_property
    def conecklace(self) -> GrassmannNecklace:
        """The masks of ``conecklace_masks``, taken unchecked."""
        masks = conecklace_masks(self.perm, self.col)
        return GrassmannNecklace._of_masks(self.n, masks[0].bit_count(), masks)

    @cached_property
    def rank(self) -> int:
        """|W_1| = #{j : j < perm^{-1}(j)} + #coloops, counting the first set
        as the anti-exceedances #{i : perm(i) < i}."""
        return sum(map(operator.lt, self.perm, range(1, self.n + 1))) + self.col.count(COLOOP)

    def grassmann_interval(self, i: int) -> CyclicInterval:
        """S_i = (perm^{-1}(i), i]; the full circle when i is a coloop."""
        check_element(i, self.n)
        if self.col[i - 1] == COLOOP:
            return CyclicInterval.full(self.n)
        return CyclicInterval.half_open(self.n, self.inverse[i - 1], i)

    @cached_property
    def grassmann_interval_masks(self) -> tuple[int, ...]:
        return tuple(self.grassmann_interval(i).mask for i in range(1, self.n + 1))

    def grassmann_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The n x n 0/1 matrix as a tuple of rows: row i is the indicator of
        the Grassmann interval S_i, so column j is the indicator of necklace
        entry I_j and every column sums to the rank."""
        n = self.n
        return tuple(tuple(mask >> j & 1 for j in range(n)) for mask in self.grassmann_interval_masks)

    def dual(self) -> "DecoratedPermutation":
        """The decorated permutation (perm^{-1}, -col) of the dual positroid."""
        return DecoratedPermutation._of(self.inverse, tuple(-c for c in self.col))

    def cyclic_shift(self, positions: Iterable[int]) -> "DecoratedPermutation":
        """Freeze the given positions and rotate the remaining values one step.

        Each unfrozen position i receives the value of the previous unfrozen
        position on the circle (the <_i-maximum of the unfrozen set); new
        fixed points created this way become loops.  Freezing everything
        returns the permutation unchanged.
        """
        n = self.n
        frozen = mask_of(positions, n)
        if frozen == full_mask(n):
            return self
        free = [i for i in range(n) if not frozen >> i & 1]
        perm = list(self.perm)
        col = list(self.col)
        for prev, i in zip(free[-1:] + free[:-1], free):
            perm[i] = self.perm[prev]
            col[i] = LOOP if perm[i] == i + 1 else 0
        return DecoratedPermutation._of(tuple(perm), tuple(col))

    @classmethod
    def from_necklace(cls, necklace: GrassmannNecklace) -> "DecoratedPermutation":
        """Inverse of the ``necklace`` property; raises ValueError on an axiom
        violation.  Off the fixed points the axioms make I_{i+1} = I_i - {i} + {perm(i)};
        as x leaves only at step x, perm is a bijection, taken unchecked."""
        bad = necklace._axiom_violation()
        if bad is not None:
            raise ValueError(f"not a Grassmann necklace: {bad}")
        masks, perm, col = necklace.masks, [0] * necklace.n, [0] * necklace.n
        for i, (cur, nxt) in enumerate(zip(masks, masks[1:] + masks[:1]), start=1):
            if nxt == cur:
                perm[i - 1] = i
                col[i - 1] = COLOOP if cur >> (i - 1) & 1 else LOOP
            else:
                perm[i - 1] = (nxt & ~cur).bit_length()
        return cls._of(tuple(perm), tuple(col))

    # -- text and JSON forms -------------------------------------------------

    def to_text(self) -> str:
        return " ".join(f"{v}{_SUFFIX[c]}" for v, c in zip(self.perm, self.col))

    @classmethod
    def from_text(cls, text: str) -> "DecoratedPermutation":
        """Tokens that ``to_text`` writes come from a table, others from
        ``_token``; then the ground size and ``is_valid`` on the whole, and
        only when that fails the elements, for the constructor's message."""
        tokens = [_TOKENS.get(token) or _token(token) for token in text.split()]
        if not tokens:
            raise ValueError("empty decorated permutation text")
        perm, col = map(tuple, zip(*tokens))
        check_ground(len(perm))
        dp = cls._of(perm, col)
        if not dp.is_valid():
            for x in perm:
                check_element(x, len(perm))
            raise ValueError(f"invalid decorated permutation {shown(text)}")
        return dp

    def to_json(self) -> dict:
        return {"n": self.n, "perm": list(self.perm), "col": list(self.col)}

    @classmethod
    def from_json(cls, obj: dict) -> "DecoratedPermutation":
        dp = cls(tuple(json_list(obj["perm"], "perm")), tuple(json_list(obj["col"], "col")))
        n = obj.get("n", dp.n)
        if type(n) is not int or n != dp.n:
            raise ValueError(f"inconsistent n {n!r} in decorated permutation payload of length {dp.n}")
        if not dp.is_valid():
            raise ValueError("invalid decorated permutation payload")
        return dp

    def __str__(self) -> str:
        return self.to_text()


def _token(token: str) -> tuple[int, int]:
    """(value, colour) of a token outside ``_TOKENS``, leading zeros allowed.
    A digit run longer than ``int`` converts is refused like any bad token."""
    suffix = token[-1] if token[-1] in "oc" else ""
    digits = token[: len(token) - len(suffix)]
    if digits.isascii() and digits.isdigit():
        try:
            return int(digits.lstrip("0") or "0"), _COL_OF_SUFFIX[suffix]
        except ValueError:
            pass
    raise ValueError(f"bad decorated permutation token {shown(token)}")


def necklace_masks(perm: tuple[int, ...], col: tuple[int, ...]) -> tuple[int, ...]:
    """The Grassmann necklace of a valid decorated permutation, entry i as a
    mask (element x at bit x - 1), in O(n) integer operations.

    I_1 = W_1 holds the values of the anti-exceedances (perm(i) < i) and the
    coloops; then Postnikov's recurrence I_{i+1} = I_i - {i} + {perm(i)},
    which leaves the entry unchanged at a loop (arXiv:math/0609764).
    """
    entry = 0
    for i, (v, c) in enumerate(zip(perm, col), start=1):
        if v < i or c == COLOOP:
            entry |= 1 << (v - 1)
    masks = [entry]
    for i, (v, c) in enumerate(zip(perm[:-1], col), start=1):
        if c != LOOP:
            entry = entry & ~(1 << (i - 1)) | 1 << (v - 1)
        masks.append(entry)
    return tuple(masks)


def conecklace_masks(perm: tuple[int, ...], col: tuple[int, ...]) -> tuple[int, ...]:
    """The Grassmann conecklace J_i = perm^{-1}(I_i) of a valid decorated
    permutation, entry i as a mask, in O(n) integer operations.

    J_1 = perm^{-1}(I_1) holds the positions j with perm(j) < j and the
    coloops; then I_{i+1} = I_i - {i} + {perm(i)} gives
    J_{i+1} = J_i - {perm^{-1}(i)} + {i}, unchanged at a loop.
    """
    inverse = [0] * len(perm)  # inverse[v - 1]: the bit of perm^{-1}(v)
    for j, v in enumerate(perm):
        inverse[v - 1] = j
    entry = 0
    for j, (v, c) in enumerate(zip(perm, col), start=1):
        if v < j or c == COLOOP:
            entry |= 1 << (j - 1)
    masks = [entry]
    for i, (j, c) in enumerate(zip(inverse[:-1], col)):
        if c != LOOP:
            entry = entry & ~(1 << j) | 1 << i
        masks.append(entry)
    return tuple(masks)


def uniform_dp(k: int, n: int) -> DecoratedPermutation:
    """The k-step rotation i -> i+k, the decorated permutation of U_{k,n}.

    At k = 0 every position is a loop and at k = n every position is a
    coloop, which is what makes rank(uniform_dp(k, n)) == k for all k.
    """
    check_rank(k, n)
    perm = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    if k == 0:
        col = (LOOP,) * n
    elif k == n:
        col = (COLOOP,) * n
    else:
        col = (0,) * n
    return DecoratedPermutation._of(perm, col)


def shift_interval(pi: DecoratedPermutation, sigma: DecoratedPermutation, i: int) -> CyclicInterval:
    """The i-th shift interval (pi^{-1}(i), sigma^{-1}(i)].

    Exceptional case: when i is a loop of sigma and a coloop of pi the
    interval is the full circle.
    """
    check_same_ground(pi, sigma)
    check_element(i, pi.n)
    if sigma.col[i - 1] == LOOP and pi.col[i - 1] == COLOOP:
        return CyclicInterval.full(pi.n)
    return CyclicInterval.half_open(pi.n, pi.inverse[i - 1], sigma.inverse[i - 1])
