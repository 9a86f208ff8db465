"""Decorated permutations, Grassmann necklaces and conecklaces, Grassmann
matrices, and the cyclic shift operation.

A decorated permutation is a permutation of [n] together with a colour on
each position: 0 on every unfixed point, +1 (a loop, written with an ``o``
suffix in text form) or -1 (a coloop, ``c`` suffix) on each fixed point.
Decorated permutations are in bijection with Grassmann necklaces and are
the compact encoding of positroids used everywhere in this package.
Necklaces and conecklaces share the untagged type ``GrassmannNecklace``;
which one a value is follows from the property that made it.  Images,
colours and n must be ints: a JSON ``true`` is refused, not read as 1.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .cyclic import (
    CyclicInterval,
    bits_of,
    check_element,
    check_ground,
    check_members,
    cyclic_pos,
    distinct_members,
    full_mask,
    json_list,
    mask_of,
    members_of,
)

LOOP = 1
COLOOP = -1

_SUFFIX = {0: "", LOOP: "o", COLOOP: "c"}
_COL_OF_SUFFIX = {"": 0, "o": LOOP, "c": COLOOP}


@dataclass(frozen=True)
class GrassmannNecklace:
    """A sequence (I_1, ..., I_n) of k-subsets of [n].

    The same type stores conecklaces (sequences of Gale maxima), so the
    necklace axioms are never imposed at construction time.
    """

    n: int
    k: int
    entries: tuple[frozenset[int], ...]

    def __post_init__(self):
        if type(self.k) is not int:
            raise ValueError(f"k {self.k!r} is not an integer")
        check_ground(self.n)
        if not 0 <= self.k <= self.n:
            raise ValueError(f"rank {self.k} out of range for n={self.n}")
        entries = tuple(frozenset(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.n:
            raise ValueError(f"expected {self.n} entries, got {len(entries)}")
        for e in entries:
            if len(e) != self.k:
                raise ValueError(f"entry {sorted(e)} is not a {self.k}-subset")
        check_members(entries, self.n)

    def entry(self, i: int) -> frozenset[int]:
        """The i-th entry, 1-indexed, with I_{n+1} meaning I_1."""
        return self.entries[(i - 1) % self.n]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(map(bits_of, self.entries))

    @cached_property
    def _packed(self) -> int:
        """Every entry mask in one int, entry i in bits n*(i-1) .. n*i - 1."""
        return sum(mask << (self.n * i) for i, mask in enumerate(self.masks))

    def satisfies_axioms(self) -> bool:
        return self._axiom_violation() is None

    def _axiom_violation(self) -> str | None:
        for i in range(1, self.n + 1):
            cur, nxt = self.entry(i), self.entry(i + 1)
            if i in cur:
                if not cur - {i} <= nxt:
                    return f"entry {i + 1} does not contain entry {i} minus {{{i}}}"
            elif nxt != cur:
                return f"{i} is not in entry {i} but entry {i + 1} differs"
        return None

    def contains_entrywise(self, other: "GrassmannNecklace") -> bool:
        """Whether other's entries are contained in self's, entry by entry
        (one test on the packed entry masks)."""
        if other.n != self.n:
            raise ValueError("ground-set mismatch")
        return other._packed & ~self._packed == 0

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
    assume a valid value.
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
        if sorted(self.perm) != list(range(1, self.n + 1)):
            return False
        return all((c == 0) == (v != i) for i, (v, c) in enumerate(zip(self.perm, self.col), start=1))

    @property
    def loops(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.col, start=1) if c == LOOP)

    @property
    def coloops(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.col, start=1) if c == COLOOP)

    def anti_exceedances(self, i: int) -> frozenset[int]:
        """W_i = { j : j <_i perm^{-1}(j), or j is a coloop }, the i-th necklace entry."""
        n = self.n
        check_element(i, n)
        inv = self.inverse
        return frozenset(
            j
            for j in range(1, n + 1)
            if self.col[j - 1] == COLOOP or cyclic_pos(i, j, n) < cyclic_pos(i, inv[j - 1], n)
        )

    @cached_property
    def necklace(self) -> GrassmannNecklace:
        """The entries of ``necklace_masks`` as sets."""
        masks = necklace_masks(self.perm, self.col)
        return GrassmannNecklace(self.n, masks[0].bit_count(), tuple(map(members_of, masks)))

    @cached_property
    def conecklace(self) -> GrassmannNecklace:
        """J_i = perm^{-1}(I_i), entry by entry."""
        inv = self.inverse
        entries = tuple(frozenset(inv[x - 1] for x in e) for e in self.necklace.entries)
        return GrassmannNecklace(self.n, self.necklace.k, entries)

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
        return DecoratedPermutation(self.inverse, tuple(-c for c in self.col))

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
        return DecoratedPermutation(tuple(perm), tuple(col))

    @classmethod
    def from_necklace(cls, necklace: GrassmannNecklace) -> "DecoratedPermutation":
        """Inverse of the ``necklace`` property; raises ValueError on an axiom violation."""
        bad = necklace._axiom_violation()
        if bad is not None:
            raise ValueError(f"not a Grassmann necklace: {bad}")
        n = necklace.n
        perm = [0] * n
        col = [0] * n
        for i in range(1, n + 1):
            cur, nxt = necklace.entry(i), necklace.entry(i + 1)
            if nxt == cur:
                perm[i - 1] = i
                col[i - 1] = COLOOP if i in cur else LOOP
            else:
                (j,) = nxt - (cur - {i})
                perm[i - 1] = j
        dp = cls(tuple(perm), tuple(col))
        if not dp.is_valid():
            raise ValueError("necklace does not define a decorated permutation")
        return dp

    # -- text and JSON forms -------------------------------------------------

    def to_text(self) -> str:
        return " ".join(f"{v}{_SUFFIX[c]}" for v, c in zip(self.perm, self.col))

    @classmethod
    def from_text(cls, text: str) -> "DecoratedPermutation":
        perm, col = [], []
        for token in text.split():
            suffix = token[-1] if token[-1] in ("o", "c") else ""
            digits = token[: len(token) - len(suffix)]
            if not digits.isdigit():
                raise ValueError(f"bad decorated permutation token {token!r}")
            perm.append(int(digits))
            col.append(_COL_OF_SUFFIX[suffix])
        if not perm:
            raise ValueError("empty decorated permutation text")
        dp = cls(tuple(perm), tuple(col))
        if not dp.is_valid():
            raise ValueError(f"invalid decorated permutation {text!r}")
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


def uniform_dp(k: int, n: int) -> DecoratedPermutation:
    """The k-step rotation i -> i+k, the decorated permutation of U_{k,n}.

    At k = 0 every position is a loop and at k = n every position is a
    coloop, which is what makes rank(uniform_dp(k, n)) == k for all k.
    """
    check_ground(n)
    if type(k) is not int or not 0 <= k <= n:
        raise ValueError(f"rank {k!r} out of range 0..{n}")
    perm = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    if k == 0:
        col = (LOOP,) * n
    elif k == n:
        col = (COLOOP,) * n
    else:
        col = (0,) * n
    return DecoratedPermutation(perm, col)


def shift_interval(pi: DecoratedPermutation, sigma: DecoratedPermutation, i: int) -> CyclicInterval:
    """The i-th shift interval (pi^{-1}(i), sigma^{-1}(i)].

    Exceptional case: when i is a loop of sigma and a coloop of pi the
    interval is the full circle.
    """
    if pi.n != sigma.n:
        raise ValueError("ground-set mismatch")
    check_element(i, pi.n)
    if sigma.col[i - 1] == LOOP and pi.col[i - 1] == COLOOP:
        return CyclicInterval.full(pi.n)
    return CyclicInterval.half_open(pi.n, pi.inverse[i - 1], sigma.inverse[i - 1])
