"""CW-arrows and CCW-arrows of a decorated permutation, the CW counting
function, and the rank formulas it supports.

The CW-arrow at position i is the clockwise arc [i, perm(i)] (the full
circle at a coloop, a singleton at a loop); the CCW-arrow is the arc
[perm(i), i] with loop and coloop swapping roles.  The CW count of a set,
with the whole-circle value pinned to n - rank, reads off positroid ranks
of cyclic intervals exactly and upper-bounds the rank everywhere else.
It is undefined with coloops, which ``_cw_count`` refuses for every caller
after the caller's own subset checks.  The CCW count, which only the tests
read, is the oracle ``tests/support.ccw_function``; the CCW covering check
in ``quotients`` reads the arrow masks, which ``_cw_masks``/``_ccw_masks``
compute from (perm, col) in closed form (``cyclic.arc_mask``), with no
arrow objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cyclic import CyclicInterval, arc_mask, check_same_ground, full_mask, mask_of
from .decorated import COLOOP, LOOP, DecoratedPermutation
from .matroids import positroid_of  # noqa: F401  perfbench/test_bench.py expects the name here


@dataclass(frozen=True)
class ArrowSet:
    """The n arrows of a decorated permutation; position i's is arrows[i - 1]."""

    arrows: tuple[CyclicInterval, ...]

    def to_json(self) -> list[dict]:
        return [a.to_json() for a in self.arrows]


def cw_arrows(dp: DecoratedPermutation) -> ArrowSet:
    n = dp.n
    arrows = tuple(
        CyclicInterval.full(n) if dp.col[i - 1] == COLOOP else CyclicInterval.arc(n, i, dp.perm[i - 1])
        for i in range(1, n + 1)
    )
    return ArrowSet(arrows)


def ccw_arrows(dp: DecoratedPermutation) -> ArrowSet:
    n = dp.n
    arrows = tuple(
        CyclicInterval.full(n) if dp.col[i - 1] == LOOP else CyclicInterval.arc(n, dp.perm[i - 1], i)
        for i in range(1, n + 1)
    )
    return ArrowSet(arrows)


def _cw_masks(dp: DecoratedPermutation) -> tuple[int, ...]:
    n, full = dp.n, full_mask(dp.n)
    return tuple(full if c == COLOOP else arc_mask(n, i, v) for i, (v, c) in enumerate(zip(dp.perm, dp.col), 1))


def _ccw_masks(dp: DecoratedPermutation) -> tuple[int, ...]:
    n, full = dp.n, full_mask(dp.n)
    return tuple(full if c == LOOP else arc_mask(n, v, i) for i, (v, c) in enumerate(zip(dp.perm, dp.col), 1))


def _cw_count(dp: DecoratedPermutation, mask: int) -> int:
    if dp.coloops:
        raise ValueError(f"cw is undefined in the presence of coloops {sorted(dp.coloops)}")
    if mask == full_mask(dp.n):
        return dp.n - dp.rank
    return sum(1 for a in _cw_masks(dp) if a & ~mask == 0)


def cw_function(dp: DecoratedPermutation, subset: Iterable[int]) -> int:
    """Number of CW-arrows contained in the subset; n - rank on the full set.

    Only defined for coloop-free permutations (a coloop arrow covers the
    whole circle and the whole-set override would silently disagree).
    """
    return _cw_count(dp, mask_of(subset, dp.n))


def rank_cyclic_interval(dp: DecoratedPermutation, interval: CyclicInterval) -> int:
    """Positroid rank of a cyclic interval, |J| - cw(J), without touching bases."""
    check_same_ground(interval, dp)
    return len(interval) - _cw_count(dp, interval.mask)


def rank_upper_bound(dp: DecoratedPermutation, subset: Iterable[int]) -> int:
    """|A| - cw(A), an upper bound for the positroid rank of any proper subset."""
    mask = mask_of(subset, dp.n)
    if mask == full_mask(dp.n):
        raise ValueError("the bound is stated for proper subsets only")
    return mask.bit_count() - _cw_count(dp, mask)
