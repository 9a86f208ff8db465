"""Exhaustive generators at desk scale: decorated permutations, positroids,
lattice path matroids, and elementary flag positroid pairs.

Every generator is deterministic (canonical lexicographic order) and lazy.
The default bounds keep full enumeration instant to a few minutes; callers
may raise them explicitly, which the CLI does only with a loud warning.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .decorated import COLOOP, LOOP, DecoratedPermutation
from .lpm import Lpm, lpm_bases
from .matroids import Matroid, positroid_of
from .quotients import containment_check, is_quotient_rank, recover_shift_set

DEFAULT_MAX_N = 8
FLAG_PAIR_MAX_N = 6


def _check_bound(n: int, max_n: Optional[int], default: int, what: str) -> None:
    bound = default if max_n is None else max_n
    if not 1 <= n <= bound:
        raise ValueError(f"{what} enumeration supports 1 <= n <= {bound}, got n={n}")


def all_decorated_permutations(n: int, max_n: Optional[int] = None) -> Iterator[DecoratedPermutation]:
    """Every decorated permutation of [n] exactly once, in lexicographic
    order of (perm, col); each fixed point carries either decoration."""
    _check_bound(n, max_n, DEFAULT_MAX_N, "decorated permutation")
    for perm in itertools.permutations(range(1, n + 1)):
        fixed = [i for i in range(n) if perm[i] == i + 1]
        for decorations in itertools.product((COLOOP, LOOP), repeat=len(fixed)):
            col = [0] * n
            for pos, c in zip(fixed, decorations):
                col[pos] = c
            yield DecoratedPermutation(perm, tuple(col))


def all_positroids(k: int, n: int, max_n: Optional[int] = None) -> Iterator[Matroid]:
    """The positroid of every rank-k decorated permutation of [n], each once."""
    _check_bound(n, max_n, DEFAULT_MAX_N, "positroid")
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range 0..{n}")
    for dp in all_decorated_permutations(n, max_n):
        if dp.rank == k:
            yield positroid_of(dp)


def all_lpms(k: int, n: int, max_n: Optional[int] = None) -> Iterator[Lpm]:
    """Every lattice path matroid M[U, L] of rank k on [n], each once."""
    _check_bound(n, max_n, DEFAULT_MAX_N, "lattice path matroid")
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range 0..{n}")
    subsets = list(itertools.combinations(range(1, n + 1), k))
    for upper in subsets:
        for lower in subsets:
            if all(u <= l for u, l in zip(upper, lower)):
                yield Lpm(n, upper, lower)


def elementary_flag_pairs(
    k: int, n: int, max_n: Optional[int] = None
) -> Iterator[tuple[DecoratedPermutation, DecoratedPermutation, frozenset[int]]]:
    """All (sigma, pi, A) with rank(pi) = k, rank(sigma) = k - 1, the
    positroid of sigma an elementary quotient of the positroid of pi, and A
    the recovered shift set: cyclic_shift(pi, A) == sigma always holds.

    Necklace and conecklace containment is necessary for a two-step flag
    positroid but not sufficient (arXiv:2311.05340: 2 6 1 5 3 4 below the
    rotation of U_{4,6} passes both), so it only filters the pairs; the
    rank oracle decides the ones that pass.  Output is sigma-major in the
    lexicographic order of all_decorated_permutations.
    """
    _check_bound(n, max_n, FLAG_PAIR_MAX_N, "flag pair")
    if not 1 <= k <= n:
        raise ValueError(f"rank {k} out of range 1..{n}")
    pis, sigmas = [], []
    for dp in all_decorated_permutations(n, max_n):
        if dp.rank == k:
            pis.append(dp)
        elif dp.rank == k - 1:
            sigmas.append(dp)
    for sigma in sigmas:
        for pi in pis:
            if not all(containment_check(sigma, pi)):
                continue
            if is_quotient_rank(positroid_of(sigma), positroid_of(pi)):
                yield sigma, pi, recover_shift_set(pi, sigma)


@dataclass(frozen=True)
class CensusRecord:
    """One census line: identifying data plus optional relation edges."""

    n: int
    k: int
    payload: dict = field(compare=False)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, **self.payload}


# the generator whose bound check a census of each kind runs into first
_CENSUS_BOUNDS = {
    "dps": (DEFAULT_MAX_N, "decorated permutation"),
    "positroids": (DEFAULT_MAX_N, "decorated permutation"),
    "lpms": (DEFAULT_MAX_N, "lattice path matroid"),
    "flag-pairs": (FLAG_PAIR_MAX_N, "flag pair"),
}


def check_census(what: str, k: Optional[int], n: int, max_n: Optional[int] = None) -> None:
    """Raise the ValueError that ``census_records(what, k, n, max_n)`` would
    raise, before any record is made: an unknown kind, a given k outside
    0..n (1..n for flag pairs), or an n above the kind's bound."""
    if what not in _CENSUS_BOUNDS:
        raise ValueError(f"unknown census kind {what!r}")
    lowest = 1 if what == "flag-pairs" else 0
    if k is not None and not lowest <= k <= n:
        raise ValueError(f"rank {k} out of range {lowest}..{n}")
    _check_bound(n, max_n, *_CENSUS_BOUNDS[what])


def census_records(what: str, k: Optional[int], n: int, max_n: Optional[int] = None) -> Iterator[CensusRecord]:
    """JSON-lines-ready records for the CLI; one record per enumerated object.

    ``k=None`` means every rank, rank-major: 0..n for positroids and LPMs,
    1..n for flag pairs.  Decorated permutations always come in one
    lexicographic pass, restricted to rank k when k is given.  Arguments
    that ``check_census`` refuses raise its ValueError.
    """
    check_census(what, k, n, max_n)
    lowest = 1 if what == "flag-pairs" else 0
    if what == "dps":
        for dp in all_decorated_permutations(n, max_n):
            if k is None or dp.rank == k:
                yield CensusRecord(n, dp.rank, {"dp": dp.to_text()})
        return
    if what == "positroids":
        dps = all_decorated_permutations(n, max_n)
        if k is None:
            # one pass, grouped by rank; the sort is stable, so each rank
            # keeps the lexicographic order
            dps = sorted(dps, key=lambda dp: dp.rank)
        for dp in dps:
            if k is not None and dp.rank != k:
                continue
            m = positroid_of(dp)
            yield CensusRecord(
                n,
                dp.rank,
                {
                    "dp": dp.to_text(),
                    "necklace": dp.necklace.to_json()["entries"],
                    "basis_count": len(m.bases),
                },
            )
        return
    for rank in [k] if k is not None else range(lowest, n + 1):
        if what == "lpms":
            for p in all_lpms(rank, n, max_n):
                yield CensusRecord(
                    n, rank, {"U": sorted(p.U), "L": sorted(p.L), "basis_count": len(lpm_bases(p).bases)}
                )
        else:
            for sigma, pi, shift_set in elementary_flag_pairs(rank, n, max_n):
                yield CensusRecord(
                    n,
                    rank,
                    {"pi": pi.to_text(), "sigma": sigma.to_text(), "shift_set": sorted(shift_set)},
                )
