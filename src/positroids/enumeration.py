"""Exhaustive generators at desk scale: decorated permutations, positroids,
lattice path matroids, and elementary flag positroid pairs.

Every generator is deterministic (canonical lexicographic order) and lazy.
The default bounds keep full enumeration instant to a few minutes; callers
may raise them explicitly, which the CLI does only with a loud warning.
``census_records`` turns any of them into plain JSON dicts for the CLI's
``enumerate``; ``CENSUS_KINDS`` is the one table of its kinds, their
default bounds and their lowest ranks.
"""
from __future__ import annotations

import itertools
import operator
from typing import Iterator, Optional

from .cyclic import members_of
from .decorated import COLOOP, LOOP, DecoratedPermutation
from .lpm import Lpm, lpm_bases
from .matroids import Matroid, bases_from_necklace, positroid_of
from .quotients import _gap_is_monotone

DEFAULT_MAX_N = 8
FLAG_PAIR_MAX_N = 7


def _check_bound(n: int, max_n: Optional[int], default: int, what: str) -> None:
    bound = default if max_n is None else max_n
    if not 1 <= n <= bound:
        raise ValueError(f"{what} enumeration supports 1 <= n <= {bound}, got n={n}")


def all_decorated_permutations(
    n: int, max_n: Optional[int] = None, *, rank: Optional[int] = None
) -> Iterator[DecoratedPermutation]:
    """Every decorated permutation of [n] exactly once, in lexicographic
    order of (perm, col); each fixed point carries either decoration.

    With ``rank`` given, only those of that rank, in the same order.  The
    rank is #{i : perm(i) < i} + #coloops, so a permutation with a
    anti-exceedances and f fixed points has decorations of rank a..a+f
    only; the others are skipped before any object is built.
    """
    _check_bound(n, max_n, DEFAULT_MAX_N, "decorated permutation")
    if rank is not None and not 0 <= rank <= n:
        raise ValueError(f"rank {rank} out of range 0..{n}")
    for perm in itertools.permutations(range(1, n + 1)):
        fixed = [i for i in range(n) if perm[i] == i + 1]
        if rank is not None:
            coloops = rank - sum(map(operator.lt, perm, range(1, n + 1)))
            if not 0 <= coloops <= len(fixed):
                continue
        for decorations in itertools.product((COLOOP, LOOP), repeat=len(fixed)):
            if rank is not None and decorations.count(COLOOP) != coloops:
                continue
            col = [0] * n
            for pos, c in zip(fixed, decorations):
                col[pos] = c
            yield DecoratedPermutation(perm, tuple(col))


def all_positroids(k: int, n: int, max_n: Optional[int] = None) -> Iterator[Matroid]:
    """The positroid of every rank-k decorated permutation of [n], each once."""
    _check_bound(n, max_n, DEFAULT_MAX_N, "positroid")
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range 0..{n}")
    for dp in all_decorated_permutations(n, max_n, rank=k):
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


def _colours(dp: DecoratedPermutation) -> int:
    """The loops of dp as bits 0..n-1 and its coloops as bits n..2n-1."""
    n = dp.n
    return sum(1 << j if c == LOOP else 1 << (n + j) for j, c in enumerate(dp.col) if c)


def _unrotation_plans(n: int) -> list[tuple[int, operator.itemgetter]]:
    """(A, unrotate) for every proper subset A of [n], as a mask, the empty
    set included.

    cyclic_shift(pi, A) moves each free value to the next free position on
    the circle, so it is undone by pi(j) = sigma(next free position after j)
    for free j and pi(j) = sigma(j) for frozen j: unrotate maps sigma.perm
    to that pi.perm.
    """
    plans = []
    for a in range((1 << n) - 1):
        free = [j for j in range(n) if not a >> j & 1]
        source = list(range(n))
        for j, nxt in zip(free, free[1:] + free[:1]):
            source[j] = nxt
        plans.append((a, operator.itemgetter(*source)))
    return plans


def elementary_flag_pairs(
    k: int, n: int, max_n: Optional[int] = None
) -> Iterator[tuple[DecoratedPermutation, DecoratedPermutation, frozenset[int]]]:
    """All (sigma, pi, A) with rank(pi) = k, rank(sigma) = k - 1, the
    positroid of sigma an elementary quotient of the positroid of pi, and
    cyclic_shift(pi, A) == sigma.

    By the shift theorem every such pair has sigma = cyclic_shift(pi, A) for
    a proper subset A of [n], and A holds every coloop of sigma, because a
    shift leaves no coloop on a free position.  So the candidates for each
    sigma are the rank-k pi that undo one of those shifts: sigma's
    permutation un-rotated on the free positions, with sigma's colours on
    the frozen ones and either colour on a new fixed point.  Each candidate
    therefore comes with its A, and that A is the one yielded.  It is
    unique: any A with cyclic_shift(pi, A) == sigma freezes exactly the
    positions where sigma and pi agree (see ``exists_shift``), so a pi hit
    by a second A raises RuntimeError.

    A shift from pi to sigma exists exactly when the necklace of sigma lies
    entrywise in that of pi, so every candidate passes necklace containment
    and only conecklace containment is tested.  Containment is necessary
    for a two-step flag positroid but not sufficient (arXiv:2311.05340:
    2 6 1 5 3 4 below the rotation of U_{4,6} passes it), so it only
    filters the candidates.  The packed rank-gap test decides the ones that
    pass: the verdict of ``is_quotient_rank`` without the witness search it
    runs after a rejection, which the sweep would throw away.
    Output is sigma-major, each part in the lexicographic order of
    all_decorated_permutations, the order of the quadratic sweep over every
    pair that ``tests/support.quadratic_flag_pairs`` keeps as the oracle.
    """
    _check_bound(n, max_n, FLAG_PAIR_MAX_N, "flag pair")
    if not 1 <= k <= n:
        raise ValueError(f"rank {k} out of range 1..{n}")
    pis = list(all_decorated_permutations(n, max_n, rank=k))
    # each perm's (position, colours); the key goes through an itemgetter
    # like the plans' keys, which are bare values rather than tuples at n = 1
    same = operator.itemgetter(*range(n))
    index: dict = {}
    for p, pi in enumerate(pis):
        index.setdefault(same(pi.perm), []).append((p, _colours(pi)))
    plans = _unrotation_plans(n)
    for sigma in all_decorated_permutations(n, max_n, rank=k - 1):
        colours = _colours(sigma)
        coloops = colours >> n  # A must hold these
        hits: dict[int, int] = {}  # position of pi -> the A that un-rotates sigma to it
        for a, unrotate in plans:
            if a & coloops != coloops:
                continue
            for p, pi_colours in index.get(unrotate(sigma.perm), ()):
                if (pi_colours ^ colours) & (a | a << n) == 0:
                    if p in hits:
                        raise RuntimeError(
                            f"shift sets {sorted(members_of(hits[p]))} and {sorted(members_of(a))} "
                            f"both un-rotate {sigma.to_text()} to {pis[p].to_text()}"
                        )
                    hits[p] = a
        for p in sorted(hits):
            pi = pis[p]
            if not pi.conecklace.contains_entrywise(sigma.conecklace):
                continue
            if _gap_is_monotone(positroid_of(sigma).rank_table, positroid_of(pi).rank_table, n):
                yield sigma, pi, members_of(hits[p])


# census kind -> (default bound on n, lowest rank, the noun its bound refusal names)
CENSUS_KINDS = {
    "dps": (DEFAULT_MAX_N, 0, "decorated permutation"),
    "positroids": (DEFAULT_MAX_N, 0, "decorated permutation"),
    "lpms": (DEFAULT_MAX_N, 0, "lattice path matroid"),
    "flag-pairs": (FLAG_PAIR_MAX_N, 1, "flag pair"),
}


def census_records(what: str, k: Optional[int], n: int, max_n: Optional[int] = None) -> Iterator[dict]:
    """JSON-lines-ready records, ``{"n", "k", ...}``, one per enumerated object.

    ``k=None`` means every rank, rank-major, from the kind's lowest rank in
    ``CENSUS_KINDS`` (0, or 1 for flag pairs) to n.  Decorated permutations
    always come in one lexicographic pass, restricted to rank k when k is
    given.  The arguments are checked here, before any record is made: an
    unknown kind, a given k outside lowest..n, or an n above the kind's
    bound (``max_n``, else its default) raises ValueError.
    """
    if what not in CENSUS_KINDS:
        raise ValueError(f"unknown census kind {what!r}")
    default, lowest, noun = CENSUS_KINDS[what]
    if k is not None and not lowest <= k <= n:
        raise ValueError(f"rank {k} out of range {lowest}..{n}")
    _check_bound(n, max_n, default, noun)
    return _records(what, k, n, max_n)


def _records(what: str, k: Optional[int], n: int, max_n: Optional[int]) -> Iterator[dict]:
    if what == "dps":
        for dp in all_decorated_permutations(n, max_n, rank=k):
            yield {"n": n, "k": dp.rank, "dp": dp.to_text()}
        return
    if what == "positroids":
        dps = all_decorated_permutations(n, max_n, rank=k)
        if k is None:
            # one pass, grouped by rank; the sort is stable, so each rank
            # keeps the lexicographic order
            dps = sorted(dps, key=lambda dp: dp.rank)
        for dp in dps:
            # no census entry is looked up again, so positroid_of's cache is bypassed
            yield {
                "n": n,
                "k": dp.rank,
                "dp": dp.to_text(),
                "necklace": dp.necklace.to_json()["entries"],
                "basis_count": len(bases_from_necklace(dp.necklace).bases),
            }
        return
    for rank in [k] if k is not None else range(CENSUS_KINDS[what][1], n + 1):
        if what == "lpms":
            for p in all_lpms(rank, n, max_n):
                count = len(lpm_bases(p).bases)
                yield {"n": n, "k": rank, "U": sorted(p.U), "L": sorted(p.L), "basis_count": count}
        else:
            for sigma, pi, shift_set in elementary_flag_pairs(rank, n, max_n):
                yield {"n": n, "k": rank, "pi": pi.to_text(), "sigma": sigma.to_text(), "shift_set": sorted(shift_set)}
