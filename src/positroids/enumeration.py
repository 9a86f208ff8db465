"""Exhaustive generators at desk scale: decorated permutations (each the
code of one positroid), lattice path matroids, and elementary flag
positroid pairs.

Every generator is deterministic (canonical lexicographic order) and lazy.
The decorated permutations of one rank come from a walk that visits only
prefixes that lead to one, so they cost O(n) per output with no n! scan and
no table: on 2 vCPUs with Python 3.11, rank 0 of [8] takes 0.01 ms, where
the scan took 45 ms.
The default bound ``DEFAULT_MAX_N`` keeps full enumeration instant to a
few minutes; callers may raise it explicitly, which the CLI does only with
a loud warning.  ``census_records`` turns any of them into plain JSON dicts
for the CLI's ``enumerate``; ``CENSUS_KINDS`` is the one table of its kinds,
their lowest ranks and the nouns their refusals name.  The positroid census
counts bases without building a matroid: ``basis_count`` is the number of
basis masks that ``bases_from_necklace`` would store.  Every all-ranks
census but the decorated permutations runs rank by rank and yields as it
goes, so the positroid census holds one object at a time.  The flag-pair
sweep decides each candidate by one AND of flat tables read off rank tables
built straight from necklace masks; it fills no global cache, caches
nothing on the permutations it yields, and its records make each text once.
"""
from __future__ import annotations

import itertools
import operator
from typing import Iterator, Optional

from .cyclic import members_of
from .decorated import COLOOP, LOOP, DecoratedPermutation, necklace_masks
from .lpm import Lpm, lpm_bases
from .matroids import _basis_bits, flat_table, packed_rank_table
from .matroids import positroid_of  # noqa: F401  perfbench/test_bench.py expects the name here

DEFAULT_MAX_N = 8


def _check_args(n: int, max_n: Optional[int], what: str, k: Optional[int] = None, lowest: int = 0) -> None:
    """Refuses n outside 1..bound (``max_n``, else ``DEFAULT_MAX_N``) and a
    given rank k outside lowest..n; either must be an int, and a bool is not."""
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if type(n) is not int or not 1 <= n <= bound:
        raise ValueError(f"{what} enumeration supports 1 <= n <= {bound}, got n={n!r}")
    if k is not None and (type(k) is not int or not lowest <= k <= n):
        raise ValueError(f"rank {k!r} out of range {lowest}..{n}")


def all_decorated_permutations(
    n: int, max_n: Optional[int] = None, *, rank: Optional[int] = None
) -> Iterator[DecoratedPermutation]:
    """Every decorated permutation of [n] exactly once, in lexicographic
    order of (perm, col); each fixed point carries either decoration.

    With ``rank`` given, only those of that rank, in the same order.  The
    rank is #{i : perm(i) < i} + #coloops, so a permutation with a
    anti-exceedances and f fixed points has decorations of rank a..a+f
    only.  A depth-first walk extends perm(1..i) by a value only while some
    completion keeps a <= rank <= a + f, so every prefix it visits leads to
    an output.  That test needs no table: the unused values up to i are
    anti-exceedances wherever they go, and putting every other unused value
    on its own position reaches that least a and the greatest a + f at once.
    So the walk keeps lo = a(1..i) + #{unused values <= i} and
    hi = (a + f)(1..i) + n - i and needs lo <= rank <= hi, two integer
    updates a step; at the leaf lo is a and rank - a of its fixed points,
    taken in ``combinations`` order, are the coloops.
    """
    _check_args(n, max_n, "decorated permutation", rank)
    if rank is None:
        for perm in itertools.permutations(range(1, n + 1)):
            fixed = [i for i in range(n) if perm[i] == i + 1]
            for decorations in itertools.product((COLOOP, LOOP), repeat=len(fixed)):
                col = [0] * n
                for pos, c in zip(fixed, decorations):
                    col[pos] = c
                yield DecoratedPermutation._of(perm, tuple(col))
        return
    perm, fixed = [0] * n, []  # the walk's prefix and its fixed points (0-based)
    uncoloured = (0,) * n

    def extend(i: int, unused: int, lo: int, hi: int) -> Iterator[int]:
        # fills position i + 1 from unused, the values not yet placed as bits 0..n-1
        for v in range(n):
            if unused >> v & 1:
                left = unused ^ 1 << v
                low, high = lo + (left >> i & 1), hi - (v > i)
                if low <= rank <= high:
                    perm[i] = v + 1
                    if v == i:
                        fixed.append(i)
                    if i == n - 1:
                        yield low  # the leaf's a
                    else:
                        yield from extend(i + 1, left, low, high)
                    if v == i:
                        fixed.pop()

    for a in extend(0, (1 << n) - 1, 0, n):
        whole = tuple(perm)
        if not fixed:
            yield DecoratedPermutation._of(whole, uncoloured)
            continue
        for coloops in itertools.combinations(fixed, rank - a):
            col = [0] * n
            for i in fixed:
                col[i] = LOOP
            for i in coloops:
                col[i] = COLOOP
            yield DecoratedPermutation._of(whole, tuple(col))


def all_lpms(k: int, n: int, max_n: Optional[int] = None) -> Iterator[Lpm]:
    """Every lattice path matroid M[U, L] of rank k on [n], each once."""
    _check_args(n, max_n, "lattice path matroid", k)
    subsets = list(itertools.combinations(range(1, n + 1), k))
    for upper in subsets:
        for lower in subsets:
            if all(u <= l for u, l in zip(upper, lower)):
                yield Lpm(n, upper, lower)


def _colours(dp: DecoratedPermutation) -> int:
    """The loops of dp as bits 0..n-1 and its coloops as bits n..2n-1."""
    n = dp.n
    return sum(1 << j if c == LOOP else 1 << (n + j) for j, c in enumerate(dp.col) if c)


def _unrotation_plans(n: int) -> list[tuple[int, frozenset[int], operator.itemgetter]]:
    """(frozen, A, unrotate) for every proper subset A of [n], the empty set
    included, where frozen masks the colours (``_colours``) of A's
    positions.

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
        plans.append((a | a << n, members_of(a), operator.itemgetter(*source)))
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

    Flat containment decides every candidate: a matroid is a quotient of
    another exactly when each of its flats is a flat of the other (Oxley,
    Matroid Theory, Prop. 7.3.6).  Each sigma and pi gets one
    ``flat_table`` of the ``packed_rank_table`` of the ``_basis_bits`` of
    its ``necklace_masks``, with no ``Matroid``, and a candidate is
    kept when sigma's flats AND NOT pi's is 0.  A pi's table is built at its
    first candidate and kept in a dict that dies with the generator.  A
    table serves about 7 (pi on (2, 6)) to 85 (sigma on (3, 7)) candidates;
    ``is_quotient_rank``, which decides one pair, takes one ``subset_max``
    closure of the rank gap instead, since that closure also names a witness.

    No containment filter runs first: necklace containment holds for every
    candidate, and conecklace containment, necessary but not sufficient
    (arXiv:2311.05340), would save one AND on each of the 1,367 of the
    3,297 candidates on (2, 6) it drops, at a conecklace per sigma and pi.

    Output is sigma-major, each part in the lexicographic order of
    all_decorated_permutations, the order of the quadratic sweep over every
    pair that ``tests/support.quadratic_flag_pairs`` keeps as the oracle.
    """
    _check_args(n, max_n, "flag pair", k, 1)
    pis = list(all_decorated_permutations(n, max_n, rank=k))
    # each perm's (position, colours); the key goes through an itemgetter
    # like the plans' keys, which are bare values rather than tuples at n = 1
    same = operator.itemgetter(*range(n))
    index: dict = {}
    for p, pi in enumerate(pis):
        index.setdefault(same(pi.perm), []).append((p, _colours(pi)))
    plans = _unrotation_plans(n)

    def flats(dp: DecoratedPermutation, rank: int) -> int:
        return flat_table(n, packed_rank_table(n, _basis_bits(n, rank, necklace_masks(dp.perm, dp.col))))

    tables: dict[int, int] = {}  # position of pi -> its flat table, built at its first candidate
    for sigma in all_decorated_permutations(n, max_n, rank=k - 1):
        perm = sigma.perm
        colours = _colours(sigma)
        coloops = colours >> n << n  # A must hold these
        hits: dict[int, frozenset[int]] = {}  # position of pi -> the A that un-rotates sigma to it
        for frozen, shift_set, unrotate in plans:
            if coloops & ~frozen:
                continue
            for p, pi_colours in index.get(unrotate(perm), ()):
                if (pi_colours ^ colours) & frozen == 0:
                    if p in hits:
                        raise RuntimeError(
                            f"shift sets {sorted(hits[p])} and {sorted(shift_set)} "
                            f"both un-rotate {sigma.to_text()} to {pis[p].to_text()}"
                        )
                    hits[p] = shift_set
        if not hits:
            continue
        low = flats(sigma, k - 1)
        for p in sorted(hits):
            if p not in tables:
                tables[p] = flats(pis[p], k)
            if not low & ~tables[p]:
                yield sigma, pis[p], hits[p]


# census kind -> (lowest rank, the noun its bound refusal names)
CENSUS_KINDS = {
    "dps": (0, "decorated permutation"),
    "positroids": (0, "decorated permutation"),
    "lpms": (0, "lattice path matroid"),
    "flag-pairs": (1, "flag pair"),
}


def census_records(what: str, k: Optional[int], n: int, max_n: Optional[int] = None) -> Iterator[dict]:
    """JSON-lines-ready records, ``{"n", "k", ...}``, one per enumerated object.

    ``k=None`` means every rank, rank-major, from the kind's lowest rank in
    ``CENSUS_KINDS`` (0, or 1 for flag pairs) to n.  Decorated permutations
    always come in one lexicographic pass, restricted to rank k when k is
    given.  The arguments are checked here, before any record is made: an
    unknown kind, or an n or k that ``_check_args`` refuses with the kind's
    lowest rank, raises ValueError.
    """
    if what not in CENSUS_KINDS:
        raise ValueError(f"unknown census kind {what!r}")
    lowest, noun = CENSUS_KINDS[what]
    _check_args(n, max_n, noun, k, lowest)
    return _records(what, k, n, max_n)


def _records(what: str, k: Optional[int], n: int, max_n: Optional[int]) -> Iterator[dict]:
    if what == "dps":
        for dp in all_decorated_permutations(n, max_n, rank=k):
            yield {"n": n, "k": dp.rank, "dp": dp.to_text()}
        return
    for rank in [k] if k is not None else range(CENSUS_KINDS[what][0], n + 1):
        if what == "positroids":
            for dp in all_decorated_permutations(n, max_n, rank=rank):
                # the bases are counted, not built, and positroid_of's cache is bypassed
                yield {
                    "n": n,
                    "k": rank,
                    "dp": dp.to_text(),
                    "necklace": dp.necklace.to_json()["entries"],
                    "basis_count": len(_basis_bits(n, rank, necklace_masks(dp.perm, dp.col))),
                }
        elif what == "lpms":
            for p in all_lpms(rank, n, max_n):
                count = len(lpm_bases.__wrapped__(p).basis_masks)  # each LPM once: caching would only fill memory
                yield {"n": n, "k": rank, "U": sorted(p.U), "L": sorted(p.L), "basis_count": count}
        else:
            texts: dict = {}  # each pi's text and each A's sorted list, made once: records share the lists
            last = None
            for sigma, pi, shift_set in elementary_flag_pairs(rank, n, max_n):
                if sigma is not last:  # a sigma's pairs come together
                    last, sigma_text = sigma, sigma.to_text()
                if pi not in texts:
                    texts[pi] = pi.to_text()
                if shift_set not in texts:
                    texts[shift_set] = sorted(shift_set)
                yield {"n": n, "k": rank, "pi": texts[pi], "sigma": sigma_text, "shift_set": texts[shift_set]}
