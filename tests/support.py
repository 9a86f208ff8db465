"""Shared test utilities: independent oracles, the labeled-matroid census,
the rank-gap pair sweep, and hypothesis strategies.

Everything here is deliberately naive or structurally different from the
library code it is used to check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from hypothesis import strategies as st

from positroids import (
    DecoratedPermutation,
    all_decorated_permutations,
    bases_from_necklace,
    containment_check,
    exists_shift,
    is_quotient_rank,
    positroid_of,
    recover_shift_set,
    shift_interval,
)
from positroids.arrows import _ccw_count
from positroids.cyclic import check_element, check_ground, cyclic_pos, full_mask, gale_leq, mask_of
from positroids.decorated import LOOP, GrassmannNecklace
from positroids.matroids import Matroid


# -- counting oracle ----------------------------------------------------------

def derangements(n: int) -> int:
    if n == 0:
        return 1
    if n == 1:
        return 0
    d = [1, 0]
    for m in range(2, n + 1):
        d.append((m - 1) * (d[m - 1] + d[m - 2]))
    return d[n]


def dp_count(n: int) -> int:
    """Number of decorated permutations of [n]: choose the fixed points,
    derange the rest, decorate each fixed point two ways."""
    return sum(comb(n, j) * 2**j * derangements(n - j) for j in range(n + 1))


# -- naive set-level oracles ---------------------------------------------------

def subsets_of(elements):
    items = sorted(elements)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def naive_rank(bases, members) -> int:
    s = frozenset(members)
    return max(len(s & b) for b in bases)


def naive_circuits(bases, n):
    """Minimal dependent sets straight from the independence definition."""
    independent = lambda s: any(s <= b for b in map(frozenset, bases))
    circuits = []
    for s in subsets_of(range(1, n + 1)):
        if s and not independent(s) and all(independent(s - {x}) for x in s):
            circuits.append(s)
    return sorted(circuits, key=lambda c: (len(c), sorted(c)))


def rotated_order(i, n):
    return list(range(i, n + 1)) + list(range(1, i))


def naive_cyclic_leq(i, a, b, n) -> bool:
    order = rotated_order(i, n)
    return order.index(a) <= order.index(b)


def naive_gale_leq(i, a, b, n) -> bool:
    order = rotated_order(i, n)
    sa = sorted(a, key=order.index)
    sb = sorted(b, key=order.index)
    return all(order.index(x) <= order.index(y) for x, y in zip(sa, sb))


def nested_pairs_quotient(m: Matroid, n: Matroid):
    """The first (A, B), as sorted lists, with A inside B and
    rk_m(B) - rk_m(A) > rk_n(B) - rk_n(A), or None when m is a quotient of n.

    Every nested pair is visited: B from the full ground set downward, A over
    the submasks of B in increasing order.  This is the order that makes the
    witness of ``is_quotient_rank`` canonical; the kernel itself decides on
    covering pairs only.
    """
    rm, rn = m.rank_table, n.rank_table
    for b in range(full_mask(m.n), -1, -1):
        rmb, rnb = rm[b], rn[b]
        s = b
        while True:
            a = b ^ s
            if rmb - rm[a] > rnb - rn[a]:
                return sorted(mask_members(a)), sorted(mask_members(b))
            if s == 0:
                break
            s = (s - 1) & b
    return None


def exchange_closure_positroid(m: Matroid) -> bool:
    """``Matroid.is_positroid`` with the exchange axiom checked first: a
    matroid whose necklace closure reproduces its basis family exactly."""
    if not m.is_valid():
        return False
    return set(bases_from_necklace(m.grassmann_necklace()).bases) == set(m.bases)


def conecklace_shift_set(pi: DecoratedPermutation, sigma: DecoratedPermutation) -> frozenset[int]:
    """``recover_shift_set`` from the conecklaces: [n] minus the union of the
    entrywise differences J^pi_i - J^sigma_i.  Exact on elementary quotient
    pairs; not replayed, so on other pairs it may name a set that does not
    shift pi to sigma."""
    moved = 0
    for jp, js in zip(pi.conecklace.masks, sigma.conecklace.masks):
        moved |= jp & ~js
    return mask_members(full_mask(pi.n) & ~moved)


def gale_filter_bases(necklace: GrassmannNecklace) -> Matroid:
    """``bases_from_necklace`` by the Gale order itself: every k-subset whose
    <_i-sorted positions dominate those of I_i, componentwise, for every i.
    Raises the same ValueError when nothing passes."""
    n, k = necklace.n, necklace.k
    refs = [
        tuple(sorted(cyclic_pos(i, x, n) for x in necklace.entries[i - 1]))
        for i in range(1, n + 1)
    ]
    found = []
    for combo in itertools.combinations(range(1, n + 1), k):
        ok = True
        for i in range(1, n + 1):
            pos = sorted(cyclic_pos(i, x, n) for x in combo)
            if any(p < r for p, r in zip(pos, refs[i - 1])):
                ok = False
                break
        if ok:
            found.append(frozenset(combo))
    if not found:
        raise ValueError("no subset dominates every necklace entry; invalid necklace")
    return Matroid(n, found)


def sorted_gale_extremum(i, family, n, maximum: bool) -> frozenset[int]:
    """``gale_min``/``gale_max`` by sorted position tuples: the lexicographic
    extremum of the <_i-sorted tuples is the only candidate, and it is
    verified against every member with ``gale_leq``.  Raises the library's
    ValueErrors for an empty family and for a family with no extremum."""
    check_ground(n)
    check_element(i, n)
    fam = [frozenset(s) for s in family]
    word = "maximum" if maximum else "minimum"
    if not fam:
        raise ValueError(f"Gale {word} of an empty family")
    key = lambda s: tuple(sorted(cyclic_pos(i, x, n) for x in s))
    candidate = (max if maximum else min)(fam, key=key)
    for other in fam:
        low, high = (other, candidate) if maximum else (candidate, other)
        if not gale_leq(i, low, high, n):
            raise ValueError(f"family has no Gale {word} under <_{i}; not a matroid basis family")
    return candidate


def max_over_bases_rank_table(m: Matroid) -> list[int]:
    """``Matroid.rank_table`` as rk(S) = max over bases B of |S & B|."""
    table = [0] * (1 << m.n)
    for s in range(1, 1 << m.n):
        table[s] = max((s & b).bit_count() for b in m.basis_masks)
    return table


def backward_scan_shift(dp: DecoratedPermutation, positions) -> DecoratedPermutation:
    """``DecoratedPermutation.cyclic_shift`` with the previous free position
    of each free i found by scanning backwards around the circle, O(n^2)."""
    n = dp.n
    frozen = mask_of(positions, n)
    if frozen == full_mask(n):
        return dp
    perm = list(dp.perm)
    col = list(dp.col)
    for i in range(1, n + 1):
        if frozen >> (i - 1) & 1:
            continue
        j = i
        for d in range(1, n + 1):
            cand = (i - 1 - d) % n + 1
            if not frozen >> (cand - 1) & 1:
                j = cand
                break
        perm[i - 1] = dp.perm[j - 1]
        col[i - 1] = LOOP if perm[i - 1] == i else 0
    return DecoratedPermutation(tuple(perm), tuple(col))


def _partitions_into(items: list[int], blocks: int):
    """Set partitions of items into exactly the given number of nonempty blocks."""
    if blocks == 0:
        if not items:
            yield []
        return
    if len(items) < blocks:
        return
    first, rest = items[0], items[1:]
    # first alone in a new block
    for part in _partitions_into(rest, blocks - 1):
        yield [[first]] + part
    # first joins an existing block
    for part in _partitions_into(rest, blocks):
        for idx in range(len(part)):
            yield part[:idx] + [[first] + part[idx]] + part[idx + 1 :]


def verify_ccw_rank_partition(dp: DecoratedPermutation, subset) -> bool:
    """Search for a partition A = A_1 | ... | A_t with
    rk(A) = sum_j (rk([n]) - ccw([n] \\ A_j)).

    Partitions are tried in increasing number of blocks and the first witness
    wins: a Bell-number search, desk scale only.  A loop-free dp is required
    for the ccw values to make sense.
    """
    if dp.loops:
        raise ValueError(f"ccw is undefined in the presence of loops {sorted(dp.loops)}")
    n = dp.n
    mask = mask_of(subset, n)
    target = positroid_of(dp).rank_table[mask]
    if mask == 0:
        return target == 0
    items = sorted(mask_members(mask))
    full = full_mask(n)
    for blocks in range(1, len(items) + 1):
        for part in _partitions_into(items, blocks):
            total = sum(dp.rank - _ccw_count(dp, full & ~mask_of(block, n)) for block in part)
            if total == target:
                return True
    return False


def interval_containment(sigma: DecoratedPermutation, pi: DecoratedPermutation) -> tuple[bool, bool]:
    """``containment_check`` recomputed through Grassmann intervals:
    S^sigma_i inside S^pi_i for the necklace, and S^sigma_{sigma(i)} inside
    S^pi_{pi(i)} for the conecklace."""
    s_sigma = sigma.grassmann_interval_masks
    s_pi = pi.grassmann_interval_masks
    neck = all(a & ~b == 0 for a, b in zip(s_sigma, s_pi))
    coneck = all(s_sigma[sigma(i) - 1] & ~s_pi[pi(i) - 1] == 0 for i in range(1, pi.n + 1))
    return neck, coneck


def quadratic_flag_pairs(k: int, n: int, max_n=None):
    """``elementary_flag_pairs`` by visiting every rank-(k-1) x rank-k pair:
    the containment filter, then the rank verdict, then the replayed shift
    set, sigma-major in lexicographic order."""
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


# -- labeled matroid census ------------------------------------------------------

def _matroid_family_masks(n: int, k: int) -> list[tuple[int, ...]]:
    """Basis families of all rank-k matroids on [n], filtered by the exchange
    axiom over every candidate subfamily of C([n], k)."""
    subsets = [sum(1 << (x - 1) for x in combo) for combo in itertools.combinations(range(1, n + 1), k)]
    m = len(subsets)
    if m == 0:
        return [()]
    index_of = {mask: i for i, mask in enumerate(subsets)}
    # req[s][t]: one index-bitmap per element x of S_s \ S_t listing the
    # members that can serve as (S_s - x) + y with y in S_t \ S_s
    req: list[list[tuple[int, ...]]] = [[()] * m for _ in range(m)]
    for s in range(m):
        for t in range(m):
            if s == t:
                continue
            entries = []
            d = subsets[s] & ~subsets[t]
            fresh_all = subsets[t] & ~subsets[s]
            while d:
                x = d & -d
                d ^= x
                bitmap = 0
                f = fresh_all
                while f:
                    y = f & -f
                    f ^= y
                    idx = index_of.get((subsets[s] ^ x) | y)
                    if idx is not None:
                        bitmap |= 1 << idx
                entries.append(bitmap)
            req[s][t] = tuple(entries)
    found = []
    for fam in range(1, 1 << m):
        bits = []
        f = fam
        while f:
            low = f & -f
            f ^= low
            bits.append(low.bit_length() - 1)
        ok = True
        for s in bits:
            rs = req[s]
            for t in bits:
                if s == t:
                    continue
                for r in rs[t]:
                    if not fam & r:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(subsets[i] for i in bits))
    return found


def mask_members(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length())
        mask ^= low
    return frozenset(out)


def all_matroids(n: int) -> list[Matroid]:
    """Every labeled matroid on [n], all ranks, as Matroid objects."""
    out = []
    for k in range(n + 1):
        for fam in _matroid_family_masks(n, k):
            out.append(Matroid(n, (mask_members(b) for b in fam)))
    return out


# -- the rank-gap-1 pair sweep ---------------------------------------------------

# Largest n at which every rank-gap pair also runs both containment routes.
CONTAINMENT_ROUTE_MAX_N = 5


@dataclass
class GapSweep:
    n: int
    pairs: int = 0
    flag_pairs: list = field(default_factory=list)
    exists_mismatches: list = field(default_factory=list)
    cover_mismatches: list = field(default_factory=list)
    shift_cover_mismatches: list = field(default_factory=list)
    containment_failures: list = field(default_factory=list)
    containment_route_checks: int = 0
    containment_route_mismatches: list = field(default_factory=list)
    replay_failures: list = field(default_factory=list)


def _disjoint_cover(pi: DecoratedPermutation, sigma: DecoratedPermutation) -> bool:
    n = pi.n
    union = 0
    total = 0
    for i in range(1, n + 1):
        iv = shift_interval(pi, sigma, i)
        union |= iv.mask
        total += len(iv)
    return total == n and union == full_mask(n)


def run_gap_sweep(n: int, dps: list[DecoratedPermutation]) -> GapSweep:
    """Visit every ordered pair (sigma, pi) of decorated permutations on [n]
    with rank(sigma) = rank(pi) - 1 and record, without any shortcuts:

    * whether the positroids form an elementary flag pair (the nested-pairs
      rank oracle, nested_pairs_quotient),
    * whether exists_shift agrees with entrywise necklace containment,
    * whether the disjoint shift-interval cover agrees with containment and
      with the existence of a shift,
    * for n <= CONTAINMENT_ROUTE_MAX_N: whether containment_check agrees with
      the Grassmann-interval route (interval_containment),
    * for flag pairs: containment_check == (True, True) and the conecklace
      recovery replays to sigma.
    """
    by_rank: dict[int, list[DecoratedPermutation]] = {}
    for dp in dps:
        by_rank.setdefault(dp.rank, []).append(dp)
    neck_masks = {dp: dp.necklace.masks for dp in dps}
    sweep = GapSweep(n)
    for k in range(1, n + 1):
        for sigma in by_rank.get(k - 1, ()):
            m_sigma = positroid_of(sigma)
            s_masks = neck_masks[sigma]
            for pi in by_rank.get(k, ()):
                sweep.pairs += 1
                p_masks = neck_masks[pi]
                contained = all(a & ~b == 0 for a, b in zip(s_masks, p_masks))
                witness = exists_shift(pi, sigma)
                if (witness is not None) != contained:
                    sweep.exists_mismatches.append((sigma, pi))
                cover = _disjoint_cover(pi, sigma)
                if cover != contained:
                    sweep.cover_mismatches.append((sigma, pi))
                if cover != (witness is not None):
                    sweep.shift_cover_mismatches.append((sigma, pi))
                if n <= CONTAINMENT_ROUTE_MAX_N:
                    sweep.containment_route_checks += 1
                    if containment_check(sigma, pi) != interval_containment(sigma, pi):
                        sweep.containment_route_mismatches.append((sigma, pi))
                if nested_pairs_quotient(m_sigma, positroid_of(pi)) is None:
                    if containment_check(sigma, pi) != (True, True):
                        sweep.containment_failures.append((sigma, pi))
                    recovered = recover_shift_set(pi, sigma)
                    if pi.cyclic_shift(recovered) != sigma:
                        sweep.replay_failures.append((sigma, pi))
                    sweep.flag_pairs.append((sigma, pi, recovered))
    return sweep


# -- hypothesis strategies ---------------------------------------------------------

@st.composite
def decorated_permutations(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    perm = tuple(draw(st.permutations(list(range(1, n + 1)))))
    col = tuple(
        draw(st.sampled_from((-1, 1))) if v == i else 0 for i, v in enumerate(perm, start=1)
    )
    return DecoratedPermutation(perm, col)


def rank_dropping_shifts(pi: DecoratedPermutation) -> list[DecoratedPermutation]:
    """pi.cyclic_shift(A) for every A inside [n] whose shift has rank
    rank(pi) - 1, by increasing mask of A."""
    shifts = (pi.cyclic_shift(mask_members(mask)) for mask in range(1 << pi.n))
    return [sigma for sigma in shifts if sigma.rank == pi.rank - 1]


@st.composite
def rank_gap_pairs(draw, min_n=1, max_n=8):
    """(sigma, pi) on the same [n] with rank(sigma) = rank(pi) - 1.

    Half of the draws try up to five independent (sigma, pi) until the ranks
    fit; the others, and any draw that runs out of tries, take sigma among
    the rank-dropping cyclic shifts of pi, so that quotient pairs occur.
    """
    n = draw(st.integers(min_n, max_n))
    independent = draw(st.booleans())
    for _ in range(5 if independent else 1):
        pi = draw(decorated_permutations(n, n).filter(lambda dp: dp.rank > 0))
        if independent:
            sigma = draw(decorated_permutations(n, n))
            if sigma.rank == pi.rank - 1:
                return sigma, pi
    return draw(st.sampled_from(rank_dropping_shifts(pi))), pi


@st.composite
def equicardinal_families(draw, max_n=9):
    """A Matroid object over an equal-size family that need not satisfy the
    exchange axiom: half of the draws pick up to twelve arbitrary k-subsets,
    the others take a positroid and toggle one k-subset in or out of it."""
    n = draw(st.integers(1, max_n))
    k_subset = lambda k: st.frozensets(st.integers(1, n), min_size=k, max_size=k)
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        family = draw(st.sets(k_subset(k), min_size=1, max_size=12))
    else:
        dp = draw(decorated_permutations(n, n))
        family = set(positroid_of(dp).bases) ^ {draw(k_subset(dp.rank))}
        if not family:
            family = set(positroid_of(dp).bases)
    return Matroid(n, family)


@st.composite
def subset_sequences(draw, max_n=8):
    """A GrassmannNecklace of n arbitrary k-subsets of [n]; the necklace
    axioms hold only by chance."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    entry = st.sets(st.integers(1, n), min_size=k, max_size=k)
    return GrassmannNecklace(n, k, tuple(draw(entry) for _ in range(n)))


@st.composite
def subsets(draw, n, proper=False, nonempty=False):
    members = draw(st.sets(st.integers(1, n), max_size=n - 1 if proper else n))
    if nonempty and not members:
        members = {draw(st.integers(1, n))}
    return frozenset(members)
