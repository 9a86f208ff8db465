"""Quotient criteria for matroids and positroids.

Two exact oracles (the rank inequality, checked on covering pairs, and the
circuit-union definition), the fast CW-arrow criterion for quotients of
uniform matroids, cyclic-shift recovery for elementary quotient pairs,
necklace and conecklace containment checks, and the CCW covering condition.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .arrows import _ccw_masks, _cw_masks
from .cyclic import cyclic_components, full_mask, mask_of, members_of
from .decorated import DecoratedPermutation
from .matroids import Matroid, byte_table_masks, positroid_of


@dataclass(frozen=True)
class QuotientVerdict:
    """Boolean verdict plus, when available, a machine-readable witness.

    Witnesses are JSON-shaped dicts: the first violating (A, B) pair for the
    rank oracle, the first uncovered circuit for the circuit oracle, the
    first small arrow union for the uniform criterion, and so on.
    """

    is_quotient: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.is_quotient

    def to_json(self) -> dict:
        return {"is_quotient": self.is_quotient, "witness": self.witness}


def _check_same_ground(m: Matroid, n: Matroid) -> None:
    if m.n != n.n:
        raise ValueError(f"ground-set mismatch: {m.n} vs {n.n}")


def _gap_is_monotone(rm: bytes, rn: bytes, n: int) -> bool:
    """Whether gap = rn - rm never decreases along a covering pair (S - x, S).

    The tables are packed one byte per subset.  One guarded subtraction
    takes every gap at once: a guard bit is cleared exactly where the gap
    is negative, which already refutes monotonicity since gap(empty set)
    is 0.  Then, for each x, one subtraction compares every field S
    containing x with field S - x: the guard bit above field S survives
    exactly when gap(S - x) <= gap(S), and no borrow crosses a field.
    """
    guards, _, covers = byte_table_masks(n)
    gap = (int.from_bytes(rn, "little") | guards) - int.from_bytes(rm, "little")
    if gap & guards != guards:
        return False
    for shift, values, g in covers:
        if (((gap & values) | g) - ((gap << shift) & values)) & g != g:
            return False
    return True


def is_quotient_rank(m: Matroid, n: Matroid) -> QuotientVerdict:
    """Whether m is a quotient of n: rk_m(B) - rk_m(A) <= rk_n(B) - rk_n(A)
    for every A inside B, i.e. whether the gap rk_n - rk_m is monotone.

    A function on the subsets of [n] is monotone exactly when it is monotone
    on the covering pairs (S - x, S), so the verdict takes n * 2^(n-1)
    comparisons instead of the 3^n nested pairs.  The canonical witness is
    searched for only after that check fails: B runs from the full ground
    set downward and A over submasks in increasing order, so the first
    witness is the whole-ground-set violation whenever one exists.
    """
    _check_same_ground(m, n)
    rm = m.rank_table
    rn = n.rank_table
    if _gap_is_monotone(rm, rn, m.n):
        return QuotientVerdict(True)
    for b in range(full_mask(m.n), -1, -1):
        rmb = rm[b]
        rnb = rn[b]
        s = b
        while True:
            a = b ^ s
            if rmb - rm[a] > rnb - rn[a]:
                return QuotientVerdict(
                    False,
                    {
                        "type": "rank",
                        "A": sorted(members_of(a)),
                        "B": sorted(members_of(b)),
                        "lhs": rmb - rm[a],
                        "rhs": rnb - rn[a],
                    },
                )
            if s == 0:
                break
            s = (s - 1) & b
    raise RuntimeError("the covering-pair check failed but no nested pair violates")


def is_quotient_circuits(m: Matroid, n: Matroid) -> QuotientVerdict:
    """Whether every circuit of n is a union of circuits of m.

    Checked as: the union of the m-circuits contained in a given n-circuit
    must reproduce it exactly.
    """
    _check_same_ground(m, n)
    m_circuits = m.circuit_masks
    for c_set, c in zip(n.circuits, n.circuit_masks):
        covered = 0
        for mc in m_circuits:
            if mc & ~c == 0:
                covered |= mc
        if covered != c:
            return QuotientVerdict(
                False,
                {
                    "type": "circuit",
                    "circuit": sorted(c_set),
                    "union": sorted(members_of(covered)),
                },
            )
    return QuotientVerdict(True)


def is_quotient_of_uniform(dp: DecoratedPermutation, k: int) -> QuotientVerdict:
    """CW-arrow criterion for (positroid of dp, U_{k,n}) being a flag pair.

    With r = k - rank(dp), the positroid is a quotient of U_{k,n} exactly
    when every union of r+1 CW-arrows has at least k+1 elements.  A coloop
    sits in no circuit, so its presence refutes the quotient outright.
    Duplicate arrows at different start positions count separately.
    """
    n = dp.n
    r = k - dp.rank
    if r < 0:
        raise ValueError(f"k={k} is below the rank {dp.rank}")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than n={n}")
    if dp.coloops:
        return QuotientVerdict(False, {"type": "coloop", "coloops": sorted(dp.coloops)})
    masks = _cw_masks(dp)
    for starts in itertools.combinations(range(1, n + 1), r + 1):
        union = 0
        for i in starts:
            union |= masks[i - 1]
        if union.bit_count() <= k:
            return QuotientVerdict(
                False,
                {
                    "type": "arrows",
                    "starts": list(starts),
                    "union": sorted(members_of(union)),
                    "union_size": union.bit_count(),
                    "required": k + 1,
                },
            )
    return QuotientVerdict(True)


def _agreement_set(pi: DecoratedPermutation, sigma: DecoratedPermutation) -> frozenset[int]:
    return frozenset(
        i
        for i in range(1, pi.n + 1)
        if sigma.perm[i - 1] == pi.perm[i - 1] and sigma.col[i - 1] == pi.col[i - 1]
    )


def exists_shift(pi: DecoratedPermutation, sigma: DecoratedPermutation) -> Optional[frozenset[int]]:
    """A set A with cyclic_shift(pi, A) == sigma, if one exists.

    Requires rank(sigma) == rank(pi) - 1.  Any witness must freeze exactly
    the positions where the two permutations agree (value and colour), so
    that single candidate is replayed and returned on success.  Presence is
    equivalent to entrywise necklace containment; the test suite checks the
    equivalence exhaustively.
    """
    if pi.n != sigma.n:
        raise ValueError("ground-set mismatch")
    if sigma.rank != pi.rank - 1:
        raise ValueError(f"rank(sigma)={sigma.rank} must be rank(pi)-1={pi.rank - 1}")
    candidate = _agreement_set(pi, sigma)
    if pi.cyclic_shift(candidate) == sigma:
        return candidate
    return None


def recover_shift_set(
    pi: DecoratedPermutation,
    sigma: DecoratedPermutation,
    verify_quotient: bool = False,
) -> frozenset[int]:
    """The shift set of an elementary quotient pair, from the conecklaces:
    A = [n] minus the union of the entrywise conecklace differences.

    The caller vouches that the positroid of sigma is an elementary quotient
    of the positroid of pi; pass ``verify_quotient=True`` to have the
    brute-force rank oracle confirm it first.  The recovered set is always
    replayed through ``cyclic_shift`` and a mismatch raises.
    """
    if pi.n != sigma.n:
        raise ValueError("ground-set mismatch")
    if sigma.rank != pi.rank - 1:
        raise ValueError(f"rank(sigma)={sigma.rank} must be rank(pi)-1={pi.rank - 1}")
    if verify_quotient:
        verdict = is_quotient_rank(positroid_of(sigma), positroid_of(pi))
        if not verdict:
            raise ValueError(f"not an elementary quotient pair: {verdict.witness}")
    n = pi.n
    moved = 0
    for jp, js in zip(pi.conecklace.masks, sigma.conecklace.masks):
        moved |= jp & ~js
    recovered = members_of(full_mask(n) & ~moved)
    if pi.cyclic_shift(recovered) != sigma:
        raise ValueError("recovered shift set does not replay; not an elementary quotient pair")
    return recovered


def containment_check(sigma: DecoratedPermutation, pi: DecoratedPermutation) -> tuple[bool, bool]:
    """(necklace containment, conecklace containment), entry by entry."""
    if pi.n != sigma.n:
        raise ValueError("ground-set mismatch")
    return (
        pi.necklace.contains_entrywise(sigma.necklace),
        pi.conecklace.contains_entrywise(sigma.conecklace),
    )


def uniform_elementary_check(positions: Iterable[int], k: int, n: int) -> bool:
    """Shift-set criterion for an elementary quotient of U_{k,n}.

    Freezing the set A and shifting uniform_dp(k, n) yields an elementary
    quotient exactly when every union of two distinct cyclic components of A
    has at most k-1 elements; with fewer than two components the bound
    applies to the single component itself (and holds vacuously for empty A).
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    mask = mask_of(positions, n)
    if mask == full_mask(n):
        raise ValueError("the criterion is stated for proper subsets only")
    sizes = [len(c) for c in cyclic_components(members_of(mask), n)]
    if len(sizes) <= 1:
        return all(s <= k - 1 for s in sizes)
    return all(a + b <= k - 1 for a, b in itertools.combinations(sizes, 2))


def oh_xiang_condition(m_dp: DecoratedPermutation, n_dp: DecoratedPermutation) -> bool:
    """The CCW covering condition (the Oh-Xiang criterion): every CCW-arrow
    of m is the union of the CCW-arrows of n contained in it.

    Stated for loop-free and coloop-free permutations on both sides.  The
    condition is necessary-flavoured only; it does not imply the quotient
    relation (see the bundled reference examples for the witnessing pair).
    """
    if m_dp.n != n_dp.n:
        raise ValueError("ground-set mismatch")
    for dp, label in ((m_dp, "m"), (n_dp, "n")):
        if dp.loops or dp.coloops:
            raise ValueError(f"{label} must be loop-free and coloop-free")
    n_masks = _ccw_masks(n_dp)
    for arrow in _ccw_masks(m_dp):
        covered = 0
        for other in n_masks:
            if other & ~arrow == 0:
                covered |= other
        if covered != arrow:
            return False
    return True
