"""Quotient criteria for matroids and positroids.

Two exact oracles (the rank inequality and the circuit-union definition),
the fast CW-arrow criterion for quotients of uniform matroids, cyclic-shift
existence and recovery for elementary quotient pairs, necklace and
conecklace containment checks, and the CCW covering condition.  One
``subset_max`` closure of the packed rank gap gives the rank verdict and
its witness, and a shift set comes from the agreement set of the two
permutations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .arrows import _ccw_masks, _cw_masks
from .cyclic import check_same_ground, cyclic_components, full_mask, mask_of, members_of, sorted_members
from .decorated import DecoratedPermutation
from .matroids import Matroid, byte_table_masks, positroid_of, subset_max


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


def is_quotient_rank(m: Matroid, n: Matroid) -> QuotientVerdict:
    """Whether m is a quotient of n: rk_m(B) - rk_m(A) <= rk_n(B) - rk_n(A)
    for every A inside B, i.e. whether the gap rk_n - rk_m is monotone.

    With the gaps packed, offset by 0x20 per byte so that none is negative,
    the gap is monotone exactly when its ``subset_max`` closure equals it:
    one closure decides the verdict instead of the 3^n nested pairs.  The
    canonical witness is the first violation with B from [n] down and A
    over the submasks of B upward: B is the highest field that the closure
    raised and A the first submask of B with a larger gap.
    """
    check_same_ground(m, n)
    rm = m.rank_table
    rn = n.rank_table
    offset = byte_table_masks(m.n)[0] >> 2
    gap = int.from_bytes(rn, "little") + offset - int.from_bytes(rm, "little")
    above = subset_max(gap, m.n) ^ gap
    if not above:
        return QuotientVerdict(True)
    b = (above.bit_length() - 1) >> 3
    gaps = gap.to_bytes(len(rn), "little")
    a = 0
    while gaps[a] <= gaps[b]:
        if a == b:
            raise RuntimeError("the subset-max closure rose above a gap but no nested pair violates")
        a = (a - b) & b  # the next submask of b
    return QuotientVerdict(
        False,
        {
            "type": "rank",
            "A": sorted_members(a),
            "B": sorted_members(b),
            "lhs": rm[b] - rm[a],
            "rhs": rn[b] - rn[a],
        },
    )


def _first_uncovered(wholes: Iterable[int], pieces: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The first whole mask that is not the union of the piece masks inside
    it, together with that union; None when every whole is such a union."""
    for whole in wholes:
        union = 0
        for piece in pieces:
            if piece & ~whole == 0:
                union |= piece
        if union != whole:
            return whole, union
    return None


def is_quotient_circuits(m: Matroid, n: Matroid) -> QuotientVerdict:
    """Whether every circuit of n is a union of circuits of m.

    Checked as: the union of the m-circuits contained in a given n-circuit
    must reproduce it exactly.
    """
    check_same_ground(m, n)
    uncovered = _first_uncovered(n.circuit_masks, m.circuit_masks)
    if uncovered is None:
        return QuotientVerdict(True)
    circuit, union = uncovered
    return QuotientVerdict(
        False,
        {"type": "circuit", "circuit": sorted_members(circuit), "union": sorted_members(union)},
    )


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
                    "union": sorted_members(union),
                    "union_size": union.bit_count(),
                    "required": k + 1,
                },
            )
    return QuotientVerdict(True)


def exists_shift(pi: DecoratedPermutation, sigma: DecoratedPermutation) -> Optional[frozenset[int]]:
    """A set A with cyclic_shift(pi, A) == sigma, if one exists.

    Requires rank(sigma) == rank(pi) - 1.  Any witness must freeze exactly
    the positions where the two permutations agree (value and colour), so
    that single candidate is replayed and returned on success.  Presence is
    equivalent to entrywise necklace containment; the test suite checks the
    equivalence exhaustively.
    """
    check_same_ground(pi, sigma)
    if sigma.rank != pi.rank - 1:
        raise ValueError(f"rank(sigma)={sigma.rank} must be rank(pi)-1={pi.rank - 1}")
    agree = zip(pi.perm, pi.col, sigma.perm, sigma.col)
    candidate = frozenset(i for i, (v, c, w, d) in enumerate(agree, start=1) if v == w and c == d)
    return candidate if pi.cyclic_shift(candidate) == sigma else None


def recover_shift_set(
    pi: DecoratedPermutation,
    sigma: DecoratedPermutation,
    verify_quotient: bool = False,
) -> frozenset[int]:
    """The shift set of an elementary quotient pair, by ``exists_shift``.

    Pass ``verify_quotient=True`` to have the rank oracle confirm first that
    the positroid of sigma is an elementary quotient of the positroid of pi.
    Without it, any pair related by a cyclic shift gets its shift set,
    quotient or not.  Raises ValueError when no cyclic shift of pi gives sigma.
    """
    found = exists_shift(pi, sigma)
    if verify_quotient:
        verdict = is_quotient_rank(positroid_of(sigma), positroid_of(pi))
        if not verdict:
            raise ValueError(f"not an elementary quotient pair: {verdict.witness}")
    if found is None:
        raise ValueError("recovered shift set does not replay; not an elementary quotient pair")
    return found


def containment_check(sigma: DecoratedPermutation, pi: DecoratedPermutation) -> tuple[bool, bool]:
    """(necklace containment, conecklace containment), entry by entry; the
    first containment test refuses a ground-set mismatch."""
    return (
        pi.necklace.contains_entrywise(sigma.necklace),
        pi.conecklace.contains_entrywise(sigma.conecklace),
    )


def uniform_elementary_check(positions: Iterable[int], k: int, n: int) -> bool:
    """Shift-set criterion for an elementary quotient of U_{k,n}.

    Freezing the set A and shifting uniform_dp(k, n) yields an elementary
    quotient exactly when every union of two distinct cyclic components of A
    has at most k-1 elements, that is, when the two largest do; with fewer
    than two components the bound applies to the one component (and holds
    vacuously for empty A), and the sum of the sizes is that size or 0.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    mask = mask_of(positions, n)
    if mask == full_mask(n):
        raise ValueError("the criterion is stated for proper subsets only")
    sizes = sorted(len(c) for c in cyclic_components(members_of(mask), n))
    return sum(sizes[-2:]) <= k - 1


def oh_xiang_condition(m_dp: DecoratedPermutation, n_dp: DecoratedPermutation) -> bool:
    """The CCW covering condition (the Oh-Xiang criterion): every CCW-arrow
    of m is the union of the CCW-arrows of n contained in it.

    Stated for loop-free and coloop-free permutations on both sides.  The
    condition is necessary-flavoured only; it does not imply the quotient
    relation (see the bundled reference examples for the witnessing pair).
    """
    check_same_ground(m_dp, n_dp)
    for dp, label in ((m_dp, "m"), (n_dp, "n")):
        if dp.loops or dp.coloops:
            raise ValueError(f"{label} must be loop-free and coloop-free")
    return _first_uncovered(_ccw_masks(m_dp), _ccw_masks(n_dp)) is None
