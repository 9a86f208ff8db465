"""Lattice path matroids M[U, L] and their two quotient criteria.

An LPM is cut out of C([n], k) by sandwiching between an upper and a lower
k-subset in the Gale order at 1, which compares sorted tuples componentwise:
B is a basis exactly when u_t <= b_t <= l_t at every position t.  An LPM
is a positroid whose decorated permutation ``Lpm.decorated_permutation``
reads off (U, L) in O(n); the containment criterion and the CLI take it,
not bases.  Only the basis list needs bases: each bound is a rank cap on an
arc (fewer than t members before u_t, at most k - t after l_t), so
``lpm_bases`` applies them as ANDs with bitsets of the positroid cap table,
the kernel ``bases_from_necklace`` uses.  The pairing criterion compares U
and L directly, the containment criterion the permutations' masks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import le
from typing import Iterable

from .cyclic import CACHE_SIZE, check_element, check_ground, check_members, check_same_ground, distinct_members
from .decorated import COLOOP, LOOP, DecoratedPermutation
from .matroids import Matroid, _cap_rows, _surviving
from .quotients import QuotientVerdict


@dataclass(frozen=True)
class Lpm:
    """The pair (U, L) of k-subsets with U <=_1 L defining M[U, L]."""

    n: int
    U: frozenset[int]
    L: frozenset[int]

    def __init__(self, n: int, U: Iterable[int], L: Iterable[int]):
        check_ground(n)
        upper = distinct_members(list(U), "U")
        lower = distinct_members(list(L), "L")
        for x in upper | lower:
            check_element(x, n)
        if len(upper) != len(lower):
            raise ValueError(f"|U|={len(upper)} and |L|={len(lower)} must agree")
        check_members((upper, lower), n)  # a non-int equal to an int (2.0, True) hides in the union
        if not all(map(le, sorted(upper), sorted(lower))):
            raise ValueError(f"U={sorted(upper)} is not below L={sorted(lower)} in the Gale order at 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "U", upper)
        object.__setattr__(self, "L", lower)

    @property
    def k(self) -> int:
        return len(self.U)

    def to_json(self) -> dict:
        return {"n": self.n, "U": sorted(self.U), "L": sorted(self.L)}

    @classmethod
    def from_json(cls, obj: dict) -> "Lpm":
        return cls(obj["n"], distinct_members(obj["U"], "U"), distinct_members(obj["L"], "L"))

    @cached_property
    def decorated_permutation(self) -> DecoratedPermutation:
        """M[U, L], the transversal matroid of the intervals [u_t, l_t]
        (Bonin-de Mier-Noy): the t-th member of L -> that of U, a coloop if
        equal, and the t-th non-member of L -> that of U, a loop if equal."""
        perm, col = [0] * self.n, [0] * self.n
        ground = frozenset(range(1, self.n + 1))
        for sources, images, fixed in ((self.L, self.U, COLOOP), (ground - self.L, ground - self.U, LOOP)):
            for i, v in zip(sorted(sources), sorted(images)):
                perm[i - 1], col[i - 1] = v, fixed if i == v else 0
        return DecoratedPermutation._of(tuple(perm), tuple(col))


@lru_cache(maxsize=CACHE_SIZE)
def lpm_bases(p: Lpm) -> Matroid:
    """All k-subsets B with U <=_1 B <=_1 L; nonempty since U qualifies.

    u_t <= b_t says that fewer than t members of B come before u_t, the
    cap on the arc [1, u_t - 1] from the cap table's row 0; b_t <= l_t
    says that at most k - t come after l_t, the cap on [l_t + 1, n] from
    row l_t.  A cap no smaller than its arc is skipped.  The survivors
    decode in canonical order and become the matroid unchecked.
    """
    n, k = p.n, p.k
    subset_masks, row_of = _cap_rows(n, k)
    prefix = row_of(0)
    alive = (1 << len(subset_masks)) - 1
    for t, (u, l) in enumerate(zip(sorted(p.U), sorted(p.L)), start=1):
        if t < u:
            alive &= ~prefix[u - 1][t - 1]
        if k - t < n - l:
            alive &= ~row_of(l)[n - l][k - t]
    return Matroid._of_masks(n, _surviving(subset_masks, alive))


def lpm_quotient_greedy(sub: Lpm, sup: Lpm) -> QuotientVerdict:
    """Pairing criterion for M[U', L'] being a quotient of M[U, L].

    Requires U' inside U and L' inside L; then the s-th smallest elements of
    U - U' and L - L', at 1-based positions i_s in sorted U and j_s in
    sorted L, must satisfy j_s <= i_s and u_{i_s} - l_{j_s} <= i_s - j_s.
    Both difference sequences are increasing, so the pairing is forced, and
    as every Lpm has |U| = |L| they are equally long.
    """
    check_same_ground(sub, sup)
    if not sub.U <= sup.U:
        return QuotientVerdict(False, {"type": "containment", "which": "U"})
    if not sub.L <= sup.L:
        return QuotientVerdict(False, {"type": "containment", "which": "L"})
    u_sorted = sorted(sup.U)
    l_sorted = sorted(sup.L)
    u_diff = sorted(sup.U - sub.U)
    l_diff = sorted(sup.L - sub.L)
    for s, (u, l) in enumerate(zip(u_diff, l_diff), start=1):
        i_s = u_sorted.index(u) + 1
        j_s = l_sorted.index(l) + 1
        if j_s > i_s or u - l > i_s - j_s:
            return QuotientVerdict(
                False,
                {"type": "pairing", "s": s, "u": u, "l": l, "i": i_s, "j": j_s},
            )
    return QuotientVerdict(True)


def lpm_quotient_containment(sub: Lpm, sup: Lpm) -> QuotientVerdict:
    """Necklace plus conecklace containment of the LPMs' decorated permutations.

    For lattice path matroids this is equivalent to the quotient relation
    (and to the pairing criterion); either containment alone is not enough.
    """
    check_same_ground(sub, sup)
    a, b = sub.decorated_permutation, sup.decorated_permutation
    for kind, x, y in (("necklace", a.necklace, b.necklace), ("conecklace", a.conecklace, b.conecklace)):
        for i, (s, t) in enumerate(zip(x.masks, y.masks), start=1):
            if s & ~t:
                return QuotientVerdict(False, {"type": f"{kind}-entry", "i": i})
    return QuotientVerdict(True)
