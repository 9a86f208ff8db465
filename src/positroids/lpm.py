"""Lattice path matroids M[U, L] and their two quotient criteria.

An LPM is cut out of C([n], k) by sandwiching between an upper and a lower
k-subset in the Gale order at 1, which compares sorted tuples componentwise:
B is a basis exactly when u_t <= b_t <= l_t at every position t.  Necklaces
and conecklaces of LPMs are the generic matroid ones (Gale minima and maxima
over the explicit bases, ``cyclic.gale_extrema``), so the fast pairing
criterion is checked against independently produced data.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import le
from typing import Iterable

from .cyclic import CACHE_SIZE, check_element, check_ground, distinct_members, gale_leq
from .matroids import Matroid
from .quotients import QuotientVerdict


@dataclass(frozen=True)
class Lpm:
    """The pair (U, L) of k-subsets with U <=_1 L defining M[U, L]."""

    n: int
    U: frozenset[int]
    L: frozenset[int]

    def __init__(self, n: int, U: Iterable[int], L: Iterable[int]):
        check_ground(n)
        upper = frozenset(U)
        lower = frozenset(L)
        for x in upper | lower:
            check_element(x, n)
        if len(upper) != len(lower):
            raise ValueError(f"|U|={len(upper)} and |L|={len(lower)} must agree")
        if upper and not gale_leq(1, upper, lower, n):
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


@lru_cache(maxsize=CACHE_SIZE)
def lpm_bases(p: Lpm) -> Matroid:
    """All k-subsets B with U <=_1 B <=_1 L; nonempty since U qualifies.

    Combinations come out sorted, so the Gale conditions are the positional
    bounds u_t <= b_t <= l_t on the sorted U and L.
    """
    upper, lower = sorted(p.U), sorted(p.L)
    found = [
        combo
        for combo in itertools.combinations(range(1, p.n + 1), p.k)
        if all(map(le, upper, combo)) and all(map(le, combo, lower))
    ]
    return Matroid(p.n, found)


def lpm_quotient_greedy(sub: Lpm, sup: Lpm) -> QuotientVerdict:
    """Pairing criterion for M[U', L'] being a quotient of M[U, L].

    Requires U' inside U and L' inside L; then the s-th smallest elements of
    U - U' and L - L', at 1-based positions i_s in sorted U and j_s in
    sorted L, must satisfy j_s <= i_s and u_{i_s} - l_{j_s} <= i_s - j_s.
    Both difference sequences are increasing, so the pairing is forced.
    """
    if sub.n != sup.n:
        raise ValueError("ground-set mismatch")
    if not sub.U <= sup.U:
        return QuotientVerdict(False, {"type": "containment", "which": "U"})
    if not sub.L <= sup.L:
        return QuotientVerdict(False, {"type": "containment", "which": "L"})
    u_sorted = sorted(sup.U)
    l_sorted = sorted(sup.L)
    u_diff = sorted(sup.U - sub.U)
    l_diff = sorted(sup.L - sub.L)
    if len(u_diff) != len(l_diff):
        return QuotientVerdict(False, {"type": "containment", "which": "sizes"})
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
    """Necklace plus conecklace containment of the induced positroids.

    For lattice path matroids this is equivalent to the quotient relation
    (and to the pairing criterion); either containment alone is not enough.
    """
    if sub.n != sup.n:
        raise ValueError("ground-set mismatch")
    m_sub = lpm_bases(sub)
    m_sup = lpm_bases(sup)
    for kind, entries in (("necklace", Matroid.grassmann_necklace), ("conecklace", Matroid.grassmann_conecklace)):
        for i, (a, b) in enumerate(zip(entries(m_sub).masks, entries(m_sup).masks), start=1):
            if a & ~b:
                return QuotientVerdict(False, {"type": f"{kind}-entry", "i": i})
    return QuotientVerdict(True)
