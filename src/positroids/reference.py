"""Bundled known-answer checks: the worked examples that pin down every
convention in the package (necklace and conecklace values, the Grassmann
matrix, cyclic shifts, CW-arrow counts, the quotient verdicts, and the
named counterexamples).  The CLI exposes this as ``verify-paper``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .arrows import cw_arrows, cw_function, rank_cyclic_interval, rank_upper_bound
from .cyclic import CyclicInterval, cyclic_components, gale_leq, gale_min
from .decorated import DecoratedPermutation, shift_interval, uniform_dp
from .lpm import Lpm, lpm_bases, lpm_quotient_containment, lpm_quotient_greedy
from .matroids import Matroid, bases_from_necklace, positroid_of, uniform_matroid
from .quotients import (
    containment_check,
    exists_shift,
    is_quotient_of_uniform,
    is_quotient_rank,
    oh_xiang_condition,
    uniform_elementary_check,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class ReferenceReport:
    results: tuple[CheckResult, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)


_CHECKS: list[tuple[str, object]] = []


def _check(name):
    def deco(fn):
        _CHECKS.append((name, fn))
        return fn

    return deco


def _sets(entries) -> str:
    return "(" + ", ".join("".join(map(str, sorted(e))) for e in entries) + ")"


def _set(e) -> str:
    return "{" + ",".join(map(str, sorted(e))) + "}"


# -- shared fixtures ---------------------------------------------------------

P5_BASES = [{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 4, 5}, {1, 3, 4, 5}]
P5_NECKLACE = [{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 3, 4, 5}, {1, 2, 4, 5}, {1, 2, 3, 5}]
P5_CONECKLACE = [{1, 3, 4, 5}, {1, 3, 4, 5}, {1, 2, 4, 5}, {1, 2, 3, 5}, {1, 2, 3, 4}]

DP_15234 = DecoratedPermutation.from_text("1c 5 2 3 4")
DP_4135627 = DecoratedPermutation.from_text("4 1 3o 5 6 2 7c")
DP_1654237 = DecoratedPermutation.from_text("1o 6 5 4o 2 3 7c")
DP_P = DecoratedPermutation.from_text("1o 5 4 6 2 3")
DP_Q = DecoratedPermutation.from_text("6 2o 3o 4o 5o 1")
DP_261534 = DecoratedPermutation.from_text("2 6 1 5 3 4")

# Rows of the Grassmann matrix of DP_1654237.  The row for a loop is zero,
# the row for the coloop 7 is all ones, and column j is necklace entry j.
MATRIX_1654237 = (
    (0, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 1, 1),
    (1, 1, 1, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 0),
    (0, 0, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1, 1, 1),
)

NECKLACE_261534 = [{1, 3, 4}, {2, 3, 4}, {3, 4, 6}, {4, 6, 1}, {5, 6, 1}, {6, 1, 3}]
CONECKLACE_261534 = [{3, 5, 6}, {5, 6, 1}, {5, 6, 2}, {6, 2, 3}, {2, 3, 4}, {2, 3, 5}]

LPM_SUB = Lpm(7, {1, 4}, {5, 7})
LPM_SUP = Lpm(7, {1, 4, 5}, {4, 6, 7})
NECKLACE_LPM_SUB = [{1, 4}, {2, 4}, {3, 4}, {4, 5}, {5, 6}, {1, 6}, {1, 7}]
NECKLACE_LPM_SUP = [
    {1, 4, 5},
    {2, 4, 5},
    {3, 4, 5},
    {4, 5, 6},
    {1, 5, 6},
    {1, 6, 7},
    {1, 4, 7},
]


# -- Gale orders and cyclic components ---------------------------------------


@_check("gale: 1234 below 1345 at i=1 on [5]")
def _():
    return "True", str(gale_leq(1, {1, 2, 3, 4}, {1, 3, 4, 5}, 5))


@_check("gale: minimum of the rank-4 example bases at i=2")
def _():
    return _set({1, 2, 3, 4}), _set(gale_min(2, P5_BASES, 5))


@_check("interval: members of [9,2] on [9]")
def _():
    return _set({9, 1, 2}), _set(CyclicInterval.arc(9, 9, 2).members())


@_check("components: {1,2,4,6,7,9} on [9] splits as {4}, [6,7], [9,2]")
def _():
    comps = cyclic_components({1, 2, 4, 6, 7, 9}, 9)
    return "[(4,4), (6,7), (9,2)]", "[" + ", ".join(f"({c.start},{c.end})" for c in comps) + "]"


@_check("components: {1,3,5,8} on [8] splits as {3}, {5}, [8,1]")
def _():
    comps = cyclic_components({1, 3, 5, 8}, 8)
    return "[(3,3), (5,5), (8,1)]", "[" + ", ".join(f"({c.start},{c.end})" for c in comps) + "]"


# -- decorated permutations and necklaces ------------------------------------


@_check("decorations: 41(3o)562(7c) is valid with loop 3 and coloop 7")
def _():
    actual = (DP_4135627.is_valid(), sorted(DP_4135627.loops), sorted(DP_4135627.coloops))
    return "(True, [3], [7])", str(actual)


@_check("anti-exceedances of (1c)5234 at i=1")
def _():
    return _set({1, 2, 3, 4}), _set(DP_15234.anti_exceedances(1))


@_check("necklace of (1c)5234")
def _():
    return _sets(P5_NECKLACE), _sets(DP_15234.necklace.entries)


@_check("necklace round trip recovers (1c)5234")
def _():
    return DP_15234.to_text(), DecoratedPermutation.from_necklace(DP_15234.necklace).to_text()


@_check("conecklace of (1c)5234")
def _():
    return _sets(P5_CONECKLACE), _sets(DP_15234.conecklace.entries)


@_check("necklace of 261534")
def _():
    return _sets(NECKLACE_261534), _sets(DP_261534.necklace.entries)


@_check("conecklace of 261534")
def _():
    return _sets(CONECKLACE_261534), _sets(DP_261534.conecklace.entries)


@_check("Grassmann interval S_3 of (1o)65(4o)23(7c) is {1,2,3,7}")
def _():
    return _set({1, 2, 3, 7}), _set(DP_1654237.grassmann_interval(3).members())


@_check("Grassmann interval at the coloop 7 is the full circle")
def _():
    return "full", DP_1654237.grassmann_interval(7).kind


@_check("Grassmann matrix of (1o)65(4o)23(7c)")
def _():
    return str(MATRIX_1654237), str(DP_1654237.grassmann_matrix())


@_check("necklace entry 4 of (1o)65(4o)23(7c) is column 4 of its matrix")
def _():
    # The prose near the worked matrix says {4,5,6}; the printed matrix and
    # the necklace axioms force {5,6,7}, which is what we pin down here.
    column = {i for i in range(1, 8) if MATRIX_1654237[i - 1][3] == 1}
    return _set(column), _set(DP_1654237.anti_exceedances(4))


@_check("rank of (1o)54623 is 2 and rank of 6(2o)(3o)(4o)(5o)1 is 1")
def _():
    return "(2, 1)", str((DP_P.rank, DP_Q.rank))


@_check("shift interval of (456123, 2461(5o)3) at i=2 is {6,1}")
def _():
    pi = DecoratedPermutation.from_text("4 5 6 1 2 3")
    sigma = DecoratedPermutation.from_text("2 4 6 1 5o 3")
    parts = ", ".join(
        (
            _set(pi.grassmann_interval(2).members()),
            _set(sigma.grassmann_interval(2).members()),
            _set(shift_interval(pi, sigma, 2).members()),
        )
    )
    return "{1,2,6}, {2}, {1,6}", parts


@_check("cyclic shift of (1o)65(4o)23(7c) freezing {2,4,7}")
def _():
    return "3 6 1 4o 5o 2 7c", DP_1654237.cyclic_shift({2, 4, 7}).to_text()


@_check("uniform decorated permutation for (k,n)=(4,8)")
def _():
    return "5 6 7 8 1 2 3 4", uniform_dp(4, 8).to_text()


# -- matroid oracle ----------------------------------------------------------


@_check("the rank-4 example family on [5] is a matroid and a positroid")
def _():
    m = Matroid(5, P5_BASES)
    return "(True, True)", str((m.is_valid(), m.is_positroid()))


@_check("necklace and conecklace of the rank-4 example, via Gale minima")
def _():
    m = Matroid(5, P5_BASES)
    return (
        _sets(P5_NECKLACE) + " / " + _sets(P5_CONECKLACE),
        _sets(m.grassmann_necklace().entries) + " / " + _sets(m.grassmann_conecklace().entries),
    )


@_check("necklace closure of the example necklace returns exactly its bases")
def _():
    closure = bases_from_necklace(DP_15234.necklace)
    return _sets(P5_BASES), _sets(closure.bases)


@_check("loops and coloops of the positroid of 41(3o)562(7c)")
def _():
    loops, coloops = positroid_of(DP_4135627).loops_and_coloops()
    return "({3}, {7})", f"({_set(loops)}, {_set(coloops)})"


@_check("rank differences on {1,2,4,5}: 1 for 261534, 0 for U_{4,6}")
def _():
    m = positroid_of(DP_261534)
    u = uniform_matroid(4, 6)
    diffs = (
        m.rank_of(range(1, 7)) - m.rank_of({1, 2, 4, 5}),
        u.rank_of(range(1, 7)) - u.rank_of({1, 2, 4, 5}),
    )
    return "(1, 0)", str(diffs)


# -- arrows ------------------------------------------------------------------


@_check("CW-arrows of (1o)54623")
def _():
    expected = [{1}, {2, 3, 4, 5}, {3, 4}, {4, 5, 6}, {5, 6, 1, 2}, {6, 1, 2, 3}]
    actual = [a.members() for a in cw_arrows(DP_P).arrows]
    return _sets(expected), _sets(actual)


@_check("CW-arrows of 6(2o)(3o)(4o)(5o)1")
def _():
    expected = [{1, 2, 3, 4, 5, 6}, {2}, {3}, {4}, {5}, {6, 1}]
    actual = [a.members() for a in cw_arrows(DP_Q).arrows]
    return _sets(expected), _sets(actual)


@_check("cw counts: cw_P(3456) = 2 and cw_Q(1456) = 3")
def _():
    return "(2, 3)", str((cw_function(DP_P, {3, 4, 5, 6}), cw_function(DP_Q, {1, 4, 5, 6})))


@_check("interval rank from cw: the arc [3,6] of (1o)54623 has rank 2")
def _():
    return "2", str(rank_cyclic_interval(DP_P, CyclicInterval.arc(6, 3, 6)))


@_check("cw bound 1 dominates the oracle rank of {1,4,5,6} in Q")
def _():
    bound = rank_upper_bound(DP_Q, {1, 4, 5, 6})
    oracle = positroid_of(DP_Q).rank_of({1, 4, 5, 6})
    return "(1, True)", str((bound, oracle <= bound))


# -- quotient criteria -------------------------------------------------------


@_check("(1o)54623 is a quotient of U_{4,6}, by arrows and by the oracle")
def _():
    fast = is_quotient_of_uniform(DP_P, 4).is_quotient
    slow = is_quotient_rank(positroid_of(DP_P), uniform_matroid(4, 6)).is_quotient
    return "(True, True)", str((fast, slow))


@_check("6(2o)(3o)(4o)(5o)1 is not a quotient of U_{4,6}; witness arrows 2,3,4,5")
def _():
    verdict = is_quotient_of_uniform(DP_Q, 4)
    slow = is_quotient_rank(positroid_of(DP_Q), uniform_matroid(4, 6)).is_quotient
    return "(False, [2, 3, 4, 5], False)", str(
        (verdict.is_quotient, verdict.witness["starts"], slow)
    )


@_check("freezing {1,3,5,8} in the uniform (4,8) rotation: elementary quotient")
def _():
    sigma = uniform_dp(4, 8).cyclic_shift({1, 3, 5, 8})
    oracle = is_quotient_rank(positroid_of(sigma), uniform_matroid(4, 8)).is_quotient
    checks = (uniform_elementary_check({1, 3, 5, 8}, 4, 8), sigma.rank, oracle)
    return "(True, 3, True)", str(checks)


@_check("freezing {1,2,5,8} in the uniform (4,8) rotation: not a quotient")
def _():
    sigma = uniform_dp(4, 8).cyclic_shift({1, 2, 5, 8})
    oracle = is_quotient_rank(positroid_of(sigma), uniform_matroid(4, 8)).is_quotient
    return "(False, False)", str((uniform_elementary_check({1, 2, 5, 8}, 4, 8), oracle))


@_check("261534 vs U_{4,6}: both containments hold, yet not a quotient")
def _():
    contain = containment_check(DP_261534, uniform_dp(4, 6))
    verdict = is_quotient_rank(positroid_of(DP_261534), uniform_matroid(4, 6))
    return "((True, True), False)", str((contain, verdict.is_quotient))


@_check("261534 vs U_{4,6}: CCW covering holds, yet not a quotient")
def _():
    covering = oh_xiang_condition(DP_261534, uniform_dp(4, 6))
    verdict = is_quotient_rank(positroid_of(DP_261534), uniform_matroid(4, 6))
    return "(True, False)", str((covering, verdict.is_quotient))


@_check("the shift pair (456123, 2461(5o)3) is related by a cyclic shift")
def _():
    pi = DecoratedPermutation.from_text("4 5 6 1 2 3")
    sigma = DecoratedPermutation.from_text("2 4 6 1 5o 3")
    witness = exists_shift(pi, sigma)
    return "{3,4,6}", _set(witness) if witness is not None else "absent"


# -- lattice path matroids ---------------------------------------------------


@_check("necklace of M[14,57] on [7]")
def _():
    neck = lpm_bases(LPM_SUB).grassmann_necklace()
    return _sets(NECKLACE_LPM_SUB), _sets(neck.entries)


@_check("necklace of M[145,467] on [7]")
def _():
    neck = lpm_bases(LPM_SUP).grassmann_necklace()
    return _sets(NECKLACE_LPM_SUP), _sets(neck.entries)


@_check("M[14,57] vs M[145,467]: necklace containment holds, conecklace fails")
def _():
    return "(True, False)", str(containment_check(LPM_SUB.decorated_permutation, LPM_SUP.decorated_permutation))


@_check("conecklace entry 1 of M[14,57] is {5,7}, not inside {4,6,7}")
def _():
    j1 = lpm_bases(LPM_SUB).grassmann_conecklace().entries[0]
    j1_sup = lpm_bases(LPM_SUP).grassmann_conecklace().entries[0]
    return "{5,7}, {4,6,7}, False", f"{_set(j1)}, {_set(j1_sup)}, {j1 <= j1_sup}"


@_check("M[14,57] is not a quotient of M[145,467], all three routes")
def _():
    greedy = lpm_quotient_greedy(LPM_SUB, LPM_SUP).is_quotient
    contain = lpm_quotient_containment(LPM_SUB, LPM_SUP).is_quotient
    brute = is_quotient_rank(lpm_bases(LPM_SUB), lpm_bases(LPM_SUP)).is_quotient
    return "(False, False, False)", str((greedy, contain, brute))


def run_reference_examples() -> ReferenceReport:
    """Execute every bundled known-answer check and report per-check results."""
    start = time.perf_counter()
    results = []
    for name, fn in _CHECKS:
        try:
            expected, actual = fn()
            results.append(CheckResult(name, expected == actual, expected, actual))
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CheckResult(name, False, "no exception", f"{type(exc).__name__}: {exc}"))
    return ReferenceReport(tuple(results), time.perf_counter() - start)
