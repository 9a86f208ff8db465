"""Acceptance suite: the eight exit criteria, one test and one printed
pass/fail line each.  All comparisons are exact; the sweeps enumerate, they
never sample.  Expect a few minutes of total runtime."""
import itertools
import time

import numpy as np
import pytest

import support
from positroids import (
    DecoratedPermutation,
    all_lpms,
    cw_function,
    elementary_flag_pairs,
    is_quotient_circuits,
    is_quotient_of_uniform,
    is_quotient_rank,
    lpm_bases,
    lpm_quotient_containment,
    lpm_quotient_greedy,
    positroid_of,
    rank_cyclic_interval,
    rank_upper_bound,
    run_reference_examples,
    uniform_dp,
    uniform_elementary_check,
    uniform_matroid,
)
from positroids.arrows import ccw_arrows, cw_arrows
from positroids.cyclic import CyclicInterval, full_mask, members_of


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_worked_examples():
    report = run_reference_examples()
    bad = [f"{r.name} (expected {r.expected}, got {r.actual})" for r in report.failures]
    _report(
        "criterion 1, worked-example suite",
        report.ok,
        f"{len(report.results)} checks, {report.elapsed:.3f}s" + ("; " + "; ".join(bad) if bad else ""),
    )


def test_criterion_2_uniform_quotient_equivalence(dps):
    checked = 0
    cw_checked = 0
    mismatches = []
    for n in range(1, 8):
        for dp in dps(n):
            m = positroid_of(dp)
            coloop_free = not dp.coloops
            for k in range(dp.rank, n):
                fast = is_quotient_of_uniform(dp, k).is_quotient
                slow = is_quotient_rank(m, uniform_matroid(k, n)).is_quotient
                checked += 1
                if fast != slow:
                    mismatches.append((dp.to_text(), k, fast, slow))
                if coloop_free:
                    # second reading of the same criterion: cw <= k - rank on
                    # every k-subset
                    r = k - dp.rank
                    by_cw = all(
                        cw_function(dp, combo) <= r
                        for combo in itertools.combinations(range(1, n + 1), k)
                    )
                    cw_checked += 1
                    if by_cw != fast:
                        mismatches.append((dp.to_text(), k, "cw-form", by_cw, fast))
    _report(
        "criterion 2, uniform-quotient equivalence n<=7",
        not mismatches,
        f"{checked} (dp, k) pairs against the rank oracle, "
        f"{cw_checked} cw-formulation cross-checks; discrepancies: {mismatches[:3]}",
    )


def test_criterion_3_shift_theorem(gap_sweep):
    pairs = flags = 0
    problems = []
    for n in range(1, 7):
        sweep = gap_sweep(n)
        pairs += sweep.pairs
        flags += len(sweep.flag_pairs)
        for label, bucket in (
            ("exists/containment", sweep.exists_mismatches),
            ("replay", sweep.replay_failures),
            ("containment necessity", sweep.containment_failures),
        ):
            problems.extend((n, label, sigma.to_text(), pi.to_text()) for sigma, pi in bucket)
        # the library sweep decides its shift candidates by the rank gap
        # alone; it must reproduce the oracle sweep triple for triple, in order
        generated = [t for k in range(1, n + 1) for t in elementary_flag_pairs(k, n)]
        if generated != sweep.flag_pairs:
            problems.append((n, "elementary_flag_pairs", len(generated), len(sweep.flag_pairs)))
    _report(
        "criterion 3, shift theorem n<=6",
        not problems,
        f"{pairs} rank-gap-1 pairs, {flags} elementary flag pairs, all recoveries replay, "
        f"containment holds on every flag pair, elementary_flag_pairs agrees; "
        f"discrepancies: {problems[:3]}",
    )


def test_criterion_4_elementary_uniform_sweep():
    checked = 0
    skipped = 0
    mismatches = []
    for n in range(2, 9):
        for k in range(1, n):
            pi = uniform_dp(k, n)
            for mask in range((1 << n) - 1):
                members = members_of(mask)
                sigma = pi.cyclic_shift(members)
                if sigma.rank != k - 1:
                    skipped += 1
                    continue
                fast = uniform_elementary_check(members, k, n)
                slow = is_quotient_rank(positroid_of(sigma), uniform_matroid(k, n)).is_quotient
                checked += 1
                if fast != slow:
                    mismatches.append((n, k, sorted(members), fast, slow))
    _report(
        "criterion 4, elementary quotients of uniform n<=8",
        not mismatches,
        f"{checked} shift sets checked, {skipped} skipped (rank drop != 1); "
        f"discrepancies: {mismatches[:3]}",
    )


def test_criterion_5_lpm_triple_agreement():
    checked = 0
    mismatches = []
    for n in range(1, 8):
        lpms = [p for k in range(n + 1) for p in all_lpms(k, n)]
        for p in lpms:
            m = lpm_bases(p)
            m.grassmann_necklace()
            m.grassmann_conecklace()
            m.rank_table
        for sub in lpms:
            m_sub = lpm_bases(sub)
            for sup in lpms:
                greedy = lpm_quotient_greedy(sub, sup).is_quotient
                contain = lpm_quotient_containment(sub, sup).is_quotient
                brute = is_quotient_rank(m_sub, lpm_bases(sup)).is_quotient
                checked += 1
                if not greedy == contain == brute:
                    mismatches.append((sub.to_json(), sup.to_json(), greedy, contain, brute))
    _report(
        "criterion 5, lattice path matroid triple agreement n<=7",
        not mismatches,
        f"{checked} ordered pairs; discrepancies: {mismatches[:3]}",
    )


def test_criterion_6_bijection_and_matrix_laws(dps):
    problems = []
    round_trips = 0
    for n in range(1, 7):
        for dp in dps(n):
            if DecoratedPermutation.from_necklace(dp.necklace) != dp:
                problems.append(("round-trip", dp.to_text()))
            round_trips += 1
    columns = 0
    for n in range(1, 8):
        for dp in dps(n):
            rows = dp.grassmann_matrix()
            entries = dp.necklace.entries
            if len(rows) != n or any(len(row) != n for row in rows):
                problems.append(("matrix-shape", dp.to_text()))
            for j, column in enumerate(zip(*rows), start=1):
                col = frozenset(i for i, bit in enumerate(column, start=1) if bit)
                if col != entries[j - 1] or sum(column) != dp.rank:
                    problems.append(("matrix-column", dp.to_text(), j))
            columns += n
    conecklaces = 0
    for n in range(1, 7):
        for dp in dps(n):
            m = positroid_of(dp)
            if m.grassmann_necklace() != dp.necklace:
                problems.append(("necklace-oracle", dp.to_text()))
            if dp.conecklace.entries != m.grassmann_conecklace().entries:
                problems.append(("conecklace", dp.to_text()))
            conecklaces += 1
    _report(
        "criterion 6, bijection and matrix laws",
        not problems,
        f"{round_trips} round trips (n<=6), {columns} matrix columns (n<=7), "
        f"{conecklaces} conecklace oracle comparisons (n<=6); failures: {problems[:3]}",
    )


def test_criterion_7_rank_machinery(dps, matroid_census):
    problems = []

    # submodularity and the duality identity over every labeled matroid
    sub_checked = dual_checked = 0
    for n in range(1, 7):
        size = 1 << n
        grid_a, grid_b = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        inter = grid_a & grid_b
        union = grid_a | grid_b
        popcounts = np.array([bin(s).count("1") for s in range(size)])
        for m in matroid_census(n):
            rt = np.frombuffer(m.rank_table, dtype=np.uint8)
            if not (rt[grid_a] + rt[grid_b] >= rt[inter] + rt[union]).all():
                problems.append(("submodularity", n, m.to_json()))
            sub_checked += 1
            dual_rt = np.frombuffer(m.dual().rank_table, dtype=np.uint8)
            expected = rt[np.arange(size)[::-1]] + popcounts - m.rank
            if not (dual_rt == expected).all():
                problems.append(("duality", n, m.to_json()))
            dual_checked += 1

    # interval rank formula against the oracle, coloop-free, n <= 7
    interval_checked = 0
    for n in range(1, 8):
        for dp in dps(n):
            if dp.coloops:
                continue
            table = positroid_of(dp).rank_table
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    iv = CyclicInterval.arc(n, a, b)
                    if rank_cyclic_interval(dp, iv) != table[iv.mask]:
                        problems.append(("interval-rank", dp.to_text(), (a, b)))
                    interval_checked += 1
            if rank_cyclic_interval(dp, CyclicInterval.full(n)) != table[full_mask(n)]:
                problems.append(("interval-rank-full", dp.to_text()))

    # cw upper bound, drop lemma, trickle-up, coloop-free, n <= 6
    cw_checked = 0
    for n in range(1, 7):
        for dp in dps(n):
            if dp.coloops:
                continue
            table = positroid_of(dp).rank_table
            cw = [cw_function(dp, members_of(mask)) for mask in range(1 << n)]
            for mask in range((1 << n) - 1):
                size = bin(mask).count("1")
                if table[mask] > size - cw[mask]:
                    problems.append(("upper-bound", dp.to_text(), mask))
                if mask and not any(
                    cw[mask & ~(1 << (x - 1))] >= cw[mask] - 1 for x in members_of(mask)
                ):
                    problems.append(("cw-drop", dp.to_text(), mask))
            full = full_mask(n)
            if not any(cw[full & ~(1 << x)] >= cw[full] - 1 for x in range(n)):
                problems.append(("cw-drop", dp.to_text(), full))
            for k in range(n + 1):
                r = max((cw[m] for m in range(1 << n) if bin(m).count("1") == k), default=0)
                for mask in range(1 << n):
                    size = bin(mask).count("1")
                    if size >= k and cw[mask] > size - k + r:
                        problems.append(("trickle-up", dp.to_text(), k, mask))
            cw_checked += 1

    # ccw arrows == cw arrows of the dual, and the partition identity
    dual_bridge = partition_checked = 0
    for n in range(1, 7):
        for dp in dps(n):
            if not dp.loops:
                dual = dp.dual()
                if sorted(a.mask for a in ccw_arrows(dp).arrows) != sorted(
                    a.mask for a in cw_arrows(dual).arrows
                ):
                    problems.append(("ccw-dual", dp.to_text()))
                dual_bridge += 1
                for mask in range(1 << n):
                    if not support.verify_ccw_rank_partition(dp, members_of(mask)):
                        problems.append(("partition", dp.to_text(), mask))
                    partition_checked += 1

    _report(
        "criterion 7, rank machinery",
        not problems,
        f"submodularity/duality over {sub_checked} matroids (n<=6), "
        f"{interval_checked} interval ranks (n<=7), cw laws over {cw_checked} "
        f"coloop-free dps (n<=6), {dual_bridge} dual bridges, "
        f"{partition_checked} partition identities; failures: {problems[:3]}",
    )


def test_criterion_8_oracle_agreement(matroid_census):
    problems = []
    pair_count = 0

    # n <= 5: both oracles verbatim on every ordered pair, and the vectorized
    # evaluators must match the real functions pair for pair
    for n in range(1, 6):
        census = matroid_census(n)
        rank_verdicts = np.zeros((len(census), len(census)), dtype=bool)
        circ_verdicts = np.zeros_like(rank_verdicts)
        for i, m in enumerate(census):
            for j, other in enumerate(census):
                rank_verdicts[i, j] = is_quotient_rank(m, other).is_quotient
                circ_verdicts[i, j] = is_quotient_circuits(m, other).is_quotient
                pair_count += 1
        if not (rank_verdicts == circ_verdicts).all():
            bad = np.argwhere(rank_verdicts != circ_verdicts)[0]
            problems.append((n, census[bad[0]].to_json(), census[bad[1]].to_json()))
        fast_rank, fast_circ = _vectorized_verdicts(census, n)
        if not (fast_rank == rank_verdicts).all() or not (fast_circ == circ_verdicts).all():
            problems.append((n, "vectorized evaluators disagree with the oracles"))

    # n = 6: the cross-validated vectorized evaluators over all pairs
    census = matroid_census(6)
    fast_rank, fast_circ = _vectorized_verdicts(census, 6)
    pair_count += len(census) ** 2
    if not (fast_rank == fast_circ).all():
        i, j = np.argwhere(fast_rank != fast_circ)[0]
        verdict_r = is_quotient_rank(census[i], census[j])
        verdict_c = is_quotient_circuits(census[i], census[j])
        problems.append((6, census[i].to_json(), census[j].to_json(), verdict_r, verdict_c))

    _report(
        "criterion 8, quotient-definition agreement n<=6",
        not problems,
        f"{pair_count} ordered matroid pairs ({len(census)} matroids on [6]); "
        f"failures: {problems[:2]}",
    )


def _vectorized_verdicts(census, n):
    """Batched evaluation of both quotient definitions for every ordered pair.

    The rank route uses the single-element form of the rank inequality, which
    is equivalent to the nested-pair form by telescoping along any chain from
    A to B; the circuit route tabulates the union of contained circuits per
    subset.  Both are checked against the verbatim oracles for n <= 5 above.
    """
    size = 1 << n
    rank_tables = np.array(
        [np.frombuffer(m.rank_table, dtype=np.uint8) for m in census], dtype=np.int8
    )
    step_from, step_to = [], []
    for s in range(size):
        for x in range(n):
            if not s >> x & 1:
                step_from.append(s)
                step_to.append(s | (1 << x))
    deltas = rank_tables[:, step_to] - rank_tables[:, step_from]

    union_tables = np.zeros((len(census), size), dtype=np.int64)
    for i, m in enumerate(census):
        circuits = m.circuit_masks
        row = union_tables[i]
        for mask in range(size):
            covered = 0
            for c in circuits:
                if c & ~mask == 0:
                    covered |= c
            row[mask] = covered

    fast_rank = np.zeros((len(census), len(census)), dtype=bool)
    fast_circ = np.zeros_like(fast_rank)
    for j, other in enumerate(census):
        fast_rank[:, j] = (deltas <= deltas[j]).all(axis=1)
        circuits = np.array(other.circuit_masks, dtype=np.int64)
        if len(circuits):
            fast_circ[:, j] = (union_tables[:, circuits] == circuits).all(axis=1)
        else:
            fast_circ[:, j] = True
    return fast_rank, fast_circ
