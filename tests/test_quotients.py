import itertools

import pytest
from hypothesis import given, settings, strategies as st

import support
from positroids import (
    DecoratedPermutation,
    Matroid,
    containment_check,
    cw_function,
    elementary_flag_pairs,
    exists_shift,
    is_quotient_circuits,
    is_quotient_of_uniform,
    is_quotient_rank,
    lpm_bases,
    oh_xiang_condition,
    positroid_of,
    recover_shift_set,
    uniform_dp,
    uniform_elementary_check,
    uniform_matroid,
)
from positroids.cyclic import members_of
from positroids.lpm import Lpm

DP_P = DecoratedPermutation.from_text("1o 5 4 6 2 3")
DP_Q = DecoratedPermutation.from_text("6 2o 3o 4o 5o 1")
DP_CEX = DecoratedPermutation.from_text("2 6 1 5 3 4")


class TestRankOracle:
    def test_counterexample_verdict_and_witness(self):
        verdict = is_quotient_rank(positroid_of(DP_CEX), uniform_matroid(4, 6))
        assert not verdict
        assert verdict.witness == {
            "type": "rank",
            "A": [1, 2, 4, 5],
            "B": [1, 2, 3, 4, 5, 6],
            "lhs": 1,
            "rhs": 0,
        }

    def test_reflexive(self):
        m = positroid_of(DP_P)
        assert is_quotient_rank(m, m)

    def test_worked_true_case(self):
        assert is_quotient_rank(positroid_of(DP_P), uniform_matroid(4, 6))

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            is_quotient_rank(uniform_matroid(1, 3), uniform_matroid(1, 4))


class TestCircuitOracle:
    def test_matches_rank_oracle_on_worked_cases(self):
        cases = [
            (positroid_of(DP_CEX), uniform_matroid(4, 6)),
            (positroid_of(DP_P), positroid_of(DP_P)),
            (positroid_of(DP_P), uniform_matroid(4, 6)),
        ]
        for m, n in cases:
            assert is_quotient_circuits(m, n).is_quotient == is_quotient_rank(m, n).is_quotient

    def test_free_matroid_is_quotient_of_anything(self):
        free = Matroid(4, [{1, 2, 3, 4}])
        for k in range(5):
            assert is_quotient_circuits(uniform_matroid(k, 4), free)

    def test_uniform_chain(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                assert is_quotient_circuits(uniform_matroid(k - 1, n), uniform_matroid(k, n))

    def test_circuit_witness(self):
        verdict = is_quotient_circuits(Matroid(3, [{1, 2, 3}]), uniform_matroid(2, 3))
        assert not verdict
        assert verdict.witness["type"] == "circuit"


class TestOracleAgreementSmall:
    def test_all_matroid_pairs_tiny(self, matroid_census):
        # every labeled matroid pair, not only positroids; the rank kernel
        # also matches the nested-pairs scan in verdict and witness
        for n in range(1, 5):
            census = matroid_census(n)
            for m in census:
                for other in census:
                    verdict = is_quotient_rank(m, other)
                    assert verdict.is_quotient == is_quotient_circuits(m, other).is_quotient
                    expected = support.nested_pairs_quotient(m, other)
                    if expected is None:
                        assert verdict.is_quotient and verdict.witness is None
                    else:
                        assert not verdict
                        assert (verdict.witness["A"], verdict.witness["B"]) == expected


class TestUniformCriterion:
    def test_worked_true(self):
        assert is_quotient_of_uniform(DP_P, 4)

    def test_worked_false_with_witness(self):
        verdict = is_quotient_of_uniform(DP_Q, 4)
        assert not verdict
        assert verdict.witness["starts"] == [2, 3, 4, 5]
        assert verdict.witness["union"] == [2, 3, 4, 5]

    def test_self_quotient(self):
        for n in range(2, 7):
            for k in range(1, n):
                assert is_quotient_of_uniform(uniform_dp(k, n), k)

    def test_coloop_refuses(self):
        dp = DecoratedPermutation((1, 3, 2), (-1, 0, 0))
        verdict = is_quotient_of_uniform(dp, 2)
        assert not verdict
        assert verdict.witness == {"type": "coloop", "coloops": [1]}

    def test_rank_too_big(self):
        with pytest.raises(ValueError):
            is_quotient_of_uniform(DP_P, 1)

    def test_k_must_be_proper(self):
        with pytest.raises(ValueError):
            is_quotient_of_uniform(DP_P, 6)

    def test_equivalence_small(self, dps):
        for n in range(1, 6):
            for dp in dps(n):
                m = positroid_of(dp)
                for k in range(dp.rank, n):
                    fast = is_quotient_of_uniform(dp, k).is_quotient
                    slow = is_quotient_rank(m, uniform_matroid(k, n)).is_quotient
                    assert fast == slow

    def test_cw_formulation_matches_small(self, dps):
        # alternative reading: cw(A) <= r for every k-subset A
        for n in range(1, 6):
            for dp in dps(n):
                if dp.coloops:
                    continue
                for k in range(dp.rank, n):
                    r = k - dp.rank
                    by_cw = all(
                        cw_function(dp, combo) <= r
                        for combo in itertools.combinations(range(1, n + 1), k)
                    )
                    assert by_cw == is_quotient_of_uniform(dp, k).is_quotient

    def test_rank_constancy_of_quotients(self, dps):
        # when the verdict is true, every k-subset has rank k - r
        for dp in dps(4):
            m = positroid_of(dp)
            for k in range(dp.rank, 4):
                if is_quotient_of_uniform(dp, k):
                    for combo in itertools.combinations(range(1, 5), k):
                        assert m.rank_of(combo) == dp.rank


class TestExistsShift:
    PI = DecoratedPermutation.from_text("4 5 6 1 2 3")
    SIGMA = DecoratedPermutation.from_text("2 4 6 1 5o 3")

    def test_worked_pair(self):
        assert exists_shift(self.PI, self.SIGMA) == {3, 4, 6}

    def test_containment_failure_means_absent(self):
        # sigma with necklace entry 1 not inside pi's cannot be a shift
        sigma = DecoratedPermutation.from_text("1o 2o 4 3")
        pi = uniform_dp(2, 4)
        assert sigma.rank == pi.rank - 1
        assert not pi.necklace.contains_entrywise(sigma.necklace)
        assert exists_shift(pi, sigma) is None

    def test_rank_gap_enforced(self):
        with pytest.raises(ValueError):
            exists_shift(self.PI, self.PI)

    def test_equivalence_with_containment(self, gap_sweep):
        for n in range(1, 6):
            assert gap_sweep(n).exists_mismatches == []


class TestRecoverShiftSet:
    def test_uniform_worked_example(self):
        pi = uniform_dp(4, 8)
        sigma = pi.cyclic_shift({1, 3, 5, 8})
        recovered = recover_shift_set(pi, sigma)
        assert pi.cyclic_shift(recovered) == sigma
        assert recovered >= {1, 3, 5, 8}

    def test_verified_mode_rejects_non_quotients(self):
        # a shift pair that is not a quotient pair: recovery works unverified,
        # the verified mode refuses
        pi = DecoratedPermutation.from_text("4 5 6 1 2 3")
        sigma = DecoratedPermutation.from_text("2 4 6 1 5o 3")
        assert recover_shift_set(pi, sigma) == {3, 4, 6}
        with pytest.raises(ValueError):
            recover_shift_set(pi, sigma, verify_quotient=True)

    def test_rank_gap_enforced(self):
        pi = uniform_dp(4, 8)
        with pytest.raises(ValueError):
            recover_shift_set(pi, pi)

    def test_unverified_shift_pair_gets_its_shift_set(self):
        # related by the empty shift but not a quotient pair; the conecklace
        # formula names a set that does not replay
        pi = DecoratedPermutation.from_text("1c 3 2")
        sigma = DecoratedPermutation.from_text("2 1 3o")
        assert recover_shift_set(pi, sigma) == frozenset()
        assert pi.cyclic_shift(support.conecklace_shift_set(pi, sigma)) != sigma
        with pytest.raises(ValueError, match="^not an elementary quotient pair"):
            recover_shift_set(pi, sigma, verify_quotient=True)

    def test_no_shift_is_refused(self):
        sigma = DecoratedPermutation.from_text("1o 2o 4 3")
        pi = uniform_dp(2, 4)
        with pytest.raises(ValueError, match="does not replay"):
            recover_shift_set(pi, sigma)

    def test_matches_conecklace_formula_on_flag_pairs(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for sigma, pi, _ in elementary_flag_pairs(k, n):
                    assert recover_shift_set(pi, sigma) == support.conecklace_shift_set(pi, sigma)

    def test_replays_on_all_flag_pairs(self, gap_sweep):
        for n in range(1, 6):
            sweep = gap_sweep(n)
            assert sweep.replay_failures == []
            assert sweep.flag_pairs, f"expected elementary flag pairs on [{n}]"


class TestContainmentCheck:
    def test_counterexample_passes_containment(self):
        assert containment_check(DP_CEX, uniform_dp(4, 6)) == (True, True)
        assert support.interval_containment(DP_CEX, uniform_dp(4, 6)) == (True, True)
        assert not is_quotient_rank(positroid_of(DP_CEX), uniform_matroid(4, 6))

    def test_reflexive(self):
        assert containment_check(DP_P, DP_P) == (True, True)

    def test_lpm_pair_fails_conecklace_only(self):
        sub = DecoratedPermutation.from_necklace(
            lpm_bases(Lpm(7, {1, 4}, {5, 7})).grassmann_necklace()
        )
        sup = DecoratedPermutation.from_necklace(
            lpm_bases(Lpm(7, {1, 4, 5}, {4, 6, 7})).grassmann_necklace()
        )
        assert containment_check(sub, sup) == (True, False)
        assert support.interval_containment(sub, sup) == (True, False)

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            containment_check(DP_P, uniform_dp(2, 5))

    def test_necessity_on_flag_pairs(self, gap_sweep):
        for n in range(1, 6):
            assert gap_sweep(n).containment_failures == []

    def test_agrees_with_interval_route_on_gap_pairs(self, gap_sweep):
        for n in range(1, support.CONTAINMENT_ROUTE_MAX_N + 1):
            sweep = gap_sweep(n)
            assert sweep.containment_route_checks == sweep.pairs > 0
            assert sweep.containment_route_mismatches == []

class TestUniformElementary:
    def test_worked_true(self):
        assert uniform_elementary_check({1, 3, 5, 8}, 4, 8) is True

    def test_worked_false(self):
        assert uniform_elementary_check({1, 2, 5, 8}, 4, 8) is False

    def test_empty_set_matches_plain_rotation(self):
        for n in range(2, 7):
            for k in range(1, n):
                sigma = uniform_dp(k, n).cyclic_shift(frozenset())
                oracle = bool(
                    sigma.rank == k - 1
                    and is_quotient_rank(positroid_of(sigma), uniform_matroid(k, n))
                )
                assert uniform_elementary_check(frozenset(), k, n) == oracle

    def test_single_component_bound(self):
        assert uniform_elementary_check({2, 3}, 4, 8) is True
        assert uniform_elementary_check({2, 3, 4, 5}, 4, 8) is False

    def test_full_set_rejected(self):
        with pytest.raises(ValueError):
            uniform_elementary_check({1, 2, 3}, 2, 3)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            uniform_elementary_check({1}, 5, 5)


class TestCcwCovering:
    def test_disproof_instance(self):
        assert oh_xiang_condition(DP_CEX, uniform_dp(4, 6)) is True
        assert not is_quotient_rank(positroid_of(DP_CEX), uniform_matroid(4, 6))

    def test_reflexive(self):
        assert oh_xiang_condition(DP_CEX, DP_CEX) is True

    def test_uniform_pair_cross_check(self):
        # direct set computation: every CCW-arrow of the 2-rotation is a
        # union of CCW-arrows of the 4-rotation on [6]
        from positroids import ccw_arrows

        m_arrows = [a.members() for a in ccw_arrows(uniform_dp(2, 6)).arrows]
        n_arrows = [a.members() for a in ccw_arrows(uniform_dp(4, 6)).arrows]
        expected = all(
            arrow == frozenset().union(*[o for o in n_arrows if o <= arrow] or [frozenset()])
            for arrow in m_arrows
        )
        assert oh_xiang_condition(uniform_dp(2, 6), uniform_dp(4, 6)) == expected

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            oh_xiang_condition(DP_Q, uniform_dp(4, 6))


@settings(max_examples=40, deadline=None)
@given(
    support.decorated_permutations(min_n=7, max_n=7),
    support.decorated_permutations(min_n=7, max_n=7),
)
def test_oracle_agreement_random_positroid_pairs(dp1, dp2):
    m, n = positroid_of(dp1), positroid_of(dp2)
    assert is_quotient_rank(m, n).is_quotient == is_quotient_circuits(m, n).is_quotient


@settings(max_examples=60, deadline=None)
@given(support.rank_gap_pairs(min_n=7, max_n=9))
def test_rank_kernel_matches_nested_pairs_beyond_sweep(pair):
    sigma, pi = pair
    m, n = positroid_of(sigma), positroid_of(pi)
    verdict = is_quotient_rank(m, n)
    expected = support.nested_pairs_quotient(m, n)
    assert verdict.is_quotient == (expected is None)
    if expected is not None:
        assert (verdict.witness["A"], verdict.witness["B"]) == expected


# a rank-gap pair on [n] for n = 7..12, and a flag choosing whether its
# pi or an arbitrary decorated permutation on [n] is the ambient one
GAP_OR_ANY_PAIRS = st.integers(7, 12).flatmap(
    lambda n: st.tuples(st.booleans(), support.rank_gap_pairs(n, n), support.decorated_permutations(n, n))
)


@settings(max_examples=60, deadline=None)
@given(GAP_OR_ANY_PAIRS)
def test_rank_witness_matches_nested_pairs_up_to_12(draw):
    gap_pair, (sigma, pi), other = draw
    m, n = positroid_of(sigma), positroid_of(pi if gap_pair else other)
    verdict = is_quotient_rank(m, n)
    expected = support.nested_pairs_quotient(m, n)
    if expected is None:
        assert verdict.is_quotient and verdict.witness is None
    else:
        a, b = expected
        assert not verdict
        assert verdict.witness == {
            "type": "rank",
            "A": a,
            "B": b,
            "lhs": m.rank_of(b) - m.rank_of(a),
            "rhs": n.rank_of(b) - n.rank_of(a),
        }
