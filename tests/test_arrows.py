import itertools

import pytest
from hypothesis import given, settings, strategies as st

import support
from positroids import (
    DecoratedPermutation,
    ccw_arrows,
    cw_arrows,
    cw_function,
    positroid_of,
    rank_cyclic_interval,
    rank_upper_bound,
    uniform_dp,
)
from positroids.arrows import _ccw_masks, _cw_masks
from positroids.cyclic import CyclicInterval, full_mask, members_of

DP_P = DecoratedPermutation.from_text("1o 5 4 6 2 3")
DP_Q = DecoratedPermutation.from_text("6 2o 3o 4o 5o 1")
COLOOPS = "cw is undefined in the presence of coloops "


class TestArrowConstruction:
    def test_cw_arrows_of_p(self):
        expected = [{1}, {2, 3, 4, 5}, {3, 4}, {4, 5, 6}, {5, 6, 1, 2}, {6, 1, 2, 3}]
        assert [a.members() for a in cw_arrows(DP_P).arrows] == [frozenset(e) for e in expected]

    def test_cw_arrows_of_q(self):
        expected = [{1, 2, 3, 4, 5, 6}, {2}, {3}, {4}, {5}, {6, 1}]
        assert [a.members() for a in cw_arrows(DP_Q).arrows] == [frozenset(e) for e in expected]

    def test_coloop_arrow_is_full(self):
        dp = DecoratedPermutation((1, 2, 3), (-1, -1, -1))
        assert all(a.kind == "full" for a in cw_arrows(dp).arrows)

    def test_ccw_arrows_of_uniform(self):
        # arrows [perm(i), i] of the 4-step rotation on [6] are 3-intervals
        arrows = ccw_arrows(uniform_dp(4, 6)).arrows
        assert all(len(a) == 3 for a in arrows)
        assert arrows[0].members() == {5, 6, 1}

    def test_loop_ccw_arrow_is_full(self):
        assert ccw_arrows(DP_Q).arrows[1].kind == "full"

    def test_arrow_indexing(self):
        assert cw_arrows(DP_P).arrows[1].members() == {2, 3, 4, 5}

    def test_closed_form_masks_match_the_arrows(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                assert _cw_masks(dp) == tuple(a.mask for a in cw_arrows(dp).arrows), dp
                assert _ccw_masks(dp) == tuple(a.mask for a in ccw_arrows(dp).arrows), dp


class TestCwCcwFunctions:
    def test_worked_counts(self):
        assert cw_function(DP_P, {3, 4, 5, 6}) == 2
        assert cw_function(DP_Q, {1, 4, 5, 6}) == 3

    def test_empty_set(self):
        assert cw_function(DP_P, frozenset()) == 0

    def test_full_set_override(self):
        assert cw_function(DP_P, range(1, 7)) == 6 - 2
        assert support.ccw_function(uniform_dp(4, 6), range(1, 7)) == 4

    def test_coloop_rejected(self):
        dp = DecoratedPermutation((1, 2), (-1, 1))
        with pytest.raises(ValueError):
            cw_function(dp, {1})

    def test_loop_rejected_for_ccw(self):
        with pytest.raises(ValueError):
            support.ccw_function(DP_Q, {1})

    def test_ccw_equals_cw_of_dual(self, dps):
        # multiset of CCW-arrows == multiset of CW-arrows of (perm^{-1}, -col),
        # and the counting functions agree on every subset
        for n in range(1, 7):
            for dp in dps(n):
                if dp.loops:
                    continue
                dual = dp.dual()
                ccw = sorted(a.mask for a in ccw_arrows(dp).arrows)
                cw_dual = sorted(a.mask for a in cw_arrows(dual).arrows)
                assert ccw == cw_dual
                for mask in range(1 << n):
                    members = members_of(mask)
                    assert support.ccw_function(dp, members) == cw_function(dual, members)


class TestRankFormulas:
    def test_worked_interval_rank(self):
        assert rank_cyclic_interval(DP_P, CyclicInterval.arc(6, 3, 6)) == 2

    @pytest.mark.parametrize(
        "rank, dp, argument, message",
        [
            (rank_cyclic_interval, DP_P, CyclicInterval.arc(5, 1, 2), "ground-set mismatch"),
            (rank_cyclic_interval, uniform_dp(6, 6), CyclicInterval.arc(6, 1, 2), COLOOPS + r"\[1, 2, 3, 4, 5, 6\]"),
            (rank_upper_bound, DecoratedPermutation((1, 2), (-1, 1)), {2}, COLOOPS + r"\[1\]"),
        ],
        ids=["interval-ground-mismatch", "interval-coloops", "bound-coloops"],
    )
    def test_refusals(self, rank, dp, argument, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rank(dp, argument)

    @pytest.mark.parametrize(
        "rank, subset, message",
        [
            (cw_function, {9}, r"element 9 out of range 1\.\.2"),
            (rank_upper_bound, {1, 2}, "the bound is stated for proper subsets only"),
        ],
        ids=["cw-out-of-range", "bound-full-set"],
    )
    def test_subset_fault_is_named_before_coloops(self, rank, subset, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rank(DecoratedPermutation((1, 2), (-1, 1)), subset)

    def test_empty_interval(self):
        assert rank_cyclic_interval(DP_P, CyclicInterval.empty(6)) == 0

    def test_full_interval_is_rank(self):
        assert rank_cyclic_interval(DP_P, CyclicInterval.full(6)) == DP_P.rank

    def test_interval_rank_matches_oracle(self, dps):
        for n in range(1, 6):
            for dp in dps(n):
                if dp.coloops:
                    continue
                table = positroid_of(dp).rank_table
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        iv = CyclicInterval.arc(n, a, b)
                        assert rank_cyclic_interval(dp, iv) == table[iv.mask]

    def test_upper_bound_worked_example(self):
        assert rank_upper_bound(DP_Q, {1, 4, 5, 6}) == 1
        assert positroid_of(DP_Q).rank_of({1, 4, 5, 6}) <= 1

    def test_upper_bound_rejects_full_set(self):
        with pytest.raises(ValueError):
            rank_upper_bound(DP_P, range(1, 7))

    def test_upper_bound_empty(self):
        assert rank_upper_bound(DP_P, frozenset()) == 0

    def test_upper_bound_dominates_oracle(self, dps):
        for dp in dps(5):
            if dp.coloops:
                continue
            table = positroid_of(dp).rank_table
            for mask in range((1 << 5) - 1):
                assert table[mask] <= rank_upper_bound(dp, members_of(mask))


class TestCwDropAndTrickleUp:
    def test_drop_lemma_small(self, dps):
        # some x in A has cw(A - x) >= cw(A) - 1, for every nonempty A
        for n in range(1, 6):
            for dp in dps(n):
                if dp.coloops:
                    continue
                for mask in range(1, 1 << n):
                    members = members_of(mask)
                    base = cw_function(dp, members)
                    assert any(
                        cw_function(dp, members - {x}) >= base - 1 for x in members
                    )

    def test_trickle_up_small(self, dps):
        # cw <= r on all k-subsets forces cw(A) <= |A| - k + r above size k
        for n in range(1, 6):
            for dp in dps(n):
                if dp.coloops:
                    continue
                cw = [cw_function(dp, members_of(mask)) for mask in range(1 << n)]
                for k in range(n + 1):
                    r = max(
                        (cw[m] for m in range(1 << n) if bin(m).count("1") == k),
                        default=0,
                    )
                    for m in range(1 << n):
                        size = bin(m).count("1")
                        if size >= k:
                            assert cw[m] <= size - k + r


class TestPartitionIdentity:
    def test_empty_set(self):
        dp = DecoratedPermutation.from_text("2 6 1 5 3 4")
        assert support.verify_ccw_rank_partition(dp, frozenset())

    def test_worked_example(self):
        dp = DecoratedPermutation.from_text("2 6 1 5 3 4")
        assert support.verify_ccw_rank_partition(dp, {1, 2, 4, 5})

    def test_uniform_all_small_subsets(self):
        dp = uniform_dp(4, 6)
        for mask in range(1 << 6):
            if bin(mask).count("1") <= 4:
                assert support.verify_ccw_rank_partition(dp, members_of(mask))

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            support.verify_ccw_rank_partition(DP_Q, {1})

    def test_exhaustive_tiny(self, dps):
        for n in range(1, 5):
            for dp in dps(n):
                if dp.loops:
                    continue
                for mask in range(1 << n):
                    assert support.verify_ccw_rank_partition(dp, members_of(mask))


@settings(max_examples=60, deadline=None)
@given(support.decorated_permutations(min_n=7, max_n=7), st.integers(0, (1 << 7) - 2))
def test_upper_bound_random(dp, mask):
    if dp.coloops:
        return
    members = members_of(mask)
    assert positroid_of(dp).rank_of(members) <= rank_upper_bound(dp, members)
