import itertools

import pytest
from hypothesis import given, settings

import support
from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    shift_interval,
    uniform_dp,
)
from positroids.cyclic import full_mask, mask_of
from positroids.matroids import positroid_of, uniform_matroid

DP_15234 = DecoratedPermutation.from_text("1c 5 2 3 4")
DP_1654237 = DecoratedPermutation.from_text("1o 6 5 4o 2 3 7c")
NECKLACE_15234 = (
    {1, 2, 3, 4},
    {1, 2, 3, 4},
    {1, 3, 4, 5},
    {1, 2, 4, 5},
    {1, 2, 3, 5},
)


class TestValidation:
    def test_loop_coloop_reading(self):
        dp = DecoratedPermutation.from_text("4 1 3o 5 6 2 7c")
        assert dp.is_valid()
        assert dp.loops == {3}
        assert dp.coloops == {7}

    def test_all_loops_identity(self):
        dp = DecoratedPermutation((1, 2, 3), (1, 1, 1))
        assert dp.is_valid()

    def test_undecorated_fixed_point_invalid(self):
        dp = DecoratedPermutation((1, 2, 3), (0, 1, 1))
        assert not dp.is_valid()

    def test_non_bijection_invalid(self):
        assert not DecoratedPermutation((1, 1), (1, 0)).is_valid()

    def test_decorated_moving_point_invalid(self):
        assert not DecoratedPermutation((2, 1), (1, 0)).is_valid()

    def test_text_round_trip(self):
        assert DP_1654237.to_text() == "1o 6 5 4o 2 3 7c"
        assert DecoratedPermutation.from_text(DP_1654237.to_text()) == DP_1654237

    def test_text_rejects_invalid(self):
        with pytest.raises(ValueError):
            DecoratedPermutation.from_text("1 2 3")
        with pytest.raises(ValueError):
            DecoratedPermutation.from_text("2x 1")

    def test_json_shape(self):
        assert DP_1654237.to_json() == {
            "n": 7,
            "perm": [1, 6, 5, 4, 2, 3, 7],
            "col": [1, 0, 0, 1, 0, 0, -1],
        }


class TestNecklaces:
    def test_anti_exceedances_at_one(self):
        assert DP_15234.anti_exceedances(1) == {1, 2, 3, 4}

    def test_anti_exceedances_all_loops(self):
        dp = DecoratedPermutation((1, 2, 3, 4), (1, 1, 1, 1))
        assert all(dp.anti_exceedances(i) == frozenset() for i in range(1, 5))

    def test_necklace_of_15234(self):
        assert DP_15234.necklace.entries == NECKLACE_15234

    def test_rank_zero_necklace(self):
        dp = DecoratedPermutation((1, 2, 3), (1, 1, 1))
        assert dp.necklace.k == 0
        assert dp.necklace.entries == (frozenset(),) * 3

    def test_necklace_axioms_hold_for_all_dps(self, dps):
        for n in range(1, 6):
            for dp in dps(n):
                assert dp.necklace.satisfies_axioms()

    def test_recurrence_matches_anti_exceedances(self, dps):
        # exhaustive for n <= 7: the recurrence entry by entry, and the O(n) rank
        for n in range(1, 8):
            for dp in dps(n):
                assert dp.necklace.entries == tuple(dp.anti_exceedances(i) for i in range(1, n + 1)), dp
                assert dp.rank == len(dp.anti_exceedances(1)), dp

    def test_from_necklace_round_trip(self):
        neck = DP_15234.necklace
        assert DecoratedPermutation.from_necklace(neck) == DP_15234

    def test_from_necklace_of_uniform(self):
        neck = uniform_dp(2, 4).necklace
        assert DecoratedPermutation.from_necklace(neck) == DecoratedPermutation(
            (3, 4, 1, 2), (0, 0, 0, 0)
        )

    def test_axiom_violation_rejected(self):
        bad = GrassmannNecklace(4, 2, (frozenset({1, 3}), frozenset({2, 4})) * 2)
        assert not bad.satisfies_axioms()
        with pytest.raises(ValueError):
            DecoratedPermutation.from_necklace(bad)

    def test_round_trip_exhaustive_small(self, dps):
        for n in range(1, 5):
            for dp in dps(n):
                assert DecoratedPermutation.from_necklace(dp.necklace) == dp

    @pytest.mark.parametrize("bad", [5, 0, "x", 2.0])
    def test_bad_element_in_last_entry(self, bad):
        # the elements are checked once, over the union of the entries
        entries = (frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({4, bad}))
        with pytest.raises(ValueError, match=rf"^element {bad!r} out of range 1\.\.4$"):
            GrassmannNecklace(4, 2, entries)

    def test_masks_match_checked_masks(self):
        for neck in (DP_15234.necklace, DP_15234.conecklace, DP_1654237.necklace):
            assert neck.masks == tuple(mask_of(e, neck.n) for e in neck.entries)

    def test_necklace_json_round_trip(self):
        neck = DP_15234.necklace
        assert GrassmannNecklace.from_json(neck.to_json()) == neck
        assert neck.to_json()["k"] == 4


class TestConecklace:
    def test_conecklace_of_15234(self):
        assert DP_15234.conecklace.entries == (
            {1, 3, 4, 5},
            {1, 3, 4, 5},
            {1, 2, 4, 5},
            {1, 2, 3, 5},
            {1, 2, 3, 4},
        )

    def test_conecklace_of_261534(self):
        dp = DecoratedPermutation.from_text("2 6 1 5 3 4")
        assert dp.conecklace.entries == (
            {3, 5, 6},
            {5, 6, 1},
            {5, 6, 2},
            {6, 2, 3},
            {2, 3, 4},
            {2, 3, 5},
        )

    def test_all_coloops_conecklace(self):
        dp = DecoratedPermutation((1, 2, 3), (-1, -1, -1))
        assert dp.conecklace.entries == (frozenset({1, 2, 3}),) * 3

    def test_orientation_tag(self):
        assert DP_15234.conecklace.orientation == "conecklace"
        assert DP_15234.necklace.orientation == "necklace"


class TestGrassmannIntervalsAndMatrix:
    def test_interval_example(self):
        assert DP_1654237.grassmann_interval(3).members() == {1, 2, 3, 7}

    def test_loop_interval_empty(self):
        assert DP_1654237.grassmann_interval(1).kind == "empty"

    def test_coloop_interval_full(self):
        assert DP_1654237.grassmann_interval(7).kind == "full"

    def test_matrix_of_all_loops(self):
        dp = DecoratedPermutation((1, 2), (1, 1))
        assert dp.grassmann_matrix() == ((0, 0), (0, 0))

    def test_matrix_columns_are_necklace_entries(self, dps):
        for n in range(1, 6):
            for dp in dps(n):
                rows = dp.grassmann_matrix()
                for j in range(1, n + 1):
                    col = frozenset(i for i in range(1, n + 1) if rows[i - 1][j - 1])
                    assert col == dp.necklace.entries[j - 1]
                assert {sum(col) for col in zip(*rows)} == {dp.rank} or n == 0

    def test_column_sums_of_15234(self):
        assert tuple(sum(col) for col in zip(*DP_15234.grassmann_matrix())) == (4, 4, 4, 4, 4)


class TestRankAndDual:
    def test_rank_examples(self):
        assert DecoratedPermutation.from_text("1o 5 4 6 2 3").rank == 2
        assert DecoratedPermutation.from_text("6 2o 3o 4o 5o 1").rank == 1

    def test_all_coloops_rank(self):
        assert DecoratedPermutation((1, 2, 3, 4), (-1, -1, -1, -1)).rank == 4

    def test_dual_swaps_decorations(self):
        dp = DecoratedPermutation.from_text("4 1 3o 5 6 2 7c")
        assert dp.dual().loops == {7}
        assert dp.dual().coloops == {3}
        assert dp.dual().dual() == dp


class TestUniform:
    def test_uniform_4_8(self):
        assert uniform_dp(4, 8).perm == (5, 6, 7, 8, 1, 2, 3, 4)

    def test_degenerate_decorations(self):
        assert uniform_dp(0, 4).loops == {1, 2, 3, 4}
        assert uniform_dp(4, 4).coloops == {1, 2, 3, 4}

    def test_rank_is_k(self):
        for n in range(1, 9):
            for k in range(n + 1):
                assert uniform_dp(k, n).rank == k

    def test_bases_are_all_k_subsets(self):
        m = positroid_of(uniform_dp(4, 6))
        assert set(m.bases) == set(uniform_matroid(4, 6).bases)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            uniform_dp(5, 4)


class TestCyclicShift:
    def test_worked_example(self):
        shifted = DP_1654237.cyclic_shift({2, 4, 7})
        assert shifted == DecoratedPermutation.from_text("3 6 1 4o 5o 2 7c")

    def test_freeze_everything(self):
        assert DP_1654237.cyclic_shift(range(1, 8)) == DP_1654237

    def test_shift_produces_valid_rank_drop(self):
        shifted = uniform_dp(4, 8).cyclic_shift({1, 3, 5, 8})
        assert shifted.is_valid()
        assert shifted.rank == 3

    def test_empty_freeze_rotates_everything(self):
        # freezing nothing rotates the uniform permutation one step down in rank
        shifted = uniform_dp(3, 6).cyclic_shift(frozenset())
        assert shifted.is_valid()
        assert shifted.rank == 2

    def test_shift_always_valid(self, dps):
        for dp in dps(4):
            for mask in range(1 << 4):
                members = [i + 1 for i in range(4) if mask >> i & 1]
                assert dp.cyclic_shift(members).is_valid()


class TestShiftInterval:
    PI = DecoratedPermutation.from_text("4 5 6 1 2 3")
    SIGMA = DecoratedPermutation.from_text("2 4 6 1 5o 3")

    def test_worked_example(self):
        assert shift_interval(self.PI, self.SIGMA, 2).members() == {6, 1}

    def test_equal_permutations_give_empty(self):
        for i in range(1, 7):
            assert shift_interval(self.PI, self.PI, i).kind == "empty"

    def test_exceptional_coloop_to_loop(self):
        pi = DecoratedPermutation.from_text("1c 5 2 3 4")
        sigma = DecoratedPermutation((1, 5, 2, 3, 4), (1, 0, 0, 0, 0))
        assert shift_interval(pi, sigma, 1).kind == "full"


class TestContainmentLaws:
    """Interval-difference and conecklace-difference identities, swept over
    every ordered pair of decorated permutations at desk scale."""

    def test_difference_laws_exhaustive(self, dps):
        for n in range(1, 7):
            census = dps(n)
            ivs = {dp: dp.grassmann_interval_masks for dp in census}
            conecks = {dp: dp.conecklace.masks for dp in census}
            full = full_mask(n)
            for sigma in census:
                s_iv = ivs[sigma]
                s_j = conecks[sigma]
                for pi in census:
                    p_iv = ivs[pi]
                    # S^sigma_i inside S^pi_i for all i: the shift interval is
                    # exactly the setwise difference
                    if all(a & ~b == 0 for a, b in zip(s_iv, p_iv)):
                        for i in range(1, n + 1):
                            assert (
                                shift_interval(pi, sigma, i).mask
                                == p_iv[i - 1] & ~s_iv[i - 1]
                            )
                    # conecklace containment: the moved positions are exactly
                    # the union of the entrywise conecklace differences
                    p_j = conecks[pi]
                    if all(a & ~b == 0 for a, b in zip(s_j, p_j)):
                        moved = 0
                        for a, b in zip(s_j, p_j):
                            moved |= b & ~a
                        disagree = 0
                        for i in range(n):
                            if (
                                sigma.perm[i] != pi.perm[i]
                                or sigma.col[i] != pi.col[i]
                            ):
                                disagree |= 1 << i
                        assert moved == disagree

    def test_cover_laws_on_gap_pairs(self, gap_sweep):
        # rank-gap-1 pairs: the disjoint shift-interval cover of [n] is
        # equivalent to interval containment, and to the existence of a shift
        for n in range(1, 7):
            sweep = gap_sweep(n)
            assert sweep.cover_mismatches == []
            assert sweep.shift_cover_mismatches == []


@settings(max_examples=150, deadline=None)
@given(support.decorated_permutations())
def test_round_trip_random(dp):
    assert DecoratedPermutation.from_necklace(dp.necklace) == dp
    assert DecoratedPermutation.from_text(dp.to_text()) == dp
    assert DecoratedPermutation.from_json(dp.to_json()) == dp


@settings(max_examples=100, deadline=None)
@given(support.decorated_permutations())
def test_column_law_random(dp):
    assert all(sum(col) == dp.rank for col in zip(*dp.grassmann_matrix()))
