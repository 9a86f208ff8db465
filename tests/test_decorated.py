import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import support
from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    all_decorated_permutations,
    census_records,
    shift_interval,
    uniform_dp,
)
from positroids import decorated, matroids
from positroids.cyclic import bits_of, full_mask, mask_of
from positroids.decorated import necklace_masks
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

    @pytest.mark.parametrize("text, token", [("\u0661o", "\u0661o"), ("\u00b2 1", "\u00b2"), ("2 \uff11", "\uff11")])
    def test_text_refuses_non_ascii_digits(self, text, token):
        with pytest.raises(ValueError, match=f"^bad decorated permutation token {token!r}$"):
            DecoratedPermutation.from_text(text)

    def test_text_accepts_leading_zeros(self):
        assert DecoratedPermutation.from_text("01o 002c") == DecoratedPermutation((1, 2), (1, -1))
        # more zeros than int() converts digits
        zeros = "0" * 5000
        assert DecoratedPermutation.from_text(f"{zeros}1o {zeros}2c") == DecoratedPermutation((1, 2), (1, -1))
        with pytest.raises(ValueError, match="^element 0 out of range 1..1$"):
            DecoratedPermutation.from_text(zeros)

    @pytest.mark.parametrize("token", ["1" * 5000, "9" * 4301 + "o", "1" + "0" * 5000 + "c", "x" * 81])
    def test_text_names_an_over_long_token(self, token):
        # a value too long for int(), like any long bad token, is refused shortened
        shown = f"{token[:8]}...{token[-8:]}"
        with pytest.raises(ValueError) as exc:
            DecoratedPermutation.from_text(f"2 {token} 1")
        assert str(exc.value) == f"bad decorated permutation token {shown!r} of {len(token)} characters"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0" * 5000 + "1", "invalid decorated permutation '00000000...00000001' of 5001 characters"),
            ("1" * 4300, "element 11111111...11111111 of 4300 characters out of range 1..1"),
            # a repr of up to 80 characters is shown whole
            ("1o " * 26, f"invalid decorated permutation {'1o ' * 26!r}"),
            ("1o " * 27, "invalid decorated permutation '1o 1o 1o...o 1o 1o ' of 81 characters"),
        ],
        ids=["long-text", "long-value", "80-character-repr", "81-character-text"],
    )
    def test_text_messages_shorten_long_values(self, text, message):
        with pytest.raises(ValueError) as exc:
            DecoratedPermutation.from_text(text)
        assert str(exc.value) == message

    def test_text_messages_in_order(self):
        # a bad token anywhere comes first, then emptiness, the ground size,
        # the first element out of range, and last bijectivity and decoration
        cases = {
            "0 x": "bad decorated permutation token 'x'",
            "  ": "empty decorated permutation text",
            " ".join(map(str, range(1, 66))): "ground set size must be an integer in 1..64, got 65",
            "2 0 9": "element 0 out of range 1..3",
            "1o 1o": "invalid decorated permutation '1o 1o'",
            "2o 1": "invalid decorated permutation '2o 1'",
            "1 2": "invalid decorated permutation '1 2'",
        }
        for text, message in cases.items():
            with pytest.raises(ValueError) as exc:
                DecoratedPermutation.from_text(text)
            assert str(exc.value) == message
            with pytest.raises(ValueError) as exc:
                support.checked_from_text(text)
            assert str(exc.value) == message

    def test_text_round_trip_exhaustive(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                assert DecoratedPermutation.from_text(dp.to_text()) == dp

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
        # exhaustive for n <= 7: the mask kernel and the necklace built from
        # it entry by entry, and the O(n) rank
        for n in range(1, 8):
            for dp in dps(n):
                expected = tuple(support.anti_exceedances(dp, i) for i in range(1, n + 1))
                assert necklace_masks(dp.perm, dp.col) == tuple(map(bits_of, expected)), dp
                assert dp.necklace.entries == expected, dp
                assert dp.rank == len(expected[0]), dp

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
        for n in range(1, 7):
            for dp in dps(n):
                assert DecoratedPermutation.from_necklace(dp.necklace) == dp

    @pytest.mark.parametrize("bad", [5, 0, "x", 2.0])
    def test_bad_element_in_last_entry(self, bad):
        # the elements are checked entry by entry, after the sizes
        entries = (frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({4, bad}))
        with pytest.raises(ValueError, match=rf"^element {bad!r} out of range 1\.\.4$"):
            GrassmannNecklace(4, 2, entries)

    def test_first_bad_element_met_is_named(self):
        # entry 1 holds 5 and entry 2 holds 4: the entries are read in order
        with pytest.raises(ValueError, match=r"^element 5 out of range 1\.\.3$"):
            GrassmannNecklace(3, 1, ({5}, {4}, {1}))

    @pytest.mark.parametrize(
        "n, k, entries, message",
        [
            (3, 4, [{1}] * 3, "rank 4 out of range for n=3"),
            (3, -1, [{1}] * 3, "rank -1 out of range for n=3"),
            (3, 1, [{1}, {2}], "expected 3 entries, got 2"),
            (2, 1, [{1}, {1, 2}], r"entry \[1, 2\] is not a 1-subset"),
        ],
    )
    def test_shape_refusals(self, n, k, entries, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GrassmannNecklace(n, k, entries)

    def test_repeated_member_is_refused_as_in_json(self):
        entries = [[1, 1], [2, 3], [3, 1]]
        json = {"k": 2, "entries": entries}
        for build in (lambda: GrassmannNecklace(3, 2, entries), lambda: GrassmannNecklace.from_json(json)):
            with pytest.raises(ValueError, match=r"^entry \[1, 1\] repeats an element$"):
                build()

    def test_json_repeat_is_checked_after_the_rank(self):
        # from_json hands the lists on, so the constructor's order decides
        for k, message in ((True, "k True is not an integer"), (3, "rank 3 out of range for n=2")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                GrassmannNecklace.from_json({"k": k, "entries": [[1, 1], [2, 1]]})

    @pytest.mark.parametrize("k", [True, 1.0])
    def test_non_int_rank_refused(self, k):
        with pytest.raises(ValueError, match=rf"^k {k!r} is not an integer$"):
            GrassmannNecklace(1, k, [{1}])

    def test_masks_match_checked_masks(self):
        for neck in (DP_15234.necklace, DP_15234.conecklace, DP_1654237.necklace):
            assert neck.masks == tuple(mask_of(e, neck.n) for e in neck.entries)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(support.subset_sequences(), support.decorated_permutations().map(lambda dp: dp.necklace)))
    def test_mask_routes_match_set_oracles(self, necklace):
        # the axiom check names the same violation, and from_necklace gives
        # the same permutation or raises the same error, as on sets
        assert necklace._axiom_violation() == support.set_axiom_violation(necklace)
        outcomes = []
        for route in (DecoratedPermutation.from_necklace, support.set_from_necklace):
            try:
                outcomes.append(route(necklace))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

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

    def test_matches_set_oracle_up_to_seven(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                assert dp.conecklace.entries == support.set_conecklace(dp), dp


def _assert_same_as_checked(neck):
    # the decoded entries through the checked constructor
    checked = GrassmannNecklace(neck.n, neck.k, neck.entries)
    assert neck == checked and hash(neck) == hash(checked), neck


class TestTrustedPath:
    """The producers' unchecked route gives the same necklace as the
    checked constructor, and never decodes, checks or re-encodes."""

    def test_masks_are_the_stored_form(self):
        assert [f.name for f in dataclasses.fields(GrassmannNecklace)] == ["n", "k", "masks"]
        neck = DecoratedPermutation.from_text("1c 5 2 3 4").necklace
        assert "entries" not in vars(neck)
        assert neck.entries[2] == {1, 3, 4, 5} and "entries" in vars(neck)

    def test_producers_exhaustive(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                _assert_same_as_checked(dp.necklace)
                _assert_same_as_checked(dp.conecklace)
                if n <= 6:
                    _assert_same_as_checked(positroid_of(dp).grassmann_necklace())
                    _assert_same_as_checked(positroid_of(dp).grassmann_conecklace())

    def test_producers_neither_check_nor_convert(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a producer checked, decoded or encoded its masks")

        for module, name in ((decorated, "check_members"), (decorated, "bits_of"), (decorated, "members_of")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(matroids, "members_of", refuse)
        for dp in all_decorated_permutations(5):  # fresh objects, so every route builds
            m = positroid_of.__wrapped__(dp)
            for neck in (dp.necklace, dp.conecklace, m.grassmann_necklace(), m.grassmann_conecklace()):
                assert len(neck.masks) == 5

    def test_lpm_census_counts_masks(self, monkeypatch):
        def refuse(m):
            raise AssertionError("the LPM census decoded a basis list")

        # a data descriptor: it wins over bases a cached matroid already decoded
        monkeypatch.setattr(matroids.Matroid, "bases", property(refuse))
        for record in census_records("lpms", None, 6):
            n, k, upper, lower = record["n"], record["k"], record["U"], record["L"]
            brute = sum(
                support.naive_gale_leq(1, upper, b, n) and support.naive_gale_leq(1, b, lower, n)
                for b in itertools.combinations(range(1, n + 1), k)
            )
            assert record["basis_count"] == brute, record


def _assert_dp_as_checked(dp):
    checked = DecoratedPermutation(dp.perm, dp.col)
    assert checked.is_valid(), dp
    assert dp == checked and hash(dp) == hash(checked), dp
    assert type(dp.perm) is tuple and type(dp.col) is tuple, dp


class TestTrustedPermutationPath:
    """The producers' unchecked route gives the same decorated permutation
    as the checked constructor, and runs none of its checks."""

    @staticmethod
    def _produce(dps, n):
        yield from dps
        for p, dp in enumerate(dps):
            yield dp.dual()
            yield DecoratedPermutation.from_necklace(dp.necklace)
            yield dp.cyclic_shift(support.mask_members(p % (1 << n)))
        yield from (uniform_dp(k, n) for k in range(n + 1))

    def test_fields_are_perm_and_col(self):
        assert [f.name for f in dataclasses.fields(DecoratedPermutation)] == ["perm", "col"]

    def test_producers_exhaustive(self, dps):
        for n in range(1, 7):
            for dp in self._produce(dps(n), n):
                _assert_dp_as_checked(dp)
        for dp in dps(5):
            for mask in range(1 << 5):
                _assert_dp_as_checked(dp.cyclic_shift(support.mask_members(mask)))

    def test_producers_run_no_check(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a producer ran the constructor's checks")

        monkeypatch.setattr(decorated, "check_element", refuse)
        monkeypatch.setattr(decorated, "check_ground", refuse)
        produced = list(self._produce(list(all_decorated_permutations(5)), 5))
        monkeypatch.undo()
        assert len(produced) == 4 * support.dp_count(5) + 6
        for dp in produced:
            _assert_dp_as_checked(dp)

    @pytest.mark.parametrize(
        "perm, col, message",
        [
            ((1, 2), (0, 2), r"^colour 2 not in \{-1, 0, \+1\}$"),
            ((1, 2), (0, True), r"^colour True not in \{-1, 0, \+1\}$"),
            ((1, 2), (0,), "^perm has length 2 but col has length 1$"),
            ((1, 3), (0, 0), r"^element 3 out of range 1\.\.2$"),
            ((1, 2.0), (0, 0), r"^element 2\.0 out of range 1\.\.2$"),
            ((), (), r"^ground set size must be an integer in 1\.\.64, got 0$"),
        ],
    )
    def test_public_constructor_still_checks(self, perm, col, message):
        with pytest.raises(ValueError, match=message):
            DecoratedPermutation(perm, col)


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

    @pytest.mark.parametrize("make", [uniform_dp, uniform_matroid])
    @pytest.mark.parametrize("k", [True, 1.0])
    def test_bool_and_float_k_are_refused(self, make, k):
        # also after the int 1 has been seen, which a cache keyed by value
        # would hand back for True and 1.0
        make(1, 4)
        with pytest.raises(ValueError, match=rf"^rank {k!r} out of range 0\.\.4$"):
            make(k, 4)


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

    def test_matches_backward_scan_up_to_six(self, dps):
        for n in range(1, 7):
            for dp in dps(n):
                for mask in range(1 << n):
                    members = support.mask_members(mask)
                    assert dp.cyclic_shift(members) == support.backward_scan_shift(dp, members), (
                        dp.to_text(),
                        sorted(members),
                    )

    @settings(max_examples=100, deadline=None)
    @given(support.decorated_permutations(min_n=7, max_n=10), st.data())
    def test_matches_backward_scan_beyond(self, dp, data):
        members = data.draw(support.subsets(dp.n))
        assert dp.cyclic_shift(members) == support.backward_scan_shift(dp, members)


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

    def test_ground_mismatch(self):
        with pytest.raises(ValueError, match="^ground-set mismatch$"):
            shift_interval(self.PI, uniform_dp(2, 5), 1)


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


def _first_refused_token(tokens):
    # under the library's rule: the first non-ASCII token, or the first
    # token that the oracle refuses on its own
    for token in tokens:
        if not token.isascii():
            return token
        try:
            support.checked_from_text(token)
        except ValueError as exc:
            if str(exc).startswith("bad decorated permutation token"):
                return token
    return None


@settings(max_examples=400, deadline=None)
@given(support.permutation_texts())
def test_from_text_against_oracle(text):
    # an equal permutation or the oracle's first message, except that a
    # non-ASCII token is refused where the oracle may read its digits
    try:
        expected = support.checked_from_text(text)
    except ValueError as exc:
        expected = str(exc)
    if not text.isascii():
        expected = f"bad decorated permutation token {_first_refused_token(text.split())!r}"
    try:
        got = DecoratedPermutation.from_text(text)
    except ValueError as exc:
        got = str(exc)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(support.decorated_permutations())
def test_column_law_random(dp):
    assert all(sum(col) == dp.rank for col in zip(*dp.grassmann_matrix()))
