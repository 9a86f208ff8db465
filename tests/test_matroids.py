import dataclasses
import gc
import itertools
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import support
from positroids import matroids
from positroids.cyclic import mask_of
from positroids.decorated import necklace_masks
from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    Matroid,
    all_lpms,
    bases_from_necklace,
    lpm_bases,
    positroid_of,
    uniform_dp,
    uniform_matroid,
)

P5 = Matroid(5, [{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 4, 5}, {1, 3, 4, 5}])


class TestValidation:
    def test_example_is_a_matroid(self):
        assert P5.is_valid()

    def test_rank_zero_matroid(self):
        assert Matroid(3, [frozenset()]).is_valid()

    def test_exchange_failure(self):
        # take x = 1 in {1,2} \ {3,4}: neither {2,3} nor {2,4} is a basis
        assert not Matroid(4, [{1, 2}, {3, 4}]).is_valid()

    def test_non_equicardinal(self):
        assert not Matroid(3, [{1}, {1, 2}]).is_valid()

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            Matroid(3, [])

    def test_canonical_deduplication(self):
        m = Matroid(3, [{1, 2}, {2, 1}, {1, 3}])
        assert m.bases == (frozenset({1, 2}), frozenset({1, 3}))

    @pytest.mark.parametrize("bad", [6, 0, "3", 2.0])
    def test_bad_element_in_last_basis(self, bad):
        # the elements are checked basis by basis; 2.0 equals the 2 of an
        # earlier basis and must not hide behind it
        with pytest.raises(ValueError, match=rf"^element {bad!r} out of range 1\.\.5$"):
            Matroid(5, [{1, 2}, {1, 3}, {3, 5}, {4, bad}])

    @pytest.mark.parametrize("bases", [[[1], [1.0]], [[1.0], [1]], [[1, True]], [[True, 1]]])
    def test_non_int_in_a_repeated_basis(self, bases):
        # the members are checked before repeated bases are dropped
        with pytest.raises(ValueError, match=r"^element (1\.0|True) out of range 1\.\.2$"):
            Matroid(2, bases)

    def test_repeated_member_is_refused_as_in_json(self):
        for build in (lambda: Matroid(5, [[1, 1, 2]]), lambda: Matroid.from_json({"n": 5, "bases": [[1, 1, 2]]})):
            with pytest.raises(ValueError, match=r"^basis \[1, 1, 2\] repeats an element$"):
                build()

    def test_basis_masks_match_checked_masks(self):
        for m in (P5, uniform_matroid(2, 4), Matroid(3, [frozenset()])):
            assert m.basis_masks == tuple(mask_of(b, m.n) for b in m.bases)


class TestRank:
    def test_counterexample_rank_gap(self):
        m = positroid_of(DecoratedPermutation.from_text("2 6 1 5 3 4"))
        assert m.rank_of(range(1, 7)) - m.rank_of({1, 2, 4, 5}) == 1
        assert uniform_matroid(4, 6).rank_of({1, 2, 4, 5}) == 4

    def test_empty_set(self):
        assert P5.rank_of(frozenset()) == 0

    def test_rank_table_matches_rank_of(self):
        for mask in range(1 << 5):
            assert P5.rank_table[mask] == P5.rank_of(support.mask_members(mask))

    def test_naive_oracle_agreement(self):
        for members in support.subsets_of(range(1, 6)):
            assert P5.rank_of(members) == support.naive_rank([set(b) for b in P5.bases], members)


class TestDual:
    def test_uniform_dual(self):
        assert set(uniform_matroid(2, 5).dual().bases) == set(uniform_matroid(3, 5).bases)

    def test_involution(self):
        assert P5.dual().dual() == P5

    def test_example_dual_bases(self):
        assert set(P5.dual().bases) == {
            frozenset({5}),
            frozenset({4}),
            frozenset({3}),
            frozenset({2}),
        }

    def test_duality_rank_identity_small(self, dps):
        # rk*(S) = rk(E - S) + |S| - rk(M), all subsets, all positroids n <= 5
        for n in range(1, 6):
            for dp in dps(n):
                m = positroid_of(dp)
                d = m.dual()
                full = (1 << n) - 1
                for s in range(1 << n):
                    assert d.rank_table[s] == m.rank_table[full & ~s] + bin(s).count("1") - m.rank

    def test_dual_decorated_permutation_law(self, dps):
        # the dual positroid of dp is the positroid of (perm^{-1}, -col)
        for n in range(1, 7):
            for dp in dps(n):
                assert set(positroid_of(dp).dual().bases) == set(positroid_of(dp.dual()).bases)


class TestCircuits:
    def test_uniform_circuits(self):
        assert set(uniform_matroid(2, 4).circuits) == {
            frozenset(c) for c in itertools.combinations(range(1, 5), 3)
        }

    def test_free_matroid_has_none(self):
        assert Matroid(4, [{1, 2, 3, 4}]).circuits == ()

    def test_example_circuits_against_naive_search(self):
        assert list(P5.circuits) == support.naive_circuits(P5.bases, 5)
        assert P5.circuits == (frozenset({2, 3, 4, 5}),)

    def test_circuits_against_naive_on_positroids(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                m = positroid_of.__wrapped__(dp)  # fresh, so nothing cached is decoded
                assert list(m.circuits) == support.naive_circuits(m.bases, n), dp

    def test_circuits_against_naive_on_lpms(self):
        for n in range(1, 7):
            for k in range(n + 1):
                for p in all_lpms(k, n):
                    m = lpm_bases.__wrapped__(p)
                    assert list(m.circuits) == support.naive_circuits(m.bases, n), p

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(support.families(max_n=8), support.equicardinal_families(max_n=8)))
    def test_circuits_against_naive_on_any_family(self, m):
        # unequal sizes and non-matroids too: the minimal sets in no member
        assert list(m.circuits) == support.naive_circuits(m.bases, m.n), m.to_json()

    def test_circuits_refused_above_sixteen(self):
        with pytest.raises(ValueError, match="^rank table supported only for n <= 16$"):
            Matroid(17, [{1}]).circuits

    def test_circuits_build_no_rank_table(self):
        m = positroid_of.__wrapped__(DecoratedPermutation.from_text("2 6 1 5 3 4"))
        assert m.circuits
        assert "rank_table" not in vars(m)


class TestLoopsColoops:
    def test_worked_example(self):
        m = positroid_of(DecoratedPermutation.from_text("4 1 3o 5 6 2 7c"))
        assert m.loops_and_coloops() == ({3}, {7})

    def test_uniform_has_none(self):
        assert uniform_matroid(2, 4).loops_and_coloops() == (frozenset(), frozenset())

    def test_all_coloops(self):
        m = positroid_of(DecoratedPermutation((1, 2, 3), (-1, -1, -1)))
        assert m.loops_and_coloops() == (frozenset(), {1, 2, 3})


class TestNecklaceBridge:
    def test_bases_from_necklace_reproduces_example(self):
        dp = DecoratedPermutation.from_text("1c 5 2 3 4")
        assert set(bases_from_necklace(dp.necklace).bases) == set(P5.bases)

    def test_constant_necklace_gives_uniform(self):
        neck = uniform_dp(2, 5).necklace
        assert set(bases_from_necklace(neck).bases) == set(uniform_matroid(2, 5).bases)

    def test_filter_matches_direct_gale_conditions(self):
        # independent route: filter C([6], 3) by the six Gale conditions
        dp = DecoratedPermutation.from_text("2 6 1 5 3 4")
        entries = dp.necklace.entries
        expected = {
            frozenset(c)
            for c in itertools.combinations(range(1, 7), 3)
            if all(support.naive_gale_leq(i, entries[i - 1], c, 6) for i in range(1, 7))
        }
        assert set(positroid_of(dp).bases) == expected

    def test_necklace_of_matroid_round_trip(self, dps):
        for n in range(1, 6):
            for dp in dps(n):
                m = positroid_of(dp)
                assert m.grassmann_necklace() == dp.necklace
                assert m.grassmann_conecklace().entries == dp.conecklace.entries

    def test_uniform_necklace_pattern(self):
        neck = uniform_matroid(3, 7).grassmann_necklace()
        for i in range(1, 8):
            expected = frozenset((i - 1 + d) % 7 + 1 for d in range(3))
            assert neck.entries[i - 1] == expected

    def test_lpm_remark_necklace(self):
        from positroids import Lpm, lpm_bases

        neck = lpm_bases(Lpm(7, {1, 4}, {5, 7})).grassmann_necklace()
        assert neck.entries == (
            {1, 4},
            {2, 4},
            {3, 4},
            {4, 5},
            {5, 6},
            {1, 6},
            {1, 7},
        )


def _assert_same_as_checked(m):
    # the decoded bases, in reverse, through the checked constructor
    checked = Matroid(m.n, reversed(m.bases))
    assert m == checked and hash(m) == hash(checked), m.to_json()
    assert m.bases == checked.bases


class TestTrustedPath:
    """The kernels' unchecked route gives the same matroid as the checked
    constructor, and never checks or sorts."""

    def test_positroids_exhaustive(self, dps):
        for n in range(1, 7):
            for dp in dps(n):
                _assert_same_as_checked(positroid_of(dp))
                _assert_same_as_checked(bases_from_necklace(dp.necklace))

    @settings(max_examples=100, deadline=None)
    @given(support.decorated_permutations(max_n=9))
    def test_positroids_drawn(self, dp):
        _assert_same_as_checked(positroid_of(dp))
        _assert_same_as_checked(bases_from_necklace(dp.necklace))

    def test_lpms_exhaustive(self):
        for n in range(1, 7):
            for k in range(n + 1):
                for p in all_lpms(k, n):
                    _assert_same_as_checked(lpm_bases(p))

    def test_uniform_matroids(self):
        for n in range(1, 9):
            for k in range(n + 1):
                _assert_same_as_checked(uniform_matroid(k, n))

    def test_masks_are_the_stored_form(self):
        assert [f.name for f in dataclasses.fields(Matroid)] == ["n", "basis_masks"]
        m = uniform_matroid.__wrapped__(2, 4)
        assert "bases" not in vars(m)
        assert m.bases[0] == {1, 2} and "bases" in vars(m)

    def test_kernels_neither_check_nor_sort(self, monkeypatch, dps):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel route checked or sorted its family")

        monkeypatch.setattr(matroids, "check_members", refuse)
        monkeypatch.setattr(matroids, "sorted", refuse, raising=False)
        for dp in dps(5):  # the caches are bypassed, so every call builds
            positroid_of.__wrapped__(dp)
            bases_from_necklace(dp.necklace)
        for k in range(6):
            uniform_matroid.__wrapped__(k, 5)
            for p in all_lpms(k, 5):
                lpm_bases.__wrapped__(p)


class TestKernelsAgainstOracles:
    """bases_from_necklace against the Gale-order filter, rank_table against
    max over bases, and the necklaces against the sorted-tuple Gale
    extremum, in ``support``."""

    def test_bases_exhaustive_up_to_seven(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                assert bases_from_necklace(dp.necklace) == support.gale_filter_bases(dp.necklace), dp

    @staticmethod
    def _check_sweep_rank_table(dp):
        # the packed table the flag sweep builds from necklace masks alone
        table = matroids.packed_rank_table(dp.n, matroids._basis_bits(dp.n, dp.rank, necklace_masks(dp.perm, dp.col)))
        assert table == int.from_bytes(positroid_of(dp).rank_table, "little"), dp

    def test_sweep_rank_tables_exhaustive_up_to_six(self, dps):
        for n in range(1, 7):
            for dp in dps(n):
                self._check_sweep_rank_table(dp)

    @settings(max_examples=60, deadline=None)
    @given(support.decorated_permutations(max_n=9))
    def test_sweep_rank_tables_sampled_up_to_nine(self, dp):
        self._check_sweep_rank_table(dp)

    def test_rank_tables_on_matroid_census(self, matroid_census):
        for n in range(1, 7):
            for m in matroid_census(n):
                assert m.rank_table == bytes(support.max_over_bases_rank_table(m)), m.to_json()

    @settings(max_examples=30, deadline=None)
    @given(support.decorated_permutations(min_n=9, max_n=12))
    def test_beyond_exhaustive_range(self, dp):
        # the necklace recurrence and the O(n) rank ride along
        expected = tuple(support.anti_exceedances(dp, i) for i in range(1, dp.n + 1))
        assert dp.necklace.entries == expected
        assert dp.rank == len(expected[0])
        m = bases_from_necklace(dp.necklace)
        assert m == support.gale_filter_bases(dp.necklace)
        assert m.rank_table == bytes(support.max_over_bases_rank_table(m))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rank_table_of_any_family(self, data):
        # the packed closure needs no exchange axiom: rk(S) = max |S & B|
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(0, n))
        basis = st.sets(st.integers(1, n), min_size=k, max_size=k)
        m = Matroid(n, data.draw(st.lists(basis, min_size=1, max_size=8)))
        assert m.rank_table == bytes(support.max_over_bases_rank_table(m))

    def test_rank_table_at_sixteen(self):
        m = Matroid(16, [range(1, 17, 2), range(2, 17, 2), range(5, 13)])
        assert m.rank_table == bytes(support.max_over_bases_rank_table(m))
        with pytest.raises(ValueError, match="n <= 16"):
            Matroid(17, [{1}]).rank_table

    @staticmethod
    def _check_flat_table(m):
        table = matroids.flat_table(m.n, int.from_bytes(m.rank_table, "little"))
        assert table.to_bytes(1 << m.n, "little") == support.naive_flats(m), m.to_json()

    def test_flat_tables_exhaustive_up_to_six(self, dps):
        for n in range(1, 7):
            for dp in dps(n):
                self._check_flat_table(positroid_of(dp))

    def test_flat_tables_on_matroid_census(self, matroid_census):
        for n in range(1, 5):
            for m in matroid_census(n):
                self._check_flat_table(m)

    def test_necklaces_exhaustive_up_to_seven(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                m = positroid_of(dp)
                assert m.grassmann_necklace() == dp.necklace, dp
                assert m.grassmann_conecklace() == dp.conecklace, dp

    def test_necklaces_on_matroid_census(self, matroid_census):
        # non-positroid matroids too: every Gale extremum exists
        for n in range(1, 6):
            for m in matroid_census(n):
                for maximum, neck in ((False, m.grassmann_necklace()), (True, m.grassmann_conecklace())):
                    expected = tuple(support.sorted_gale_extremum(i, m.bases, n, maximum) for i in range(1, n + 1))
                    assert neck.entries == expected, m.to_json()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_necklace_of_any_family(self, data):
        # the same entries or the same refusal, at the first i that has none
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(0, n))
        basis = st.one_of(st.sets(st.integers(1, n), min_size=k, max_size=k), st.sets(st.integers(1, n)))
        m = Matroid(n, data.draw(st.lists(basis, min_size=1, max_size=8)))
        for maximum, route in ((False, m.grassmann_necklace), (True, m.grassmann_conecklace)):
            try:
                expected = [support.sorted_gale_extremum(i, m.bases, n, maximum) for i in range(1, n + 1)]
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    route()
                if len({len(b) for b in m.bases}) == 1:
                    assert str(got.value) == str(exc)
            else:
                assert list(route().entries) == expected

    def test_edge_ranks_and_sizes(self):
        for n, k in ((1, 0), (1, 1)):
            neck = GrassmannNecklace(n, k, [range(1, k + 1)] * n)
            assert bases_from_necklace(neck) == support.gale_filter_bases(neck)
        assert len(bases_from_necklace(uniform_dp(7, 14).necklace).bases) == math.comb(14, 7)

    def test_bases_are_the_table_subsets(self):
        # the uniform matroid's masks are the cap table's subset masks, in order
        assert uniform_matroid(3, 6).basis_masks == matroids._cap_table(6, 3)[0]

    def test_no_size_is_refused(self):
        # U_{8,17} converts in test_cli
        assert len(bases_from_necklace(uniform_dp(3, 64).necklace).bases) == math.comb(64, 3)
        assert Matroid(17, itertools.combinations(range(1, 18), 8)).is_positroid()

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            support.decorated_permutations(min_n=matroids.CACHED_N + 1, max_n=matroids.CACHED_N + 2).map(
                lambda dp: dp.necklace
            ),
            support.subset_sequences(min_n=matroids.CACHED_N + 1, max_n=matroids.CACHED_N + 2),
        )
    )
    def test_same_bases_or_same_error_beyond_the_cache(self, necklace):
        # caps built per call above CACHED_N, on positroids and off the axioms
        outcomes = []
        for route in (bases_from_necklace, support.gale_filter_bases):
            try:
                outcomes.append(route(necklace))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_cap_cache_footprint_is_bounded(self):
        # every rank of [16] in turn leaves nothing cached; every (n, k)
        # with n <= CACHED_N in turn leaves 32 tables of masks, under 0.5 MB
        big = [uniform_dp(k, 16).necklace for k in range(17)]
        small = [uniform_dp(k, n).necklace for n in range(1, matroids.CACHED_N + 1) for k in range(n + 1)]
        for necklace in big + small:
            necklace.masks
        matroids._cap_table.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for necklace in big:
                matroids._basis_bits(necklace.n, necklace.k, necklace.masks)
            assert matroids._cap_table.cache_info().currsize == 0
            for necklace in small:
                matroids._basis_bits(necklace.n, necklace.k, necklace.masks)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert matroids._cap_table.cache_info().currsize == 32
        assert retained < 0.5e6

    @settings(max_examples=200, deadline=None)
    @given(support.subset_sequences(max_n=9))
    def test_same_bases_or_same_error_off_the_axioms(self, necklace):
        outcomes = []
        for route in (bases_from_necklace, support.gale_filter_bases):
            try:
                outcomes.append(route(necklace))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestIsPositroid:
    def test_example_is_positroid(self):
        assert P5.is_positroid()

    def test_uniform_is_positroid(self):
        assert uniform_matroid(2, 4).is_positroid()

    def test_non_matroid_is_not(self):
        assert not Matroid(4, [{1, 3}, {2, 4}]).is_positroid()

    def test_matroid_that_is_not_a_positroid(self, matroid_census):
        flags = [m.is_positroid() for m in matroid_census(4)]
        assert not all(flags), "some rank-2 matroid on [4] must fail the necklace closure"

    def test_positroid_census_closed(self, dps, matroid_census):
        # the matroids recognized by is_positroid among all matroids on [n]
        # are exactly the positroids of decorated permutations
        for n in range(1, 5):
            from_dps = {frozenset(positroid_of(dp).bases) for dp in dps(n)}
            recognized = {
                frozenset(m.bases) for m in matroid_census(n) if m.is_positroid()
            }
            assert from_dps == recognized

    def test_matches_exchange_closure_on_every_matroid(self, matroid_census):
        for n in range(1, 6):
            for m in matroid_census(n):
                assert m.is_positroid() == support.exchange_closure_positroid(m), m.bases

    @settings(max_examples=300, deadline=None)
    @given(support.equicardinal_families(max_n=9))
    def test_matches_exchange_closure_on_arbitrary_families(self, m):
        assert m.is_positroid() == support.exchange_closure_positroid(m)


class TestSubmodularity:
    def test_exhaustive_small(self, matroid_census):
        for n in range(1, 5):
            for m in matroid_census(n):
                rt = m.rank_table
                for a in range(1 << n):
                    for b in range(1 << n):
                        assert rt[a] + rt[b] >= rt[a & b] + rt[a | b]


class TestJson:
    def test_round_trip(self):
        assert Matroid.from_json(P5.to_json()) == P5

    def test_bases_sorted_lexicographically(self):
        obj = Matroid(4, [{2, 4}, {1, 3}, {1, 2}]).to_json()
        assert obj == {"n": 4, "bases": [[1, 2], [1, 3], [2, 4]]}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_checked_order_is_sorted_member_lists(self, data):
        # mixed sizes, the empty set and repeated bases, given as lists
        n = data.draw(st.integers(1, 9))
        basis = st.lists(st.integers(1, n), unique=True, max_size=n)
        bases = data.draw(st.lists(basis, min_size=1, max_size=12))
        bases += data.draw(st.lists(st.sampled_from(bases), max_size=3)) + data.draw(st.sampled_from([[], [[]]]))
        expected = [sorted(b) for b in sorted({frozenset(b) for b in bases}, key=sorted)]
        for m in (Matroid(n, map(set, bases)), Matroid.from_json({"n": n, "bases": bases})):
            assert m.to_json() == {"n": n, "bases": expected}
            assert m.basis_masks == tuple(mask_of(b, n) for b in expected)
            assert m.bases == tuple(map(frozenset, expected))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"n": 5, "bases": [[1, 2], [1, 9]]}', "element 9 out of range 1..5"),
            ('{"n": 5, "bases": [[7, 9]]}', "element 9 out of range 1..5"),
            ('{"n": 5, "bases": [[1], [9, 7]]}', "element 9 out of range 1..5"),
            ('{"n": 5, "bases": [[0]]}', "element 0 out of range 1..5"),
            ('{"n": 5, "bases": [[-1]]}', "element -1 out of range 1..5"),
            ('{"n": 5, "bases": [[1000000000000000000000000000000]]}', "element 10" + "0" * 29 + " out of range 1..5"),
            ('{"n": 5, "bases": [["3"]]}', "element '3' out of range 1..5"),
            ('{"n": 5, "bases": [[null]]}', "element None out of range 1..5"),
            ('{"n": 5, "bases": [[2, true]]}', "element True out of range 1..5"),
            ('{"n": 5, "bases": [[2.0, 1]]}', "element 2.0 out of range 1..5"),
            ('{"n": 5, "bases": [[1, 2], [1, 1]]}', "basis [1, 1] repeats an element"),
            ('{"n": 5, "bases": [[1, true]]}', "basis [1, True] repeats an element"),
            ('{"n": 5, "bases": [[2, 2.0]]}', "basis [2, 2.0] repeats an element"),
            ('{"n": 5, "bases": [[1], [1.0]]}', "element 1.0 out of range 1..5"),
            ('{"n": 5, "bases": [[1.0], [1]]}', "element 1.0 out of range 1..5"),
            ('{"n": 5, "bases": []}', "a matroid needs at least one basis"),
            ('{"n": 5, "bases": "x"}', "bases 'x' is not a list"),
            ('{"n": 5, "bases": [[1], 3]}', "basis 3 is not a list"),
            ('{"n": 0, "bases": [[1]]}', "ground set size must be an integer in 1..64, got 0"),
            ('{"n": true, "bases": [[1]]}', "ground set size must be an integer in 1..64, got True"),
            ('{"n": 5.0, "bases": [[1]]}', "ground set size must be an integer in 1..64, got 5.0"),
            # the order: list and repeat checks per basis, then n, then the
            # family, then the elements
            ('{"n": 5, "bases": [[9], [1, 1]]}', "basis [1, 1] repeats an element"),
            ('{"n": 0, "bases": [[1, 1]]}', "basis [1, 1] repeats an element"),
            ('{"n": 0, "bases": []}', "ground set size must be an integer in 1..64, got 0"),
            ('{"n": 0, "bases": [[9]]}', "ground set size must be an integer in 1..64, got 0"),
        ],
    )
    def test_messages_in_order(self, payload, message):
        with pytest.raises(ValueError) as got:
            Matroid.from_json(json.loads(payload))
        assert str(got.value) == message
