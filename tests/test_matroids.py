import itertools

import pytest
from hypothesis import given, settings, strategies as st

import support
from positroids.cyclic import mask_of
from positroids import (
    DecoratedPermutation,
    Matroid,
    bases_from_necklace,
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
        # the elements are checked once, over the union of the bases; 2.0
        # equals the 2 of an earlier basis and must not hide behind it
        with pytest.raises(ValueError, match=rf"^element {bad!r} out of range 1\.\.5$"):
            Matroid(5, [{1, 2}, {1, 3}, {3, 5}, {4, bad}])

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
        for dp in dps(4):
            m = positroid_of(dp)
            assert list(m.circuits) == support.naive_circuits(m.bases, 4)


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


class TestKernelsAgainstOracles:
    """bases_from_necklace against the Gale-order filter, rank_table against
    max over bases, and the necklaces against the sorted-tuple Gale
    extremum, in ``support``."""

    def test_bases_exhaustive_up_to_seven(self, dps):
        for n in range(1, 8):
            for dp in dps(n):
                assert bases_from_necklace(dp.necklace) == support.gale_filter_bases(dp.necklace), dp

    def test_rank_tables_on_matroid_census(self, matroid_census):
        for n in range(1, 7):
            for m in matroid_census(n):
                assert m.rank_table == bytes(support.max_over_bases_rank_table(m)), m.to_json()

    @settings(max_examples=30, deadline=None)
    @given(support.decorated_permutations(min_n=9, max_n=12))
    def test_beyond_exhaustive_range(self, dp):
        # the necklace recurrence and the O(n) rank ride along
        assert dp.necklace.entries == tuple(dp.anti_exceedances(i) for i in range(1, dp.n + 1))
        assert dp.rank == len(dp.anti_exceedances(1))
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
                    # entries are the matroid's own basis objects
                    assert all(any(e is b for b in m.bases) for e in neck.entries)

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
