import inspect

import pytest

import support
from positroids import (
    DecoratedPermutation,
    all_decorated_permutations,
    all_lpms,
    census_records,
    elementary_flag_pairs,
    exists_shift,
    lpm_bases,
    positroid_of,
    recover_shift_set,
)
from positroids import enumeration


class TestDecoratedPermutationCensus:
    def test_tiny_counts(self):
        assert len(list(all_decorated_permutations(1))) == 2
        assert len(list(all_decorated_permutations(2))) == 5

    def test_counts_match_formula(self):
        # independent oracle: choose fixed points, derange the rest, 2^fixed
        for n in range(1, 7):
            assert len(list(all_decorated_permutations(n))) == support.dp_count(n)

    def test_all_distinct_and_valid(self):
        seen = set()
        for dp in all_decorated_permutations(4):
            assert dp.is_valid()
            assert dp not in seen
            seen.add(dp)

    def test_deterministic(self):
        assert list(all_decorated_permutations(5)) == list(all_decorated_permutations(5))

    def test_canonical_order(self):
        census = list(all_decorated_permutations(3))
        keys = [(dp.perm, dp.col) for dp in census]
        assert keys == sorted(keys)

    def test_rank_filter_matches_full_stream(self):
        # the rank=None scan is the oracle of the rank-k walk, order included
        for n in range(1, 9):
            full = list(all_decorated_permutations(n))
            for k in range(n + 1):
                expected = [dp for dp in full if dp.rank == k]
                assert list(all_decorated_permutations(n, rank=k)) == expected

    @pytest.mark.parametrize("n", [9, 10])
    def test_sparse_ranks_beyond_the_bound(self, n):
        # a rank-1 matroid is fixed by its nonempty set of non-loops and is a
        # positroid, so rank 1 (and by duality rank n - 1) has 2^n - 1 of them
        for k, count in ((0, 1), (1, 2**n - 1), (n - 1, 2**n - 1), (n, 1)):
            census = list(all_decorated_permutations(n, max_n=n, rank=k))
            assert len(census) == count
            assert len(set(census)) == count
            assert all(dp.is_valid() and dp.rank == k for dp in census)

    def test_is_a_generator_function(self):
        # perfbench's tracer times the resumptions of generator functions
        assert inspect.isgeneratorfunction(enumeration.all_decorated_permutations)

    def test_rank_out_of_range(self):
        for k in (-1, 4):
            with pytest.raises(ValueError, match=f"^rank {k} out of range 0..3$"):
                next(all_decorated_permutations(3, rank=k))

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            next(all_decorated_permutations(9))
        with pytest.raises(ValueError, match="supports 1 <= n <= 8"):
            next(all_decorated_permutations(9, rank=1))

    def test_bound_overridable(self):
        gen = all_decorated_permutations(9, max_n=9)
        assert next(gen).is_valid()


class TestPositroidCensus:
    def test_full_rank_is_free_matroid(self):
        (only,) = (positroid_of(dp) for dp in all_decorated_permutations(3, rank=3))
        assert only.bases == (frozenset({1, 2, 3}),)

    def test_census_closure(self):
        # as many positroids of rank k as rank-k decorated permutations
        for n in range(1, 7):
            ranks = [dp.rank for dp in all_decorated_permutations(n)]
            for k in range(n + 1):
                emitted = [positroid_of(dp) for dp in all_decorated_permutations(n, rank=k)]
                assert len(emitted) == ranks.count(k)
                assert len({frozenset(m.bases) for m in emitted}) == len(emitted)

    def test_all_emitted_are_positroids(self):
        for k in range(4):
            for m in (positroid_of(dp) for dp in all_decorated_permutations(3, rank=k)):
                assert m.is_positroid()


class TestFlagPairs:
    def test_hand_census_k1_n2(self):
        triples = list(elementary_flag_pairs(1, 2))
        rendered = sorted(
            (sigma.to_text(), pi.to_text(), tuple(sorted(a))) for sigma, pi, a in triples
        )
        assert rendered == [
            ("1o 2o", "1c 2o", (2,)),
            ("1o 2o", "1o 2c", (1,)),
            ("1o 2o", "2 1", ()),
        ]

    def test_every_triple_replays(self):
        for k in range(1, 5):
            for sigma, pi, shift_set in elementary_flag_pairs(k, 4):
                assert pi.cyclic_shift(shift_set) == sigma
                assert sigma.rank == k - 1 and pi.rank == k

    def test_containment_always_holds(self):
        for sigma, pi, _ in elementary_flag_pairs(2, 4):
            assert pi.necklace.contains_entrywise(sigma.necklace)

    def test_bound(self):
        with pytest.raises(ValueError):
            next(elementary_flag_pairs(2, 9))

    @staticmethod
    def _check_shift_sets(triples):
        # the set kept from the candidate step is the one both routes derive
        for sigma, pi, shift_set in triples:
            assert shift_set == recover_shift_set(pi, sigma) == exists_shift(pi, sigma)

    def test_matches_quadratic_oracle_up_to_six(self):
        # triple for triple, in order
        for n in range(1, 7):
            for k in range(1, n + 1):
                got = list(elementary_flag_pairs(k, n))
                assert got == list(support.quadratic_flag_pairs(k, n))
                self._check_shift_sets(got)

    @pytest.mark.parametrize("k", [1, 2, 6, 7])
    def test_matches_quadratic_oracle_at_seven(self, k):
        expected = list(support.quadratic_flag_pairs(k, 7, max_n=7))
        assert expected
        got = list(elementary_flag_pairs(k, 7, max_n=7))
        assert got == expected
        self._check_shift_sets(got)

    def test_duality_maps_rank_k_onto_rank_n_plus_1_minus_k(self):
        # quotients dualise: (sigma, pi) is elementary exactly when
        # (pi*, sigma*) is; shift sets are not preserved, so pairs only
        for n in range(1, 7):
            pairs = {k: {(s, p) for s, p, _ in elementary_flag_pairs(k, n)} for k in range(1, n + 1)}
            for k in range(1, n + 1):
                assert {(p.dual(), s.dual()) for s, p in pairs[k]} == pairs[n + 1 - k], (n, k)

    def test_sweep_fills_no_global_cache(self):
        # rank tables are the sweep's own, built from necklace masks, and
        # nothing is cached on the permutations it yields
        positroid_of.cache_clear()
        triples = list(elementary_flag_pairs(3, 6))
        assert triples
        assert positroid_of.cache_info().currsize == 0
        for sigma, pi, _ in triples:
            for dp in (sigma, pi):
                assert "necklace" not in vars(dp) and "conecklace" not in vars(dp), dp

    def test_second_shift_set_for_one_pi_raises(self, monkeypatch):
        # mutation: every plan runs twice, so each candidate is hit twice
        plans = enumeration._unrotation_plans
        monkeypatch.setattr(enumeration, "_unrotation_plans", lambda n: plans(n) * 2)
        with pytest.raises(RuntimeError, match=r"^shift sets \[\] and \[\] both un-rotate 1o 2o to "):
            next(elementary_flag_pairs(1, 2))


class TestLpmCensus:
    def test_census_fills_no_cache(self):
        before = lpm_bases.cache_info()
        assert sum(1 for _ in census_records("lpms", None, 6)) == 429  # the Catalan number C_7
        assert lpm_bases.cache_info() == before

    def test_counts_match_direct_filter(self):
        import itertools

        for n in range(1, 6):
            for k in range(n + 1):
                direct = sum(
                    1
                    for u in itertools.combinations(range(1, n + 1), k)
                    for l in itertools.combinations(range(1, n + 1), k)
                    if all(a <= b for a, b in zip(u, l))
                )
                assert len(list(all_lpms(k, n))) == direct


class TestCensusRecords:
    def test_positroid_records(self):
        records = list(census_records("positroids", 2, 4))
        assert all(r["n"] == 4 and r["k"] == 2 for r in records)
        payload = records[0]
        assert {"n", "k", "dp", "necklace", "basis_count"} <= set(payload)

    def test_flag_pair_records_replay(self):
        for obj in census_records("flag-pairs", 1, 3):
            pi = DecoratedPermutation.from_text(obj["pi"])
            sigma = DecoratedPermutation.from_text(obj["sigma"])
            assert pi.cyclic_shift(obj["shift_set"]) == sigma

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            list(census_records("widgets", 1, 3))

    def test_missing_k(self):
        # rank-major: ranks 0..n, or 1..n for flag pairs
        for what, first in (("positroids", 0), ("lpms", 0), ("flag-pairs", 1)):
            per_rank = [r for k in range(first, 4) for r in census_records(what, k, 3)]
            assert list(census_records(what, None, 3)) == per_rank
        with pytest.raises(ValueError):
            next(census_records("positroids", None, 9))

    def test_k_out_of_range(self):
        for what in ("dps", "positroids", "lpms"):
            for k in (-1, 4):
                with pytest.raises(ValueError, match=f"rank {k} out of range 0..3"):
                    next(census_records(what, k, 3))
        with pytest.raises(ValueError, match="rank 0 out of range 1..3"):
            next(census_records("flag-pairs", 0, 3))

    def test_refused_when_called(self):
        # the checks run at the call, before the first record is asked for
        bound = enumeration.DEFAULT_MAX_N
        for what, (lowest, noun) in enumeration.CENSUS_KINDS.items():
            with pytest.raises(ValueError, match=f"^{noun} enumeration supports 1 <= n <= {bound}, got n={bound + 1}$"):
                census_records(what, None, bound + 1)
            with pytest.raises(ValueError, match=f"^rank {lowest - 1} out of range {lowest}..3$"):
                census_records(what, lowest - 1, 3)
        with pytest.raises(ValueError, match="unknown census kind 'widgets'"):
            census_records("widgets", 1, 3)

    @pytest.mark.parametrize(
        "generate, args, kwargs",
        [
            pytest.param(census_records, ("positroids", True, 3), {}, id="census-k-true"),
            pytest.param(census_records, ("dps", None, True), {}, id="census-n-true"),
            pytest.param(census_records, ("flag-pairs", 1.0, 3), {}, id="census-k-float"),
            pytest.param(census_records, ("lpms", None, 3.0), {}, id="census-n-float"),
            pytest.param(all_decorated_permutations, (True,), {}, id="dps-n-true"),
            pytest.param(all_decorated_permutations, (3,), {"rank": False}, id="dps-rank-false"),
            pytest.param(all_lpms, (True, 3), {}, id="lpms-k-true"),
            pytest.param(all_lpms, (1, 2.0), {}, id="lpms-n-float"),
            pytest.param(elementary_flag_pairs, (True, 3), {}, id="flag-k-true"),
            pytest.param(elementary_flag_pairs, (1, True), {}, id="flag-n-true"),
        ],
    )
    def test_bool_and_float_are_refused(self, generate, args, kwargs):
        # bool is an int subclass: True would be read as 1, False as 0
        with pytest.raises(ValueError, match=r"got n=(True|3\.0|2\.0)$|^rank (True|False|1\.0) out of range"):
            next(generate(*args, **kwargs))

    def test_basis_counts_match_the_gale_filter(self):
        # the census counts bits of the kernel's bitset; the oracle builds bases
        records = list(census_records("positroids", None, 6))
        assert len(records) == 1957
        for r in records:
            dp = DecoratedPermutation.from_text(r["dp"])
            assert r["basis_count"] == len(support.gale_filter_bases(dp.necklace).bases), r

    def test_all_ranks_positroid_census_streams(self, monkeypatch):
        # the first record comes before the whole [6] stream has been drawn,
        # so the census never holds every decorated permutation at once
        drawn = 0
        generate = enumeration.all_decorated_permutations

        def counted(*args, **kwargs):
            nonlocal drawn
            for dp in generate(*args, **kwargs):
                drawn += 1
                yield dp

        monkeypatch.setattr(enumeration, "all_decorated_permutations", counted)
        next(census_records("positroids", None, 6))
        assert 0 < drawn < support.dp_count(6)

    def test_positroid_census_leaves_the_cache_alone(self):
        # no census entry is looked up again, so none is cached
        positroid_of.cache_clear()
        records = list(census_records("positroids", None, 5))
        assert positroid_of.cache_info().currsize == 0
        dps = [DecoratedPermutation.from_text(r["dp"]) for r in records]
        assert [r["basis_count"] for r in records] == [len(positroid_of(dp).bases) for dp in dps]
