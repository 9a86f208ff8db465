import itertools
import json

import pytest
from hypothesis import given, settings

import support
from positroids import cli, cyclic, lpm, matroids
from positroids import (
    DecoratedPermutation,
    Lpm,
    Matroid,
    all_decorated_permutations,
    all_lpms,
    is_quotient_rank,
    lpm_bases,
    lpm_quotient_containment,
    lpm_quotient_greedy,
    positroid_of,
    uniform_matroid,
)

SUB = Lpm(7, {1, 4}, {5, 7})
SUP = Lpm(7, {1, 4, 5}, {4, 6, 7})


class TestConstruction:
    def test_gale_condition_enforced(self):
        with pytest.raises(ValueError):
            Lpm(5, {2, 3}, {1, 4})

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Lpm(5, {1}, {1, 2})

    def test_rank_zero(self):
        p = Lpm(4, frozenset(), frozenset())
        assert p.k == 0
        assert lpm_bases(p).bases == (frozenset(),)

    def test_an_int_too_long_for_repr_is_named_by_its_bits(self):
        with pytest.raises(ValueError) as got:
            Lpm(5, [10**5000], [1])
        assert str(got.value) == "element int of 16610 bits out of range 1..5"

    def test_repeated_member_is_refused_as_in_json(self):
        for build in (lambda: Lpm(5, [1, 1], [2, 2]), lambda: Lpm.from_json({"n": 5, "U": [1, 1], "L": [2, 2]})):
            with pytest.raises(ValueError, match=r"^U \[1, 1\] repeats an element$"):
                build()

    def test_json_round_trip(self):
        assert Lpm.from_json(SUB.to_json()) == SUB
        assert SUB.to_json() == {"n": 7, "U": [1, 4], "L": [5, 7]}

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"n":5,"U":[2,3],"L":[1,4]}', "U=[2, 3] is not below L=[1, 4] in the Gale order at 1"),
            ('{"n":5,"U":[3,1],"L":[2,1]}', "U=[1, 3] is not below L=[1, 2] in the Gale order at 1"),
            ('{"n":5,"U":[1],"L":[1,2]}', "|U|=1 and |L|=2 must agree"),
            ('{"n":5,"U":[1,1],"L":[2,3]}', "U [1, 1] repeats an element"),
            ('{"n":5,"U":[1,true],"L":[2,3]}', "U [1, True] repeats an element"),
            ('{"n":5,"U":"x","L":[]}', "U 'x' is not a list"),
            ('{"n":0,"U":[1],"L":[1]}', "ground set size must be an integer in 1..64, got 0"),
            ('{"n":5,"U":[true],"L":[2]}', "element True out of range 1..5"),
            ('{"n":5,"U":[1],"L":[true]}', "element True out of range 1..5"),
            ('{"n":5,"U":[0],"L":[1]}', "element 0 out of range 1..5"),
            ('{"n":5,"U":[1,2],"L":[1,2.5]}', "element 2.5 out of range 1..5"),
            # 2.0 equals 2 and hides in the union, so the sizes come first ...
            ('{"n":5,"U":[2],"L":[2.0,3]}', "|U|=1 and |L|=2 must agree"),
            # ... and then the element, ahead of the Gale order
            ('{"n":5,"U":[2],"L":[2.0]}', "element 2.0 out of range 1..5"),
            ('{"n":5,"U":[1,2],"L":[1,2.0]}', "element 2.0 out of range 1..5"),
            ('{"n":5,"U":[2.0],"L":[2]}', "element 2.0 out of range 1..5"),
            ('{"n":5,"U":[6],"L":[1,2]}', "element 6 out of range 1..5"),
            ('{"n":5,"U":[9],"L":[7]}', "element 9 out of range 1..5"),
        ],
    )
    def test_messages_in_order(self, payload, message):
        with pytest.raises(ValueError) as got:
            Lpm.from_json(json.loads(payload))
        assert str(got.value) == message


class TestBases:
    def test_single_basis_when_equal(self):
        p = Lpm(5, {2, 4}, {2, 4})
        assert lpm_bases(p).bases == (frozenset({2, 4}),)

    def test_extremes_give_uniform(self):
        p = Lpm(6, {1, 2, 3}, {4, 5, 6})
        assert set(lpm_bases(p).bases) == set(uniform_matroid(3, 6).bases)

    def test_every_lpm_is_a_positroid(self):
        for n in range(1, 6):
            for k in range(n + 1):
                for p in all_lpms(k, n):
                    assert lpm_bases(p).is_positroid()

    def test_sandwich_matches_naive_filter(self):
        expected = {
            frozenset(c)
            for c in itertools.combinations(range(1, 8), 2)
            if support.naive_gale_leq(1, SUB.U, c, 7) and support.naive_gale_leq(1, c, SUB.L, 7)
        }
        assert set(lpm_bases(SUB).bases) == expected

    def test_positional_bounds_match_naive_filter_up_to_seven(self):
        for n in range(1, 8):
            for k in range(n + 1):
                combos = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
                for p in all_lpms(k, n):
                    expected = {
                        c
                        for c in combos
                        if support.naive_gale_leq(1, p.U, c, n) and support.naive_gale_leq(1, c, p.L, n)
                    }
                    assert set(lpm_bases(p).bases) == expected, p
                    assert lpm_bases(p) == support.lpm_filter_bases(p), p


class TestCapKernel:
    """lpm_bases applies the Gale sandwich as caps from the positroid cap
    table; the combination filter is the oracle (every LPM up to n = 7 in
    TestBases)."""

    @settings(max_examples=150, deadline=None)
    @given(support.lpms(max_n=matroids.CACHED_N + 2))
    def test_drawn_lpms_across_the_cached_sizes(self, p):
        # above CACHED_N the cap rows are built per call
        assert lpm_bases.__wrapped__(p) == support.lpm_filter_bases(p)

    def test_builds_without_checks(self, monkeypatch):
        lpms = [p for k in range(7) for p in all_lpms(k, 6)]
        expected = [support.lpm_filter_bases(p).basis_masks for p in lpms]

        def refuse(*args, **kwargs):
            raise AssertionError("lpm_bases checked or re-encoded its bases")

        for module, name in (
            (cyclic, "bits_of"),
            (cyclic, "check_members"),
            (cyclic, "member_masks"),
            (matroids, "check_members"),
            (matroids, "member_masks"),
            (lpm, "check_members"),
            (lpm, "check_element"),
        ):
            monkeypatch.setattr(module, name, refuse)
        assert [lpm_bases.__wrapped__(p).basis_masks for p in lpms] == expected


class TestDecoratedPermutation:
    """Lpm.decorated_permutation reads the positroid off (U, L); the oracles
    are the necklace of the bases and the combination filter."""

    def test_worked_example(self):
        # 5 -> 1 and 7 -> 4 pair L with U; 1, 2, 3, 4, 6 -> 2, 3, 5, 6, 7 pair the rest
        assert SUB.decorated_permutation.to_text() == "2 3 5 6 1 7 4"
        assert Lpm(4, {2}, {2}).decorated_permutation.to_text() == "1o 2c 3o 4o"

    def test_necklace_of_the_bases_up_to_eight(self):
        for n in range(1, 9):
            for k in range(n + 1):
                for p in all_lpms(k, n):
                    bases = lpm_bases.__wrapped__(p)
                    assert p.decorated_permutation == DecoratedPermutation.from_necklace(bases.grassmann_necklace()), p

    @settings(max_examples=100, deadline=None)
    @given(support.lpms(max_n=12))
    def test_its_positroid_is_the_lpm_up_to_twelve(self, p):
        assert positroid_of(p.decorated_permutation) == support.lpm_filter_bases(p)


class TestRoutesWithoutBases:
    """The containment criterion and the CLI's LPM conversions, but --to
    matroid, never build or read a basis family."""

    def test_no_bases_no_gale_extrema_no_positroid_check(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("an LPM route reached a basis family")

        monkeypatch.setattr(lpm, "lpm_bases", refuse)
        monkeypatch.setattr(cli, "positroid_of", refuse)
        for name in ("grassmann_necklace", "grassmann_conecklace", "is_positroid"):
            monkeypatch.setattr(Matroid, name, refuse)
        lpms = [p for k in range(6) for p in all_lpms(k, 5)]
        for sub in lpms:
            for sup in lpms:
                assert lpm_quotient_containment(sub, sup).is_quotient == lpm_quotient_greedy(sub, sup).is_quotient
        for p in lpms:
            for to in ("dp", "necklace", "lpm"):
                assert cli.main(["convert", "--from", "lpm", "--to", to, "--input", json.dumps(p.to_json())]) == 0
        dps = list(all_decorated_permutations(5))
        codes = [cli.main(["convert", "--from", "dp", "--to", "lpm", "--input", dp.to_text()]) for dp in dps]
        assert (codes.count(0), codes.count(2)) == (len(lpms), len(dps) - len(lpms))
        capsys.readouterr()


class TestEndpointLaw:
    def test_u_is_first_necklace_entry(self):
        for n in range(1, 8):
            for k in range(n + 1):
                for p in all_lpms(k, n):
                    m = lpm_bases(p)
                    assert m.grassmann_necklace().entries[0] == p.U
                    assert m.grassmann_conecklace().entries[0] == p.L


class TestQuotientCriteria:
    def test_worked_pair_is_not_a_quotient(self):
        assert not lpm_quotient_greedy(SUB, SUP)
        assert not lpm_quotient_containment(SUB, SUP)
        assert not is_quotient_rank(lpm_bases(SUB), lpm_bases(SUP))

    def test_worked_pair_fails_only_conecklace(self):
        verdict = lpm_quotient_containment(SUB, SUP)
        assert verdict.witness == {"type": "conecklace-entry", "i": 1}
        # necklace containment alone holds entrywise
        neck_sub = lpm_bases(SUB).grassmann_necklace()
        neck_sup = lpm_bases(SUP).grassmann_necklace()
        assert neck_sup.contains_entrywise(neck_sub)

    def test_reflexive(self):
        assert lpm_quotient_greedy(SUB, SUB)
        assert lpm_quotient_containment(SUB, SUB)

    def test_uniform_chain_is_greedy_positive(self):
        small = Lpm(6, {1, 2}, {5, 6})
        big = Lpm(6, {1, 2, 3}, {4, 5, 6})
        assert lpm_quotient_greedy(small, big)
        assert is_quotient_rank(lpm_bases(small), lpm_bases(big))

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            lpm_quotient_greedy(SUB, Lpm(6, {1}, {6}))

    def test_containment_refuses_a_ground_mismatch(self):
        with pytest.raises(ValueError, match="^ground-set mismatch$"):
            lpm_quotient_containment(SUB, Lpm(6, {1}, {6}))

    def test_criteria_agree_on_twenty_to_forty_elements(self):
        verdicts = set()

        @settings(max_examples=300, deadline=None)
        @given(support.lpm_pairs(20, 40))
        def agree(pair):
            greedy = lpm_quotient_greedy(*pair).is_quotient
            assert lpm_quotient_containment(*pair).is_quotient == greedy
            verdicts.add(greedy)

        agree()
        assert verdicts == {True, False}

    def test_triple_agreement_small(self):
        # greedy == containment == brute force on every ordered pair, n <= 5
        for n in range(1, 6):
            lpms = [p for k in range(n + 1) for p in all_lpms(k, n)]
            for sub in lpms:
                m_sub = lpm_bases(sub)
                for sup in lpms:
                    brute = is_quotient_rank(m_sub, lpm_bases(sup)).is_quotient
                    assert lpm_quotient_greedy(sub, sup).is_quotient == brute
                    assert lpm_quotient_containment(sub, sup).is_quotient == brute
