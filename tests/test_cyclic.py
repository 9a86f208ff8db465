import itertools

import pytest
from hypothesis import given, settings, strategies as st

import support
from positroids import (
    Lpm,
    containment_check,
    exists_shift,
    is_quotient_circuits,
    is_quotient_rank,
    lpm_quotient_containment,
    lpm_quotient_greedy,
    oh_xiang_condition,
    rank_cyclic_interval,
    shift_interval,
    uniform_dp,
    uniform_matroid,
)
from positroids.cyclic import (
    CyclicInterval,
    arc_mask,
    check_element,
    check_members,
    cyclic_components,
    cyclic_pos,
    gale_leq,
    gale_max,
    gale_min,
    mask_of,
    members_of,
)


def pos_leq(i, a, b, n) -> bool:
    """a <=_i b, read off the positions that cyclic_pos gives in <_i."""
    return cyclic_pos(i, a, n) <= cyclic_pos(i, b, n)


class TestCyclicLeq:
    def test_rotated_precedence(self):
        # in the order 3 < 4 < 5 < 1 < 2, 4 comes before 1
        assert pos_leq(3, 4, 1, 5) is True

    def test_natural_order_at_one(self):
        assert pos_leq(1, 2, 5, 5) is True

    def test_against_explicit_rotation(self):
        assert pos_leq(6, 5, 6, 7) is support.naive_cyclic_leq(6, 5, 6, 7)
        assert pos_leq(6, 5, 6, 7) is False

    def test_total_order_exhaustive(self):
        for n in range(1, 7):
            for i in range(1, n + 1):
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        expected = support.naive_cyclic_leq(i, a, b, n)
                        assert pos_leq(i, a, b, n) is expected
                        # totality and antisymmetry
                        assert pos_leq(i, a, b, n) or pos_leq(i, b, a, n)
                        if a != b:
                            assert not (pos_leq(i, a, b, n) and pos_leq(i, b, a, n))

    def test_sorted_matches_rotation(self):
        assert sorted({1, 2, 5, 6}, key=lambda x: cyclic_pos(4, x, 7)) == [5, 6, 1, 2]


class TestGaleOrder:
    def test_example_on_five(self):
        assert gale_leq(1, {1, 2, 3, 4}, {1, 3, 4, 5}, 5) is True

    def test_reflexive(self):
        assert gale_leq(3, {2, 4}, {2, 4}, 5) is True

    def test_rotated_comparison(self):
        # sort both under 2 < 3 < 4 < 5 < 6 < 1 and compare slotwise
        assert gale_leq(2, {2, 3, 4, 5}, {3, 4, 5, 6}, 6) is True
        assert support.naive_gale_leq(2, {2, 3, 4, 5}, {3, 4, 5, 6}, 6) is True

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            gale_leq(1, {1, 2}, {1, 2, 3}, 5)

    def test_partial_order_exhaustive(self):
        # reflexive, antisymmetric, transitive on k-subsets, and equal to the
        # naive sorted-by-rotation comparison
        for n in range(1, 7):
            for k in range(0, min(n, 3) + 1):
                family = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
                for i in range(1, n + 1):
                    rel = {
                        (a, b): gale_leq(i, a, b, n)
                        for a in family
                        for b in family
                    }
                    for a in family:
                        assert rel[(a, a)]
                        for b in family:
                            assert rel[(a, b)] == support.naive_gale_leq(i, a, b, n)
                            if a != b and rel[(a, b)]:
                                assert not rel[(b, a)]
                            for c in family:
                                if rel[(a, b)] and rel[(b, c)]:
                                    assert rel[(a, c)]


class TestGaleMinMax:
    BASES = [{1, 2, 3, 4}, {1, 2, 3, 5}, {1, 2, 4, 5}, {1, 3, 4, 5}]

    def test_example_minimum_at_two(self):
        assert gale_min(2, self.BASES, 5) == {1, 2, 3, 4}

    def test_singleton_family(self):
        assert gale_min(4, [{2, 5}], 6) == {2, 5}
        assert gale_max(4, [{2, 5}], 6) == {2, 5}

    def test_uniform_minimum(self):
        # all 2-subsets of [4]: the minimum under <_3 starts at 3
        family = list(itertools.combinations(range(1, 5), 2))
        assert gale_min(3, family, 4) == {3, 4}

    def test_min_max_against_brute_force(self):
        # brute force: a Gale minimum is an element below all others
        for i in range(1, 6):
            family = [frozenset(c) for c in itertools.combinations(range(1, 6), 2)]
            expected = [a for a in family if all(support.naive_gale_leq(i, a, b, 5) for b in family)]
            assert len(expected) == 1
            assert gale_min(i, family, 5) == expected[0]

    def test_no_minimum_raises(self):
        # {1,4} and {2,3} are Gale-incomparable at i=1
        with pytest.raises(ValueError):
            gale_min(1, [{1, 4}, {2, 3}], 4)
        with pytest.raises(ValueError):
            gale_max(1, [{1, 4}, {2, 3}], 4)

    def test_empty_family_raises(self):
        with pytest.raises(ValueError):
            gale_min(1, [], 4)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


def _assert_same_outcome(i, family, n, maximum, strict_message=True):
    expected = _outcome(support.sorted_gale_extremum, i, family, n, maximum)
    got = _outcome(gale_max if maximum else gale_min, i, family, n)
    if isinstance(expected, ValueError):
        assert isinstance(got, ValueError), (i, family, got)
        if strict_message:
            assert str(got) == str(expected)
    else:
        assert got == expected, (i, family, got, expected)


class TestGaleKernelAgainstOracle:
    """gale_min/gale_max, read off prefix counts, against the sorted-tuple
    search in ``support``: the same set or the same refusal."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_family(self, data):
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(0, n))
        in_range = st.integers(1, n)
        element = st.one_of(in_range, st.integers(-1, n + 2), st.sampled_from([1.5, 2.0]), st.booleans())
        family = data.draw(
            st.one_of(
                st.lists(st.frozensets(in_range, min_size=k, max_size=k), max_size=8),
                st.lists(st.frozensets(element, max_size=4), max_size=6),
            )
        )
        # off-range, non-int or unequal-size members: any ValueError will do,
        # as the oracle's message depends on the order it meets them in
        well_formed = len(set(map(len, family))) <= 1 and all(
            type(x) is int and 1 <= x <= n for s in family for x in s
        )
        for i in range(1, n + 1):
            for maximum in (False, True):
                _assert_same_outcome(i, family, n, maximum, strict_message=well_formed)

    def test_families_beyond_rank_table_range(self):
        # n > 16, where Matroid.rank_table refuses: arcs of length 5 on [20]
        # have both extrema at every i; one extra member breaks some of them
        arcs = [frozenset((j + d) % 20 + 1 for d in range(5)) for j in range(20)]
        for family in (arcs, arcs + [frozenset({1, 3, 5, 7, 9})]):
            for i in range(1, 21):
                for maximum in (False, True):
                    _assert_same_outcome(i, family, 20, maximum)
        _assert_same_outcome(1, [frozenset({1, 24}), frozenset({2, 23})], 24, False)
        assert gale_min(17, [{1, 2}, {1, 3}, {2, 3}], 18) == {1, 2}
        assert gale_max(17, [{1, 2}, {1, 3}, {2, 3}], 18) == {2, 3}

    def test_refusals_keep_their_messages(self):
        with pytest.raises(ValueError, match="element 0 out of range 1..4"):
            gale_min(1, [{0, 1}], 4)
        with pytest.raises(ValueError, match="element 5 out of range 1..4"):
            gale_min(5, [{1}], 4)
        with pytest.raises(ValueError, match="equal-size subsets, got sizes 1 and 2"):
            gale_max(1, [{1}, {1, 2}], 4)
        with pytest.raises(ValueError, match="Gale maximum of an empty family"):
            gale_max(1, iter(()), 4)


class TestElementChecks:
    def test_members_are_checked_set_by_set(self):
        # the first bad member met is named, not the least one of the union
        with pytest.raises(ValueError, match=r"^element 7 out of range 1\.\.5$"):
            check_members((frozenset({1, 7}), frozenset({6})), 5)
        # a non-int equal to an int is named, not hidden behind the int
        with pytest.raises(ValueError, match=r"^element 2\.0 out of range 1\.\.5$"):
            check_members((frozenset({2}), frozenset({2.0})), 5)
        check_members((frozenset({1, 5}), frozenset()), 5)

    @pytest.mark.parametrize(
        "value, shown",
        [
            (10**20, "100000000000000000000"),
            (10**79, "1" + "0" * 79),
            (10**80, "10000000...00000000 of 81 characters"),
            (int("1" * 4300), "11111111...11111111 of 4300 characters"),
            ("y" * 100, "'yyyyyyyy...yyyyyyyy' of 100 characters"),
            (10**5000, "int of 16610 bits"),  # past repr's digit limit, so never converted
        ],
        ids=["20-digits", "80-digits", "81-digits", "4300-digits", "long-str", "5001-digits"],
    )
    def test_long_values_are_shortened(self, value, shown):
        with pytest.raises(ValueError) as exc:
            check_element(value, 5)
        assert str(exc.value) == f"element {shown} out of range 1..5"


class TestSameGround:
    @pytest.mark.parametrize(
        "check",
        [
            lambda: rank_cyclic_interval(uniform_dp(3, 6), CyclicInterval.arc(5, 1, 2)),
            lambda: uniform_dp(3, 6).necklace.contains_entrywise(uniform_dp(2, 5).necklace),
            lambda: shift_interval(uniform_dp(3, 6), uniform_dp(2, 5), 1),
            lambda: lpm_quotient_greedy(Lpm(5, {1}, {5}), Lpm(6, {1, 2}, {5, 6})),
            lambda: lpm_quotient_containment(Lpm(5, {1}, {5}), Lpm(6, {1, 2}, {5, 6})),
            lambda: is_quotient_rank(uniform_matroid(2, 5), uniform_matroid(3, 6)),
            lambda: is_quotient_circuits(uniform_matroid(2, 5), uniform_matroid(3, 6)),
            lambda: exists_shift(uniform_dp(3, 6), uniform_dp(2, 5)),
            lambda: oh_xiang_condition(uniform_dp(2, 5), uniform_dp(3, 6)),
            lambda: containment_check(uniform_dp(2, 5), uniform_dp(3, 6)),
        ],
        ids=[
            "rank_cyclic_interval",
            "contains_entrywise",
            "shift_interval",
            "lpm_quotient_greedy",
            "lpm_quotient_containment",
            "is_quotient_rank",
            "is_quotient_circuits",
            "exists_shift",
            "oh_xiang_condition",
            "containment_check",
        ],
    )
    def test_two_ground_sets_are_refused(self, check):
        with pytest.raises(ValueError, match="^ground-set mismatch$"):
            check()


class TestCyclicInterval:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((5, "wedge"), "unknown interval kind 'wedge'"),
            ((5, "empty", 1, 2), "empty interval takes no endpoints"),
            ((5, "full", 0, 3), "full interval takes no endpoints"),
        ],
    )
    def test_refusals(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CyclicInterval(*args)

    def test_wraparound_members(self):
        assert CyclicInterval.arc(7, 6, 3).members() == {6, 7, 1, 2, 3}

    def test_empty_and_full(self):
        assert CyclicInterval.empty(5).members() == frozenset()
        assert CyclicInterval.full(5).members() == {1, 2, 3, 4, 5}

    def test_paper_style_wrap_on_nine(self):
        assert CyclicInterval.arc(9, 9, 2).members() == {9, 1, 2}

    def test_half_open_convention(self):
        assert CyclicInterval.half_open(6, 4, 4).kind == "empty"
        assert CyclicInterval.half_open(6, 5, 1).members() == {6, 1}

    def test_cardinality_formula_exhaustive(self):
        for n in range(1, 9):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    iv = CyclicInterval.arc(n, a, b)
                    assert len(iv) == (b - a) % n + 1
                    assert len(iv) == len(iv.members())

    def test_arc_mask_matches_the_walked_arc(self):
        for n in range(1, 10):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    walked, x = {a}, a
                    while x != b:
                        x = x % n + 1
                        walked.add(x)
                    assert arc_mask(n, a, b) == mask_of(walked, n), (n, a, b)

    def test_membership_matches_members(self):
        iv = CyclicInterval.arc(8, 7, 2)
        for x in range(1, 9):
            assert (x in iv) == (x in iv.members())

    def test_json_round_trip(self):
        assert CyclicInterval.arc(6, 5, 2).to_json() == {"kind": "arc", "start": 5, "end": 2}


class TestCyclicComponents:
    def test_example_on_nine(self):
        comps = cyclic_components({1, 2, 4, 6, 7, 9}, 9)
        assert [(c.start, c.end) for c in comps] == [(4, 4), (6, 7), (9, 2)]

    def test_example_on_eight(self):
        comps = cyclic_components({1, 3, 5, 8}, 8)
        assert [(c.start, c.end) for c in comps] == [(3, 3), (5, 5), (8, 1)]

    def test_empty(self):
        assert cyclic_components(frozenset(), 5) == []

    def test_full_set_rejected(self):
        with pytest.raises(ValueError):
            cyclic_components({1, 2, 3}, 3)

    def test_partition_laws_exhaustive(self):
        for n in range(1, 9):
            for mask in range((1 << n) - 1):
                members = members_of(mask)
                comps = cyclic_components(members, n)
                rebuilt = set()
                for c in comps:
                    part = c.members()
                    assert not rebuilt & part, "parts must be disjoint"
                    rebuilt |= part
                assert rebuilt == set(members)
                # non-adjacent: no part ends immediately before another starts
                for c1 in comps:
                    for c2 in comps:
                        if c1 is not c2:
                            assert c1.end % n + 1 != c2.start
                assert [c.start for c in comps] == sorted(c.start for c in comps)


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
def test_mask_round_trip(pair):
    n, members = pair
    assert members_of(mask_of(members, n)) == frozenset(members)
