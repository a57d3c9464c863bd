"""Brute-force censuses and the q-binomial reference."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcount.groups import GroupType, OutOfRange
from subcount.oracle import (
    CENSUS_COST_LIMIT, DEFAULT_LIMIT, STAR_COST_LIMIT, CensusResult, CensusTooCostly,
    GroupTooLarge, RankTooLarge, census_cost, gaussian_binomial, star_census_cost,
    star_matrix_census, subgroup_census,
)
from subcount.polyring import IntPoly, ONE
from subcount.recurrence import count_hironaka


# largest weight drawn at each prime: orders stay at most 256, 243 and 125
WEIGHT_BOUND = {2: 8, 3: 5, 5: 3}


@st.composite
def small_groups(draw):
    p = draw(st.sampled_from(sorted(WEIGHT_BOUND)))
    budget = WEIGHT_BOUND[p]
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        if budget == 0:
            break
        part = draw(st.integers(1, budget))
        parts.append(part)
        budget -= part
    return GroupType(parts), p


class TestClosureCensus:
    def test_klein_four(self):
        res = subgroup_census((1, 1), 2)
        assert res.counts == (1, 3, 1)
        assert res.total == 5
        assert res.prime == 2
        assert res.group_type == GroupType((1, 1))

    def test_elementary_rank4(self):
        res = subgroup_census((1, 1, 1, 1), 2)
        assert res.counts == (1, 15, 35, 15, 1)
        assert res.total == 67

    def test_cyclic(self):
        assert subgroup_census((3,), 2).counts == (1, 1, 1, 1)
        assert subgroup_census((2,), 5).counts == (1, 1, 1)

    def test_trivial_group(self):
        assert subgroup_census((), 2).counts == (1,)

    def test_mixed_type_matches_recurrence(self):
        t = GroupType((1, 2))
        for p in (2, 3, 5):
            res = subgroup_census(t, p)
            for b, got in enumerate(res.counts):
                assert got == count_hironaka(t, b).eval_at(p)

    @settings(max_examples=40, deadline=None)
    @given(small_groups())
    def test_matches_recurrence_and_star(self, group):
        t, p = group
        counts = subgroup_census(t, p).counts
        assert counts == tuple(count_hironaka(t, b).eval_at(p)
                               for b in range(t.weight + 1))
        assert counts == star_matrix_census(t, p).counts

    def test_part_order_is_irrelevant(self):
        assert subgroup_census((2, 1), 2).counts == subgroup_census((1, 2), 2).counts

    def test_size_limit(self):
        with pytest.raises(GroupTooLarge):
            subgroup_census((13,), 2)
        with pytest.raises(GroupTooLarge):
            subgroup_census((1, 1), 2, limit=3)
        assert DEFAULT_LIMIT == 4096

    def test_cost_limit(self):
        # order 4096 passes the order limit, but (1^12) at p=2 has about
        # 4.9e11 subgroups
        t = (1,) * 12
        assert census_cost(t, 2) == 488_176_700_923 * 4096
        with pytest.raises(CensusTooCostly):
            subgroup_census(t, 2)
        assert issubclass(CensusTooCostly, GroupTooLarge)
        # the acceptance family's cover costs reach 6,000,000
        assert CENSUS_COST_LIMIT >= 6_000_000

    def test_prime_validated(self):
        with pytest.raises(ValueError):
            subgroup_census((1, 1), 4)
        with pytest.raises(ValueError):
            subgroup_census((1, 1), 1)

    def test_json_shape(self):
        data = subgroup_census((1, 1), 2).to_json()
        assert data == {"prime": 2, "type": [1, 1], "counts": [1, 3, 1], "total": 5}

    def test_equality(self):
        assert subgroup_census((1, 1), 2) == subgroup_census((1, 1), 2)
        assert subgroup_census((1, 1), 2) != subgroup_census((1, 1), 3)


class TestStarCensus:
    def test_matches_closure(self):
        for t in [(1,), (1, 1), (2, 1), (1, 1, 1), (1, 2, 2), (1, 1, 1, 1)]:
            for p in (2, 3):
                star = star_matrix_census(t, p)
                closure = subgroup_census(t, p)
                assert star.counts == closure.counts, (t, p)

    def test_matches_recurrence(self):
        t = GroupType((2, 3))
        res = star_matrix_census(t, 2)
        for b, got in enumerate(res.counts):
            assert got == count_hironaka(t, b).eval_at(2)

    def test_rank_limit(self):
        with pytest.raises(RankTooLarge):
            star_matrix_census((1, 1, 1, 1, 1), 2)

    def test_size_limit(self):
        with pytest.raises(GroupTooLarge):
            star_matrix_census((13,), 2)

    def test_size_limit_on_a_huge_group(self):
        for census in (subgroup_census, star_matrix_census):
            with pytest.raises(GroupTooLarge) as info:
                census((1000000,), 3)
            assert str(info.value) == (
                "group order 3^1000000 exceeds the enumeration limit 4096")

    def test_cost_limit(self):
        assert star_census_cost((1, 1, 1, 9), 2) > STAR_COST_LIMIT
        with pytest.raises(CensusTooCostly):
            star_matrix_census((1, 1, 1, 9), 2)

    def test_cost_estimate(self):
        # rank 1 never branches; higher columns contribute geometric sums
        assert star_census_cost((3,), 2) == 4
        assert star_census_cost((1, 1), 2) == 2 * 3
        assert star_census_cost((1, 1), 3) == 2 * 4

    def test_cost_tracks_enumeration_growth(self):
        small = star_census_cost((1, 1, 1), 2)
        big = star_census_cost((1, 1, 8), 2)
        assert big > 100 * small


class TestGaussianBinomial:
    def test_values(self):
        assert gaussian_binomial(4, 2) == IntPoly((1, 1, 2, 1, 1))
        assert gaussian_binomial(3, 1) == IntPoly((1, 1, 1))
        assert gaussian_binomial(5, 0) == ONE
        assert gaussian_binomial(5, 5) == ONE

    def test_symmetry(self):
        for d in range(0, 7):
            for b in range(0, d + 1):
                assert gaussian_binomial(d, b) == gaussian_binomial(d, d - b)

    def test_matches_elementary_count(self):
        for d in range(0, 7):
            t = GroupType((1,) * d)
            for b in range(0, d + 1):
                assert gaussian_binomial(d, b) == count_hironaka(t, b)

    def test_pascal_recurrence(self):
        # (d b) = (d-1 b-1) + p^b (d-1 b)
        p_to = IntPoly.term
        for d in range(1, 7):
            for b in range(1, d):
                lhs = gaussian_binomial(d, b)
                rhs = gaussian_binomial(d - 1, b - 1) + p_to(1, b) * gaussian_binomial(d - 1, b)
                assert lhs == rhs

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            gaussian_binomial(3, 4)
        with pytest.raises(OutOfRange):
            gaussian_binomial(3, -1)
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 0)


class TestCensusResult:
    def test_total_computed(self):
        res = CensusResult(2, (1, 1), (1, 3, 1))
        assert res.total == 5
        assert res.counts == (1, 3, 1)
