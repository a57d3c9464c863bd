"""Group types, the rank-3 case choice and the immutable value types."""
import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from subcount.closedforms import (
    CASE_RANGES, CaseId, FormulaResult, LinForm, rank2, rank3,
    rank3_applicable_cases, rank3_with_case,
)
from subcount.groups import GroupType, NegativePart, OutOfRange, RankMismatch
from subcount.oracle import CensusResult


types3 = st.lists(st.integers(1, 6), min_size=3, max_size=3).map(GroupType)


class TestGroupType:
    def test_sorts_ascending(self):
        assert GroupType((3, 1, 2)).parts == (1, 2, 3)

    def test_drops_zero_parts(self):
        assert GroupType((0, 2, 0, 1)).parts == (1, 2)
        assert GroupType((0, 0)).parts == ()

    def test_rejects_negative_parts(self):
        with pytest.raises(NegativePart):
            GroupType((1, -1))

    def test_rejects_non_int_parts(self):
        for parts in ((1.5,), ("1",)):
            with pytest.raises(TypeError, match="type part must be an int"):
                GroupType(parts)

    def test_rank_and_weight(self):
        t = GroupType((1, 2, 2))
        assert t.rank == 3
        assert t.weight == 5
        assert len(t) == 3
        assert list(t) == [1, 2, 2]

    def test_descending(self):
        assert GroupType((1, 2, 3)).descending() == (3, 2, 1)
        assert GroupType(()).descending() == ()

    def test_accepts_group_type(self):
        t = GroupType((2, 1))
        assert GroupType(t) == t

    def test_str_shows_descending(self):
        assert str(GroupType((1, 2, 3))) == "(3, 2, 1)"

    def test_canonicalize(self):
        # any iterable of parts, in any order, with zeros
        assert GroupType(iter([2, 0, 1])) == GroupType((1, 2))

    def test_hashable(self):
        assert len({GroupType((1, 2)), GroupType((2, 1))}) == 1


class TestCaseId:
    def test_valid(self):
        c = CaseId("rank3", 10)
        assert c.family == "rank3"
        assert c.case == 10
        assert str(c) == "rank3 Case 10"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            CaseId("rank7", 1)

    def test_case_out_of_range(self):
        with pytest.raises(ValueError):
            CaseId("rank3", 11)
        with pytest.raises(ValueError):
            CaseId("rank2", 0)

    def test_every_range_is_positive(self):
        for family, hi in CASE_RANGES.items():
            assert hi >= 1
            CaseId(family, hi)

    @pytest.mark.parametrize("case", [True, 1.0, 2.5])
    def test_case_must_be_an_int(self, case):
        message = "case must be an int, got %r" % (case,)
        with pytest.raises(TypeError) as raised:
            CaseId("rank3", case)
        assert str(raised.value) == message
        with pytest.raises(TypeError) as raised:
            rank3_with_case((1, 2, 3), 1, case)
        assert str(raised.value) == message


class TestClassifier:
    def test_known_cases(self):
        t = GroupType((1, 2, 3))
        assert rank3(t, 0).case.case == 1
        assert rank3(t, 2).case.case == 2
        assert rank3(t, 3).case.case == 3
        assert rank3(t, 6).case.case == 10

    def test_all_ten_cases_reachable(self):
        seen = set()
        for a1 in range(1, 6):
            for a2 in range(a1, 6):
                for a3 in range(a2, 6):
                    t = GroupType((a1, a2, a3))
                    for b in range(0, t.weight + 1):
                        seen.add(rank3(t, b).case.case)
        assert seen == set(range(1, 11))

    def test_lowest_case_wins(self):
        t = GroupType((1, 2, 3))
        for b in range(0, t.weight + 1):
            cases = rank3_applicable_cases(t, b)
            assert rank3(t, b).case.case == min(cases)

    @given(types3, st.integers(0, 18))
    def test_total_coverage(self, t, b):
        if b > t.weight:
            b = b % (t.weight + 1)
        cases = rank3_applicable_cases(t, b)
        assert cases, (t, b)
        assert all(1 <= c <= 10 for c in cases)
        assert cases == sorted(cases)

    def test_non_rank3_rejected(self):
        with pytest.raises(RankMismatch):
            rank3(GroupType((1, 2)), 0)

    def test_b_outside_range_rejected(self):
        with pytest.raises(OutOfRange):
            rank3(GroupType((1, 1, 1)), 4)
        with pytest.raises(OutOfRange):
            rank3(GroupType((1, 1, 1)), -1)


# one value of each immutable value type, with one of its fields
VALUES = [
    pytest.param(GroupType((2, 1)), "parts", id="GroupType"),
    pytest.param(CaseId("rank3", 1), "case", id="CaseId"),
    pytest.param(rank2((1, 2), 1), "value", id="FormulaResult"),
    pytest.param(FormulaResult.miss(), "covered", id="FormulaResult-miss"),
    pytest.param(CensusResult(2, (1, 1), (1, 3, 1)), "counts", id="CensusResult"),
    pytest.param(LinForm((1, 0, 0, -1), 2), "const", id="LinForm"),
]


class TestValueTypes:
    def test_equal_results_compare_equal(self):
        assert rank2((1, 1), 1) == rank2((1, 1), 1)

    @pytest.mark.parametrize("value, field", VALUES)
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))

    def test_group_type_of_a_group_type_is_itself(self):
        t = GroupType((2, 1))
        assert GroupType(t) is t

    def test_group_type_equals_its_ascending_parts(self):
        assert GroupType((2, 1)) == (1, 2)
        assert GroupType((2, 1)) != (2, 1)

    def test_lin_form_coerces_its_coefficients(self):
        form = LinForm([1, 0, 0, 0])
        assert form == LinForm((1, 0, 0, 0))
        assert {form: "a1"}[LinForm((1, 0, 0, 0))] == "a1"

    @pytest.mark.parametrize("value, field", VALUES)
    def test_pickle_and_deepcopy_round_trip(self, value, field):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value
            assert type(copied) is type(value)
