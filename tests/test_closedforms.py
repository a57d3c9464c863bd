"""Closed-form case tables against the recurrence."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from subcount.closedforms import (
    CASE6_SPECIALIZATIONS, MMM_TABLES, FormulaBug, FormulaResult, LinForm,
    OrderViolation, RANK3_TABLES, anyrank_case1, assemble_table, classify_rank2,
    classify_rank3, gaussian_binomial, leading_term_ccl, merge_table, rank2, rank3, rank3_applicable_cases,
    rank3_mmm, rank3_with_case, rank4_mmmm_b, rank4_mmmm_total, rank4_partial,
    rank4_total_ccl, standard_denominator, substitute_table,
    verify_case6_specializations,
)
from subcount.groups import GroupType, OutOfRange, RankMismatch
from subcount.polyring import IntPoly, ONE, ZERO
from subcount.recurrence import count_hironaka, total_count

L = LinForm.of


def types_of_rank(rank, max_part):
    for parts in itertools.combinations_with_replacement(range(1, max_part + 1), rank):
        yield GroupType(parts)


class TestLinForm:
    def test_eval(self):
        f = L(a1=2, b=-1, const=3)
        assert f.eval({"a1": 5, "a2": 0, "a3": 0, "b": 4, "m": 0}) == 9

    def test_subst_is_simultaneous(self):
        f = L(a1=1, b=1)
        g = f.subst({"a1": L(b=1), "b": L(a1=1)})
        assert g == L(a1=1, b=1)

    def test_equality_and_hash(self):
        assert L(a1=1) == L(a1=1)
        assert len({L(a1=1), L(a1=1), L(b=2)}) == 2


class TestTableHelpers:
    def test_standard_denominator(self):
        # (p - 1)(p^2 - 1) expanded
        assert standard_denominator(2) == IntPoly((1, -1, -1, 1))

    def test_merge_table_combines_equal_exponents(self):
        table = ((L(1), L(b=1)), (L(2), L(b=1)), (L(-3), L(b=1)))
        assert merge_table(table) == {}
        kept = merge_table(((L(1), L(b=1)), (L(2), L(b=1))))
        assert kept == {L(b=1): L(3)}

    def test_substitute_then_assemble(self):
        table = ((L(1), L(b=1)),)
        swapped = substitute_table(table, {"b": L(a1=1)})
        env = {"a1": 2, "a2": 0, "a3": 0, "b": 7, "m": 0}
        assert assemble_table(swapped, env) == IntPoly.term(1, 2)


def assemble_term_by_term(table, env):
    """Reference for assemble_table: one monomial added per nonzero term."""
    acc = IntPoly.zero()
    for coeff, exp in table:
        c = coeff.eval(env)
        if c:
            acc = acc + IntPoly.term(c, exp.eval(env))
    return acc


lin_forms = st.builds(LinForm, st.tuples(*[st.integers(-2, 3)] * 4), st.integers(-3, 9))
term_tables = st.lists(st.tuples(lin_forms, lin_forms), max_size=10).map(tuple)
envs = st.fixed_dictionaries({name: st.integers(0, 6) for name in LinForm.VARS})


class TestAssembleTable:
    @given(term_tables, envs)
    @settings(max_examples=300, deadline=None)
    def test_matches_term_by_term(self, table, env):
        try:
            want = assemble_term_by_term(table, env)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                assemble_table(table, env)
            assert str(info.value) == str(exc)
        else:
            assert assemble_table(table, env) == want

    def test_cancelling_terms_give_zero(self):
        env = {"a1": 2, "a2": 3, "a3": 5, "b": 4}
        table = ((L(1), L(2, b=1)), (L(0, a1=1), L(1)), (L(-1), L(6)),
                 (L(-2), L(1)), (L(0, a1=-1, a3=1), L(0)), (L(-3), L()))
        assert assemble_term_by_term(table, env) == ZERO
        assert assemble_table(table, env) == ZERO

    def test_negative_exponent_raises(self):
        env = {"a1": 2, "a2": 3, "a3": 5, "b": 4}
        table = ((L(1), L(3)), (L(2), L(-1, a1=1, b=-1)))
        for assemble in (assemble_term_by_term, assemble_table):
            with pytest.raises(ValueError, match="exponent must be nonnegative, got -3"):
                assemble(table, env)
        # a zero coefficient leaves its exponent unread, as before
        assert assemble_table(((L(0), L(-1)),), env) == ZERO


class TestRank2:
    def test_middle_case(self):
        res = rank2((1, 1), 1)
        assert res.covered and res.value == IntPoly((1, 1))
        assert str(res.case) == "rank2 Case 1"
        assert str(rank2((1, 3), 2).case) == "rank2 Case 2"

    def test_all_cases_match_recurrence(self):
        for t in types_of_rank(2, 5):
            for b in range(0, t.weight + 1):
                res = rank2(t, b)
                assert res.covered
                assert res.value == count_hironaka(t, b), (t, b)

    def test_classifier(self):
        # (2, 4): below, inside, above the two parts
        assert classify_rank2((2, 4), 1).case == 1
        assert classify_rank2((2, 4), 3).case == 2
        assert classify_rank2((2, 4), 5).case == 3

    def test_rank_checked(self):
        with pytest.raises(RankMismatch):
            rank2((1, 1, 1), 0)


class TestRank3:
    def test_case2_worked_example(self):
        res = rank3((1, 2, 3), 2)
        assert res.value == IntPoly((1, 1, 2, 1))
        assert str(res.case) == "rank3 Case 2"

    def test_all_cases_match_recurrence(self):
        seen = set()
        for t in types_of_rank(3, 5):
            for b in range(0, t.weight + 1):
                res = rank3(t, b)
                assert res.covered
                assert res.value == count_hironaka(t, b), (t, b)
                seen.add(res.case.case)
        assert seen == set(range(1, 11))

    def test_overlapping_cases_agree(self):
        for t in types_of_rank(3, 4):
            for b in range(0, t.weight + 1):
                cases = rank3_applicable_cases(t, b)
                values = {rank3_with_case(t, b, k).value for k in cases}
                assert len(values) == 1, (t, b, cases)

    def test_case6_specializations(self):
        assert verify_case6_specializations() == []
        assert sorted(CASE6_SPECIALIZATIONS) == [1, 2, 3, 4, 5, 7, 8, 9, 10]

    def test_perturbed_table_raises(self):
        # breaking one coefficient must surface as a division failure,
        # not as a silently wrong polynomial
        target = None
        for t in types_of_rank(3, 4):
            for b in range(0, t.weight + 1):
                if classify_rank3(t, b).case == 6:
                    target = (t, b)
                    break
            if target:
                break
        assert target is not None
        original = RANK3_TABLES[6]
        coeff, expo = original[0]
        bumped = LinForm(coeff.coeffs, coeff.const + 1)
        RANK3_TABLES[6] = ((bumped, expo),) + original[1:]
        try:
            with pytest.raises(FormulaBug) as info:
                rank3(*target)
            assert "rank3 Case 6" in str(info.value)
            t, b = target
            env = dict(zip(("a1", "a2", "a3", "b"), (*t.parts, b)))
            _, remainder = assemble_term_by_term(RANK3_TABLES[6], env).divmod(
                standard_denominator(2))
            assert info.value.remainder == remainder
        finally:
            RANK3_TABLES[6] = original
        assert verify_case6_specializations() == []


class TestEqualParts:
    def test_mmm_matches_recurrence(self):
        for m in range(1, 5):
            t = GroupType((m, m, m))
            for b in range(0, 3 * m + 1):
                res = rank3_mmm(m, b)
                assert res.covered
                assert res.value == count_hironaka(t, b), (m, b)

    def test_mmm_agrees_with_general_rank3(self):
        for m in range(1, 4):
            for b in range(0, 3 * m + 1):
                assert rank3_mmm(m, b).value == rank3((m, m, m), b).value

    def test_mmm_tables_are_rank3_tables_at_equal_parts(self):
        # symbolic, so it holds for every m, not only the m evaluated above
        equal = {"a2": L(a1=1), "a3": L(a1=1)}
        for j, k in ((1, 1), (2, 6), (3, 10)):
            specialized = substitute_table(RANK3_TABLES[k], equal)
            assert merge_table(specialized) == merge_table(MMM_TABLES[j]), (j, k)

    def test_mmm_bounds(self):
        with pytest.raises(ValueError):
            rank3_mmm(0, 0)
        with pytest.raises(OutOfRange):
            rank3_mmm(2, 7)

    def test_mmmm_matches_recurrence(self):
        for m in range(1, 5):
            t = GroupType((m, m, m, m))
            for b in range(0, 4 * m + 1):
                res = rank4_mmmm_b(m, b)
                assert res.covered
                assert res.value == count_hironaka(t, b), (m, b)

    def test_mmmm_total_matches_sum(self):
        for m in range(1, 5):
            total = rank4_mmmm_total(m)
            assert total == total_count((m, m, m, m))
            assert total.degree() == 4 * m
            assert total.leading_coeff() == 1

    def test_mmmm_total_at_two(self):
        assert rank4_mmmm_total(1).eval_at(2) == 67


class TestRank4Partial:
    def test_covered_intervals_match_recurrence(self):
        covered = 0
        for t in types_of_rank(4, 4):
            for b in range(0, t.weight + 1):
                res = rank4_partial(t, b)
                if res.covered:
                    covered += 1
                    assert res.value == count_hironaka(t, b), (t, b)
        assert covered > 0

    def test_reflected_interval(self):
        # b near the weight is served through the mirror index
        t = GroupType((1, 2, 3, 4))
        res = rank4_partial(t, 9)
        assert res.covered
        assert res.value == count_hironaka(t, 9)

    def test_gap_reports_miss(self):
        # the middle of a spread-out type is outside every interval,
        # directly and after reflection
        t = GroupType((1, 1, 4, 4))
        res = rank4_partial(t, 5)
        assert not res.covered
        assert res.value is None and res.case is None

    def test_rank_checked(self):
        with pytest.raises(RankMismatch):
            rank4_partial((1, 1, 1), 0)

    @pytest.mark.parametrize("b", [-1, 7])
    def test_out_of_range(self, b):
        # outside [0, m] is an error, as in every other closed form; a gap
        # inside it is a miss
        with pytest.raises(OutOfRange):
            rank4_partial((1, 1, 2, 2), b)


class TestChainTotals:
    def test_matches_recurrence(self):
        for w, x, y, z in itertools.combinations_with_replacement(range(1, 4), 4):
            assert rank4_total_ccl(w, x, y, z) == total_count((w, x, y, z))

    def test_leading_term(self):
        for w, x, y, z in itertools.combinations_with_replacement(range(1, 4), 4):
            coeff, degree = leading_term_ccl(w, x, y, z)
            total = rank4_total_ccl(w, x, y, z)
            assert total.degree() == degree
            assert total.leading_coeff() == coeff

    def test_spot_leading(self):
        assert leading_term_ccl(1, 1, 2, 3) == (2, 5)

    def test_chain_validation(self):
        with pytest.raises(OrderViolation):
            rank4_total_ccl(2, 1, 1, 1)
        with pytest.raises(OrderViolation):
            rank4_total_ccl(0, 1, 1, 1)
        with pytest.raises(OrderViolation):
            leading_term_ccl(1, 1, True, 2)

    def test_agrees_with_mmmm_total(self):
        for m in range(1, 4):
            assert rank4_total_ccl(m, m, m, m) == rank4_mmmm_total(m)


class TestAnyRank:
    def test_low_b_all_ranks(self):
        for rank in range(2, 7):
            for t in types_of_rank(rank, 3):
                a1 = t.parts[0]
                for b in range(0, a1 + 1):
                    res = anyrank_case1(t, b)
                    assert res.covered and res.case.case == 1
                    assert res.value == count_hironaka(t, b), (t, b)

    def test_high_b_by_reflection(self):
        for rank in range(2, 7):
            for t in types_of_rank(rank, 3):
                a1, m = t.parts[0], t.weight
                for b in range(m - a1, m + 1):
                    res = anyrank_case1(t, b)
                    assert res.covered
                    if b > a1:
                        assert res.case.case == 2
                    assert res.value == count_hironaka(t, b), (t, b)

    def test_middle_miss(self):
        res = anyrank_case1((1, 3, 3), 3)
        assert not res.covered

    def test_rank_one_and_zero(self):
        assert anyrank_case1((4,), 2).value == ONE
        assert anyrank_case1((), 0).value == ONE

    def test_gaussian_shape_for_elementary(self):
        # on (1,...,1) with b = 1 the product is 1 + p + ... + p^(d-1)
        res = anyrank_case1((1, 1, 1, 1), 1)
        assert res.value == IntPoly((1, 1, 1, 1))


class TestFormulaResult:
    def test_miss(self):
        res = FormulaResult.miss()
        assert not res.covered
        assert res.value is None and res.case is None


# every public closed form that takes an order index, with a valid type or m
B_TAKERS = [(rank2, (1, 2)), (rank3, (1, 2, 3)), (rank3_mmm, 2),
            (rank4_partial, (1, 1, 2, 2)), (rank4_mmmm_b, 1), (anyrank_case1, (1, 2, 3))]


@pytest.mark.parametrize("b", [1.5, 1.0, True])
@pytest.mark.parametrize("fn, t", B_TAKERS, ids=[fn.__name__ for fn, _ in B_TAKERS])
def test_order_index_must_be_an_int(fn, t, b):
    # rank2 case 2 never reads b, so rank2((1, 2), 1.5) once returned p + 1
    with pytest.raises(TypeError, match="b must be an int"):
        fn(t, b)


@pytest.mark.parametrize("call, name", [
    (lambda: rank3_mmm(True, 1), "m"),
    (lambda: rank3_mmm(1.5, 2), "m"),
    (lambda: rank4_mmmm_b(2.0, 3), "m"),
    (lambda: rank4_mmmm_total(True), "m"),
    (lambda: rank4_mmmm_total(2.0), "m"),
    (lambda: gaussian_binomial(True, 1), "d"),
    (lambda: gaussian_binomial(4.0, 1), "d"),
    (lambda: gaussian_binomial(4, 1.5), "b"),
    (lambda: gaussian_binomial(4, True), "b"),
], ids=["rank3_mmm-bool", "rank3_mmm-float", "rank4_mmmm_b-float",
        "rank4_mmmm_total-bool", "rank4_mmmm_total-float", "gaussian-bool-d",
        "gaussian-float-d", "gaussian-float-b", "gaussian-bool-b"])
def test_sizes_must_be_ints(call, name):
    # a bool m once answered as m=1 and a float failed deep in IntPoly
    with pytest.raises(TypeError, match="%s must be an int" % name):
        call()


def test_case_by_number_needs_an_int_order_index():
    with pytest.raises(TypeError, match="b must be an int"):
        rank3_with_case((1, 2, 3), 1.5, 2)
