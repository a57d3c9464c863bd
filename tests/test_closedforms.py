"""Closed-form case tables against the recurrence."""
import itertools
from contextlib import contextmanager
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from subcount import closedforms
from subcount.closedforms import (
    CASE6_SPECIALIZATIONS, CATALOGS, CHAMBERS, MMM_TABLES, CaseId, CaseTable, FormulaBug,
    FormulaResult, LinForm, OrderViolation, RANK3_TABLES, _divide, _evaluate, _pm1_product,
    _poly, _terms, anyrank_case1, closed_form, gaussian_binomial, leading_term_ccl,
    merge_table, rank2, rank3, rank3_applicable_cases, rank3_mmm, rank3_with_case,
    rank4_mmmm_b, rank4_mmmm_total, rank4_partial, rank4_total_ccl,
    substitute_table, verify_case6_specializations,
)
from subcount.groups import GroupType, OutOfRange, RankMismatch
from subcount.polyring import IntPoly, ONE, ZERO, slot_width
from subcount.recurrence import MemoTable, count_hironaka, count_stehling, total_count

L = LinForm.of


def types_of_rank(rank, max_part):
    for parts in itertools.combinations_with_replacement(range(1, max_part + 1), rank):
        yield GroupType(parts)


class TestLinForm:
    def test_eval(self):
        f = L(a1=2, b=-1, const=3)
        assert f.subst({"a1": L(5), "a2": L(0), "a3": L(0), "b": L(4)}) == L(9)

    def test_subst_is_simultaneous(self):
        f = L(a1=1, b=1)
        g = f.subst({"a1": L(b=1), "b": L(a1=1)})
        assert g == L(a1=1, b=1)

    def test_equality_and_hash(self):
        assert L(a1=1) == L(a1=1)
        assert len({L(a1=1), L(a1=1), L(b=2)}) == 2


class TestTableHelpers:
    def test_standard_denominator(self):
        # (p - 1)(p^2 - 1) expanded, the denominator of every rank-3 table
        assert _pm1_product(range(1, 3)) == pm1_product(range(1, 3)) == IntPoly((1, -1, -1, 1))

    def test_merge_table_combines_equal_exponents(self):
        table = ((L(1), L(b=1)), (L(2), L(b=1)), (L(-3), L(b=1)))
        assert merge_table(table) == {}
        kept = merge_table(((L(1), L(b=1)), (L(2), L(b=1))))
        assert kept == {L(b=1): L(3)}

    def test_substitute_then_assemble(self):
        table = ((L(1), L(b=1)),)
        swapped = substitute_table(table, {"b": L(a1=1)})
        assert table_numerator(swapped, env_at((2,), 7)) == IntPoly.term(1, 2)


def table_numerator(table, env):
    """The evaluator's numerator: _terms at env, summed by _poly."""
    return _poly(_terms(table, env["a1"], env["a2"], env["a3"], env["b"]))


def assemble_term_by_term(table, env):
    """Reference for table_numerator: one monomial added per nonzero term,
    each form evaluated by substituting constant forms for its variables."""
    consts = {name: L(v) for name, v in env.items()}
    acc = IntPoly.zero()
    for coeff, exp in table:
        c = coeff.subst(consts).const
        if c:
            acc = acc + IntPoly.term(c, exp.subst(consts).const)
    return acc


def env_at(parts, b):
    """The table variables at ascending parts and b; a part past the rank reads 0."""
    a1, a2, a3 = (*parts, 0, 0)[:3]
    return {"a1": a1, "a2": a2, "a3": a3, "b": b}


@contextmanager
def swapped_table(family, case_no, table):
    """Put table, built as a CaseTable, in the catalog as the case, restoring
    the original on exit."""
    tables = CATALOGS[family]
    original = tables[case_no]
    tables[case_no] = CaseTable(table)
    try:
        yield
    finally:
        tables[case_no] = original


def perturbed(table, field):
    """The table with 1 added to the coefficient or exponent constant of its first term."""
    coeff, expo = table[0]
    if field == "coefficient":
        coeff = LinForm(coeff.coeffs, coeff.const + 1)
    else:
        expo = LinForm(expo.coeffs, expo.const + 1)
    return ((coeff, expo),) + table[1:]


def assert_perturbation_raises(family, case_no, field, evaluate, t, b):
    """Add 1 to the coefficient or exponent constant of a table's first term.

    evaluate(t, b) answers once with the table as it is, so any table the
    evaluator keeps is kept; with the perturbed table swapped in, it must
    then raise FormulaBug naming the case, with the remainder of the long
    division by the standard denominator.
    """
    assert evaluate(t, b).case == CaseId(family, case_no)
    table = perturbed(CATALOGS[family][case_no], field)
    with swapped_table(family, case_no, table):
        with pytest.raises(FormulaBug, match="did not divide exactly") as info:
            evaluate(t, b)
    numerator = assemble_term_by_term(table, env_at(t, b))
    _, remainder = numerator.divmod(pm1_product(range(1, len(t))))
    assert str(CaseId(family, case_no)) in str(info.value)
    assert info.value.remainder == remainder and not remainder.is_zero


lin_forms = st.builds(LinForm, st.tuples(*[st.integers(-2, 3)] * 4), st.integers(-3, 9))
term_tables = st.lists(st.tuples(lin_forms, lin_forms), max_size=10).map(tuple)
envs = st.fixed_dictionaries({name: st.integers(0, 6) for name in LinForm.VARS})


class TestAssembleTable:
    @given(term_tables, envs)
    # exponent -1, the first value a check off by one lets through
    @example(((L(1), L(3)), (L(2), L(1, a1=1, b=-1))), {"a1": 2, "a2": 3, "a3": 5, "b": 4})
    @settings(max_examples=300, deadline=None)
    def test_matches_term_by_term(self, table, env):
        try:
            want = assemble_term_by_term(table, env)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                table_numerator(table, env)
            assert str(info.value) == str(exc)
        else:
            assert table_numerator(table, env) == want

    def test_cancelling_terms_give_zero(self):
        env = {"a1": 2, "a2": 3, "a3": 5, "b": 4}
        table = ((L(1), L(2, b=1)), (L(0, a1=1), L(1)), (L(-1), L(6)),
                 (L(-2), L(1)), (L(0, a1=-1, a3=1), L(0)), (L(-3), L()))
        assert assemble_term_by_term(table, env) == ZERO
        assert table_numerator(table, env) == ZERO

    def test_negative_exponent_raises(self):
        env = {"a1": 2, "a2": 3, "a3": 5, "b": 4}
        # 1 + a1 - b = -1 in the second table: the last exponent the check must refuse
        for const, exponent in ((-1, -3), (1, -1)):
            table = ((L(1), L(3)), (L(2), L(const, a1=1, b=-1)))
            message = "exponent must be nonnegative, got %d$" % exponent
            with pytest.raises(ValueError, match=message):
                assemble_term_by_term(table, env)
            with pytest.raises(ValueError, match=message):
                _terms(table, 2, 3, 5, 4)
        # a zero coefficient leaves its exponent unread, as before
        assert _terms(((L(0), L(-1)),), 2, 3, 5, 4) == []


def pm1(i):
    return IntPoly.term(1, i) - 1


small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=12))
# quotients the kernel takes: coefficients in [0, BOUND]
BOUND = 9
bounded_polys = st.builds(IntPoly, st.lists(st.integers(0, BOUND), max_size=12))


def divide(f, steps, bound=BOUND):
    """_divide on the polynomial f."""
    return _divide(f, tuple(steps), bound, "test")


def pm1_product(steps):
    den = IntPoly.one()
    for i in steps:
        den = den * pm1(i)
    return den


def assert_divides_like_divmod(f, steps, bound=BOUND):
    """An exact quotient with coefficients in [0, bound] comes back; anything
    else raises FormulaBug with IntPoly.divmod's remainder."""
    quotient, remainder = f.divmod(pm1_product(steps))
    if remainder.is_zero and all(0 <= c <= bound for c in quotient.coeffs):
        assert divide(f, steps, bound) == quotient
    else:
        with pytest.raises(FormulaBug) as info:
            divide(f, steps, bound)
        assert info.value.case == "test" and info.value.remainder == remainder


class TestDividePm1:
    """Division by products of p**i - 1: the packed kernel against IntPoly.divmod."""

    @given(bounded_polys, st.integers(1, 6))
    @example(ZERO, 3)
    def test_exact_multiples(self, g, i):
        assert divide(g * pm1(i), (i,)) == g

    @given(small_polys, st.integers(1, 6))
    @example(ZERO, 4)
    @example(IntPoly((2, 0, -1)), 3)
    @example(IntPoly((0, 0, 0, 0, 0, 7)), 6)
    # exact, but the quotient 1 - p has a negative coefficient: FormulaBug
    # with a zero remainder
    @example(IntPoly((-1, 1, 1, -1)), 2)
    # exact, but the quotient 10 is above the bound: the same
    @example(IntPoly((-10, 0, 0, 10)), 3)
    # 2**64 - 1 is p - 1 at p = 2**64: only the l1 check refuses it
    @example(IntPoly((2 ** 64 - 1,)), 1)
    def test_remainder_exactly_when_divmod_has_one(self, f, i):
        _, remainder = f.divmod(pm1(i))
        assert_divides_like_divmod(f, (i,))
        if not remainder.is_zero:
            with pytest.raises(FormulaBug, match="did not divide exactly"):
                divide(f, (i,))

    @given(small_polys, st.lists(st.integers(1, 6), min_size=1, max_size=4))
    @example(IntPoly((-1, 1, 1, -1)), [2, 1])
    @settings(max_examples=60)
    def test_divide_answers_like_divmod(self, f, steps):
        assert_divides_like_divmod(f, steps)

    @pytest.mark.parametrize("i", range(1, 7))
    def test_zero_and_low_degree_numerators(self, i):
        assert divide(ZERO, (i,)) == ZERO
        for degree in range(i):
            assert_divides_like_divmod(IntPoly.term(5, degree), (i,))

    @given(bounded_polys, st.lists(st.integers(1, 6), max_size=4))
    @example(IntPoly((1, 2, 3)), [2, 2, 3, 3])
    @settings(max_examples=60)
    def test_several_factors(self, g, steps):
        den = pm1_product(steps)
        assert divide(g * den, steps) == g
        if steps:
            # every p**i - 1 vanishes at p = 1, and g * den + 1 does not
            assert_divides_like_divmod(g * den + 1, steps)

    def test_slots_of_several_words(self):
        # 2**130 + 5 takes 131 bits, so the slots are three words
        g = IntPoly((2 ** 64, 1, 2 ** 130 + 5))
        for steps in [(1,), (2, 2, 3, 3)]:
            assert divide(g * pm1_product(steps), steps, 2 ** 130 + 5) == g
            assert_divides_like_divmod(g * pm1_product(steps), steps, 2 ** 130 + 4)
        # (p - 1)**3 has l1 norm 8, so a quotient digit of 2**62 needs 2**65
        # in a slot of the product: the slots are two words
        assert divide(IntPoly((2 ** 62,)) * pm1_product((1, 1, 1)), (1, 1, 1),
                      2 ** 62) == IntPoly((2 ** 62,))


def two_pass(table, env, steps, bound):
    """The evaluator's route before it took one pass: _terms lists the terms,
    _poly sums them, then _divide walks the sum again."""
    terms = _terms(table, env["a1"], env["a2"], env["a3"], env["b"])
    return _divide(_poly(terms), steps, bound, "test")


def one_pass(table, env, steps, bound):
    return _evaluate(CaseTable(table), env["a1"], env["a2"], env["a3"], env["b"], steps, bound,
                     "test")


def outcome(route, *args):
    """What a route gives: its value, or what it raised with the fields that name it."""
    try:
        return route(*args)
    except ValueError as exc:
        return ValueError, str(exc)
    except FormulaBug as exc:
        return FormulaBug, str(exc), exc.case, exc.remainder


steps_lists = st.sampled_from([(), (1,), (1, 2), (1, 2, 3)])


@st.composite
def exact_tables(draw):
    """(table, env, steps): a table whose terms at env sum to g * prod(p**i - 1)
    for a g with coefficients in [0, BOUND], each form reading a variable."""
    env, steps = draw(envs), draw(steps_lists)
    numerator = draw(bounded_polys) * pm1_product(steps)
    table = []
    for e, c in enumerate(numerator.coeffs):
        # c and e, written as k * v + (c - k * env[v]) for a drawn variable v
        k, j = draw(st.integers(-2, 2)), draw(st.integers(0, 2))
        v, w = draw(st.sampled_from(LinForm.VARS)), draw(st.sampled_from(LinForm.VARS))
        table.append((L(c - k * env[v], **{v: k}), L(e - j * env[w], **{w: j})))
    return tuple(draw(st.permutations(table))), env, steps


class TestOnePass:
    """_evaluate against the two-pass route it replaced."""

    @given(term_tables, envs, steps_lists, st.integers(0, 40))
    # exponent -1 in the second term: both raise the same ValueError
    @example(((L(1), L(3)), (L(2), L(1, a1=1, b=-1))), {"a1": 2, "a2": 3, "a3": 5, "b": 4},
             (1, 2), BOUND)
    # a right table at a query it answers
    @example(RANK3_TABLES[6], {"a1": 1, "a2": 1, "a3": 1, "b": 2}, (1, 2), comb(6, 3))
    # 2**64 - 1 is p - 1 at p = 2**64: only the l1 guard refuses it, whether
    # the coefficient is a constant or reads a variable
    @example(((L(2 ** 64 - 1), L()),), {"a1": 1, "a2": 0, "a3": 0, "b": 0}, (1,), BOUND)
    @example(((L(2 ** 64 - 2, a1=1), L()),), {"a1": 1, "a2": 0, "a3": 0, "b": 0}, (1,), BOUND)
    # a zero coefficient leaves its negative exponent unread
    @example(((L(0), L(-1)), (L(1), L(1)), (L(-1), L())), {"a1": 1, "a2": 0, "a3": 0, "b": 0},
             (1,), BOUND)
    # the first term with a negative exponent is named, whichever the evaluator reads first
    @example(((L(1), L(-2)), (L(0, a1=1), L(-1))), {"a1": 2, "a2": 3, "a3": 5, "b": 4},
             (1,), BOUND)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_pass_route(self, table, env, steps, bound):
        assert outcome(one_pass, table, env, steps, bound) == outcome(
            two_pass, table, env, steps, bound)

    @given(exact_tables())
    @settings(max_examples=200, deadline=None)
    def test_exact_tables_divide_on_both_routes(self, drawn):
        table, env, steps = drawn
        want = assemble_term_by_term(table, env).exact_div(pm1_product(steps))
        assert one_pass(table, env, steps, BOUND) == two_pass(table, env, steps, BOUND) == want


def catalog_queries():
    """(result, ascending parts, b) for every catalog case each closed form
    evaluates, at parts <= 6 and equal parts m <= 6; rank3 gives every case
    that admits (t, b), rank4_partial only the b its intervals take unmirrored."""
    for t in types_of_rank(2, 6):
        for b in range(t.weight + 1):
            yield rank2(t, b), t, b
    for t in types_of_rank(3, 6):
        for b in range(t.weight + 1):
            for k in rank3_applicable_cases(t, b):
                yield rank3_with_case(t, b, k), t, b
    for t in types_of_rank(4, 6):
        for b in range(t.weight + 1):
            if any(CHAMBERS["rank4-partial"](*t[:3], b)):
                yield rank4_partial(t, b), t, b
    for m in range(1, 7):
        for b in range(3 * m + 1):
            yield rank3_mmm(m, b), (m,) * 3, b
        for b in range(4 * m + 1):
            yield rank4_mmmm_b(m, b), (m,) * 4, b


ALL_CASES = [CaseId(family, k) for family, tables in CATALOGS.items() for k in sorted(tables)]
# the cases whose tables are one object, each way round
ALIASES = [(CaseId(*x), CaseId(*y)) for pair in [
    (("rank3-mmm", 1), ("rank3", 1)), (("rank4-mmmm", 1), ("rank4-partial", 1)),
    (("rank3", 4), ("rank3", 3))] for x, y in (pair, pair[::-1])]
# family -> evaluate(t, b, case_no): the family's closed form at (t, b), which
# answers with case case_no when it is the lowest case admitting b
EVALUATORS = {
    "rank2": lambda t, b, k: rank2(t, b),
    "rank3": rank3_with_case,
    "rank3-mmm": lambda t, b, k: rank3_mmm(t[0], b),
    "rank4-partial": lambda t, b, k: rank4_partial(t, b),
    "rank4-mmmm": lambda t, b, k: rank4_mmmm_b(t[0], b),
}


def case_id(case):
    return "%s-%d" % case


def first_query(case):
    """The first (ascending parts, b) of catalog_queries that case answers."""
    return next((parts, b) for res, parts, b in catalog_queries() if res.case == case)


class TestChambers:
    def test_each_family_has_one_chamber_per_table(self):
        assert list(CHAMBERS) == list(CATALOGS)
        for family, tables in CATALOGS.items():
            assert sorted(tables) == list(range(1, len(tables) + 1))
            assert len(CHAMBERS[family](1, 2, 3, 0)) == len(tables), family

    @pytest.mark.parametrize("family, types", [
        ("rank2", list(types_of_rank(2, 6))),
        ("rank3", list(types_of_rank(3, 6))),
        ("rank3-mmm", [(m,) * 3 for m in range(1, 7)]),
        ("rank4-mmmm", [(m,) * 4 for m in range(1, 7)]),
    ], ids=["rank2", "rank3", "rank3-mmm", "rank4-mmmm"])
    def test_every_b_in_range_has_a_case(self, family, types):
        for t in types:
            a1, a2, a3 = (*t, 0, 0)[:3]
            for b in range(sum(t) + 1):
                assert any(CHAMBERS[family](a1, a2, a3, b)), (family, t, b)


class TestEvaluator:
    def test_every_catalog_case_matches_the_generic_route(self):
        seen = set()
        for res, parts, b in catalog_queries():
            table = CATALOGS[res.case.family][res.case.case]
            want = assemble_term_by_term(table, env_at(parts, b)).exact_div(
                pm1_product(range(1, len(parts))))
            assert res.value == want, (res.case, parts, b)
            seen.add(res.case)
        assert seen == {CaseId(f, k) for f, tables in CATALOGS.items() for k in tables}

    @pytest.mark.parametrize("family, case_no, field, evaluate, t, b", [
        ("rank2", 1, "coefficient", rank2, GroupType((2, 3)), 1),
        # an exponent moved by one still divides by p - 1, but not by p**2 - 1
        ("rank4-partial", 2, "exponent", rank4_partial, GroupType((1, 2, 3, 4)), 2),
        ("rank3-mmm", 3, "exponent", lambda t, b: rank3_mmm(t[0], b),
         GroupType((2, 2, 2)), 5),
        ("rank4-mmmm", 3, "exponent", lambda t, b: rank4_mmmm_b(t[0], b),
         GroupType((2, 2, 2, 2)), 5),
    ], ids=["rank2", "rank4-partial", "rank3-mmm", "rank4-mmmm"])
    def test_perturbed_table_raises(self, family, case_no, field, evaluate, t, b):
        assert_perturbation_raises(family, case_no, field, evaluate, t, b)

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_id)
    def test_table_swapped_after_first_use_is_evaluated(self, case):
        parts, b = first_query(case)
        assert_perturbation_raises(case.family, case.case, "coefficient",
                                   lambda t, b: EVALUATORS[case.family](t, b, case.case),
                                   GroupType(parts), b)

    @pytest.mark.parametrize("case, partner", ALIASES, ids=case_id)
    def test_swapping_an_aliased_table_leaves_its_partner(self, case, partner):
        # the two cases hold one table object; the catalog entry of one is swapped
        assert CATALOGS[case.family][case.case] is CATALOGS[partner.family][partner.case]
        parts, b = first_query(case)
        partner_parts, partner_b = first_query(partner)

        def evaluate(c, parts, b):
            return EVALUATORS[c.family](GroupType(parts), b, c.case)

        want = evaluate(partner, partner_parts, partner_b)
        table = perturbed(CATALOGS[case.family][case.case], "coefficient")
        with swapped_table(case.family, case.case, table):
            with pytest.raises(FormulaBug, match=str(case)):
                evaluate(case, parts, b)
            assert evaluate(partner, partner_parts, partner_b) == want

    @pytest.mark.parametrize("scale", [1, -10 ** 6], ids=["negative", "over-bound"])
    def test_exactly_dividing_wrong_table_raises(self, scale):
        # -scale * p**20 (p - 1)(p**2 - 1) added to Case 1 still divides
        # exactly, but adds -scale * p**20 to the quotient: a negative
        # coefficient, or one far above the count bound C(12, 3) = 220
        extra = tuple((L(-scale * c), L(e)) for c, e in ((1, 23), (-1, 22), (-1, 21), (1, 20)))
        with swapped_table("rank3", 1, CATALOGS["rank3"][1] + extra):
            with pytest.raises(FormulaBug, match="rank3 Case 1 divided exactly") as info:
                rank3((2, 3, 4), 1)
        assert info.value.case == CaseId("rank3", 1)
        assert info.value.remainder.is_zero

    def test_terms_that_cancel_past_the_l1_guard_divide(self):
        # 2**63 * p - 2**63 * p adds nothing to Case 1, but the terms' |c| sum
        # past the one-pass l1 guard at W = 64; the summed numerator divides
        extra = ((L(2 ** 63), L(1)), (L(-2 ** 63), L(1)))
        want = rank2((1, 1), 0)
        assert want.value == ONE
        with swapped_table("rank2", 1, CATALOGS["rank2"][1] + extra):
            assert rank2((1, 1), 0) == want
    @pytest.mark.parametrize("evaluate, case", [
        (lambda: gaussian_binomial(6, 3), "gaussian_binomial(6, 3)"),
        (lambda: rank4_mmmm_total(2), "rank4-mmmm total"),
    ], ids=["gaussian_binomial", "rank4_mmmm_total"])
    def test_failed_division_names_its_case(self, monkeypatch, evaluate, case):
        # a count bound of 0 refuses every quotient with a positive coefficient
        monkeypatch.setattr(closedforms, "comb", lambda n, k: 0)
        with pytest.raises(FormulaBug) as info:
            evaluate()
        assert str(info.value) == (
            "closed form %s divided exactly, but its quotient is not a count" % case)
        assert info.value.case == case and info.value.remainder.is_zero

    def test_no_right_value_raises(self):
        assert all(res.covered for res, _, _ in catalog_queries())
        for m in range(1, 7):
            rank4_mmmm_total(m)
        for d in range(14):
            for b in range(d + 1):
                gaussian_binomial(d, b)


class TestCaseTable:
    def test_rows_of_each_kind_of_term(self):
        terms = ((L(0), L(-1)), (L(2), L(1, b=1)), (L(-3, a1=1), L(2)), (L(-5), L()))
        table = CaseTable(terms)
        assert table == terms and hash(table) == hash(terms)
        assert table.fixed == ((2, 1, 0, 0, 0, 1), (-5, 0, 0, 0, 0, 0))
        assert table.l1 == 7
        assert table.linear == ((-3, 1, 0, 0, 0, 2, 0, 0, 0, 0),)

    def test_every_table_is_compiled_when_built(self):
        # the catalog's tables, Cases 7-10 among them, and a fresh substitution
        tables = [CATALOGS[case.family][case.case] for case in ALL_CASES]
        tables += [substitute_table(RANK3_TABLES[6], m) for m in CASE6_SPECIALIZATIONS.values()]
        for table in tables:
            fresh = CaseTable(tuple(table))
            assert type(table) is CaseTable
            assert (table.fixed, table.l1, table.linear) == (fresh.fixed, fresh.l1, fresh.linear)
        for case, partner in ALIASES:
            assert CATALOGS[case.family][case.case] is CATALOGS[partner.family][partner.case]


class TestWideSlots:
    """Quotients whose bound needs slots of two 64-bit words."""

    def test_rank3_with_a_65_bit_count_bound(self):
        parts = GroupType((10 ** 6, 2 * 10 ** 6, 3 * 10 ** 6))
        assert comb(parts.weight + 3, 3).bit_length() == 65
        res = rank3(parts, 5)
        numerator = table_numerator(CATALOGS["rank3"][res.case.case], env_at(parts, 5))
        assert res.value == numerator.exact_div(pm1_product(range(1, 3)))
        assert res.value == count_stehling(parts, 5, MemoTable())

    def test_gaussian_binomial_with_65_bit_coefficients(self):
        got = gaussian_binomial(76, 38)
        assert max(got.coeffs).bit_length() == 65
        assert got == pm1_product(range(39, 77)).exact_div(pm1_product(range(1, 39)))


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
        assert rank2((2, 4), 1).case == CaseId("rank2", 1)
        assert rank2((2, 4), 3).case == CaseId("rank2", 2)
        assert rank2((2, 4), 5).case == CaseId("rank2", 3)

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
                if rank3(t, b).case.case == 6:
                    target = (t, b)
                    break
            if target:
                break
        assert target is not None
        assert_perturbation_raises("rank3", 6, "coefficient", rank3, *target)
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

    @pytest.mark.parametrize("d", [44, 45, 50])
    def test_gaussian_binomial_in_two_word_slots(self, d):
        # the kernel's width is slot_width(C(d, b) << min(b, d - b)); d = 45
        # is the first d whose middle b needs two words, so unpack_slots joins them
        widths = {slot_width(comb(d, b) << min(b, d - b)) for b in range(d + 1)}
        assert max(widths) == (64 if d == 44 else 128)
        for b in range(d + 1):
            assert gaussian_binomial(d, b) == count_hironaka((1,) * d, b), (d, b)

    def test_gaussian_binomial_matches_the_product_route(self):
        for d in range(14):
            for b in range(d + 1):
                num = den = IntPoly.one()
                for i in range(1, b + 1):
                    num = num * pm1(d - b + i)
                    den = den * pm1(i)
                assert gaussian_binomial(d, b) == num.exact_div(den), (d, b)

    def test_gaussian_shape_for_elementary(self):
        # on (1,...,1) with b = 1 the product is 1 + p + ... + p^(d-1)
        res = anyrank_case1((1, 1, 1, 1), 1)
        assert res.value == IntPoly((1, 1, 1, 1))


def dispatch_types():
    """Ranks 0 to 5 with parts <= 3, and the rank-4 types with a part 4."""
    for rank in range(6):
        yield from types_of_rank(rank, 3)
    yield from (t for t in types_of_rank(4, 4) if t[3] == 4)


class TestClosedForm:
    def test_out_of_range_is_zero_and_covered(self):
        res = closed_form(GroupType((1, 1)), 9)
        assert res.covered and res.value == ZERO and res.case is None

    def test_rank_dispatch(self):
        assert str(closed_form(GroupType((1, 2)), 1).case) == "rank2 Case 1"
        assert str(closed_form(GroupType((2, 2, 2)), 1).case) == "rank3 Case 1"
        assert str(closed_form(GroupType((2, 2, 2, 2)), 1).case) == "rank4-mmmm Case 1"
        assert str(closed_form(GroupType((1, 2, 3, 4)), 2).case) == "rank4-partial Case 2"
        assert str(closed_form(GroupType((1, 1, 1, 1, 1)), 1).case) == "anyrank Case 1"
        assert str(closed_form(GroupType(()), 0).case) == "anyrank Case 1"

    def test_rank4_gap_misses(self):
        assert not closed_form(GroupType((1, 1, 4, 4)), 5).covered

    def test_covered_values_match_recurrence_and_misses_are_gaps(self):
        misses = {4: 0, 5: 0}
        for t in dispatch_types():
            m, a1 = t.weight, (t[0] if t else 0)
            for b in range(-1, m + 2):
                res = closed_form(t, b)
                if res.covered:
                    assert res.value == count_hironaka(t, b), (t, b, res.case)
                    continue
                # the product formula covers b <= a1 and b >= m - a1
                assert a1 < b < m - a1, (t, b)
                if t.rank == 4:
                    # the intervals cover min(b, m - b) <= min(a3, a1 + a2)
                    assert t[0] != t[3] and min(b, m - b) > min(t[2], t[0] + t[1]), (t, b)
                else:
                    assert t.rank == 5, (t, b)
                misses[t.rank] += 1
        assert misses[4] and misses[5], misses


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


@pytest.mark.parametrize("b", [-0.5, 99.0, True])
def test_dispatcher_order_index_must_be_an_int(b):
    # a float b outside [0, m] once answered a covered ZERO
    with pytest.raises(TypeError, match="b must be an int"):
        closed_form((1, 2), b)


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


@pytest.mark.parametrize("b", [-1, 7, 99])
def test_case_by_number_needs_b_in_range(b):
    # b = 99 once gave a covered polynomial of degree 198
    with pytest.raises(OutOfRange, match="b must lie in"):
        rank3_with_case((1, 2, 3), b, 1)


def test_case_by_number_needs_an_admitting_case():
    # case 1 read at b = 3 > a1 once gave p^6 + p^5 + 2p^4 + 2p^3 + 2p^2 + p + 1
    with pytest.raises(OutOfRange, match=r"rank3 Case 1 does not admit type \(3, 2, 1\) b=3"):
        rank3_with_case((1, 2, 3), 3, 1)
    for t in types_of_rank(3, 4):
        for b in range(t.weight + 1):
            admitting = rank3_applicable_cases(t, b)
            for k in set(range(1, 11)) - set(admitting):
                with pytest.raises(OutOfRange, match=str(CaseId("rank3", k))):
                    rank3_with_case(t, b, k)
