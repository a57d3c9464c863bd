"""Truncated trivariate series and the generating-function checks."""
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from subcount import genfun
from subcount.genfun import (
    MultiSeries, NonUnitConstant, OutOfBounds, _pack, _unpack, expand_rational,
    verify_F2, verify_g_product, verify_sub_series,
)
from subcount.polyring import IntPoly, ONE, ZERO
from subcount.recurrence import count_stehling


B = (3, 3, 3)
MINUS_ONE = IntPoly((-1,))
# the truncation of the unit tests, the benchmark's series box, and two
# boxes whose bounds differ, so lines hold different numbers of cells
SERIES_BOXES = [(4, 4, 4), (12, 12, 12), (12, 5, 9), (3, 9, 2)]


# the two pieces of the full series as printed in the paper, which both fail
PRINTED_PIECES = {
    # numerator 1 + x2^2*y
    "equal_piece": ({(0, 0, 0): 1, (0, 2, 1): 1},
                    ("1 - x1*x2", "1 - p*x1*x2*y", "1 - x1*x2*y^2")),
    # numerator 1 + y - x1*y + x1^2*x2*y^2, with factor 1 - x1*x2*y
    "strict_piece": ({(0, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): -1, (2, 1, 2): 1},
                     ("1 - x1", "1 - x1*y", "1 - x1*x2", "1 - x1*x2*y", "1 - p*x1*x2*y")),
}


def series(*terms):
    return MultiSeries(B, {(e1, e2, ey): coeff for e1, e2, ey, coeff in terms})


def cells(*summands):
    """The nonzero cells of the summands' sum, added cell by cell."""
    total = {}
    for s in summands:
        for mono in s.monomials:
            total[mono] = total.get(mono, ZERO) + s.coeff(*mono)
    return {mono: c for mono, c in total.items() if not c.is_zero}


class TestMultiSeries:
    def test_coeff_and_truncation(self):
        s = series((1, 0, 0, ONE), (9, 9, 9, ONE))
        assert s.coeff(1, 0, 0) == ONE
        assert s.coeff(2, 0, 0) == ZERO
        assert s.monomials == [(1, 0, 0)]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            MultiSeries((1, 2))
        with pytest.raises(ValueError):
            MultiSeries((1, -1, 2))

    @pytest.mark.parametrize("bounds", [(1.5, 2, 2), (True, 2, 2), (2, 2, 2.0)])
    def test_bounds_must_be_ints(self, bounds):
        # a float bound would fail later inside range(); a bool is not a count
        with pytest.raises(ValueError, match="bounds must be three nonnegative ints"):
            MultiSeries(bounds, {(1, 0, 0): 1})
        with pytest.raises(ValueError, match="bounds must be three nonnegative ints"):
            verify_F2(bounds)

    def test_monomial_needs_three_exponents(self):
        with pytest.raises(ValueError):
            MultiSeries(B, {(1, 2): ONE})

    @pytest.mark.parametrize("mono", [
        (-1, 0, 0), (1.0, 0, 0), (0, True, 0), (1, 0, 0, 0), 5, "abc"])
    def test_monomial_needs_three_nonnegative_int_exponents(self, mono):
        # a negative exponent was dropped and a float one kept as a key
        with pytest.raises(ValueError, match="three nonnegative int exponents"):
            MultiSeries((2, 2, 2), {mono: 5, (1, 0, 0): 1})

    @pytest.mark.parametrize("coeff", [1.5, "1", (1, 2), [1, 2], None])
    def test_coefficient_is_an_int_or_an_intpoly(self, coeff):
        with pytest.raises(TypeError, match="coefficient %s is neither" % re.escape(
                repr(coeff))):
            MultiSeries((2, 2, 2), {(1, 0, 0): coeff})

    @pytest.mark.parametrize("mono", [(True, 0, 0), (1.0, 0, 0), (1.5, 0, 0), (0, 0, 2.0)])
    def test_coeff_needs_int_exponents(self, mono):
        # True and 1.0 once read the (1, 0, 0) cell, and 1.5 read 0
        with pytest.raises(ValueError, match="three nonnegative int exponents"):
            series((1, 0, 0, ONE)).coeff(*mono)

    def test_coeff_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            series().coeff(4, 0, 0)
        with pytest.raises(OutOfBounds):
            series().coeff(0, 0, -1)

    def test_polynomial_coefficients(self):
        s = series((1, 1, 1, IntPoly((0, 1))))
        assert s.coeff(1, 1, 1) == IntPoly((0, 1))

    def test_int_coefficients(self):
        assert cells(series((1, 0, 0, -3))) == cells(series((1, 0, 0, IntPoly((-3,)))))
        assert MultiSeries(B, {(0, 1, 0): 2}).coeff(0, 1, 0) == IntPoly((2,))

    def test_wide_coefficients_read_back(self):
        # 2**70 needs 128-bit slots
        big = IntPoly((1 << 70, -(1 << 65)))
        wide = series((1, 0, 0, big), (0, 0, 1, IntPoly((0, -2))))
        assert wide.coeff(1, 0, 0) == big
        assert wide.coeff(0, 0, 1) == IntPoly((0, -2))

    def test_non_unit_constant(self):
        num = series((0, 0, 0, ONE))
        with pytest.raises(NonUnitConstant):
            expand_rational(num, [series((0, 0, 0, IntPoly((2,))))])
        with pytest.raises(NonUnitConstant):
            expand_rational(num, [series((1, 0, 0, ONE))])


class TestPacking:
    def test_round_trip_at_the_slot_edges(self):
        for width in (64, 128):
            half = 1 << (width - 1)
            for coeffs in ([-half, half - 1, -1], [0, 1, -half], [half - 1]):
                assert _unpack(_pack(coeffs, width), width) == IntPoly(coeffs)

    def test_pack_raises_rather_than_alias(self):
        # 2**63 in a signed 64-bit slot would read back as -2**63
        for coeffs in ([1 << 63], [0, -(1 << 63) - 1], [(1 << 64) - 1, 0]):
            with pytest.raises(OverflowError):
                _pack(coeffs, 64)
        assert _unpack(_pack([1 << 63], 128), 128) == IntPoly((1 << 63,))


def reference_expand(bounds, numerator, factors):
    """The one-pass division, cell by cell on dicts of IntPoly coefficients."""
    box = list(product(*(range(b + 1) for b in bounds)))
    acc = numerator
    for factor in factors:
        c0 = factor[(0, 0, 0)]
        quotient = {}
        for e in box:
            total = acc.get(e, ZERO)
            for m, c in factor.items():
                rest = tuple(x - y for x, y in zip(e, m))
                if m != (0, 0, 0) and min(rest) >= 0:
                    total = total - c * quotient[rest]
            quotient[e] = total * c0
        acc = quotient
    return acc


@st.composite
def rational_case(draw):
    bounds = tuple(draw(st.integers(0, 3)) for _ in range(3))
    cells = list(product(*(range(b + 1) for b in bounds)))
    poly = st.builds(IntPoly, st.lists(st.integers(-3, 3), max_size=3))
    numerator = draw(st.dictionaries(st.sampled_from(cells), poly, max_size=4))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        # the paper's shape: one term, in x1 or x2 and maybe y
        monomials = st.tuples(*(st.integers(0, 3) for _ in range(3))).filter(
            lambda m: m[0] or m[1])
        factor = {draw(monomials): draw(poly)}
        factor[(0, 0, 0)] = draw(st.sampled_from((ONE, MINUS_ONE)))
        factors.append(factor)
    return bounds, numerator, factors


def assert_matches_reference(bounds, numerator, factors):
    got = expand_rational(MultiSeries(bounds, numerator),
                          [MultiSeries(bounds, f) for f in factors])
    inside = [{m: c for m, c in f.items() if all(e <= b for e, b in zip(m, bounds))}
              for f in factors]
    want = reference_expand(bounds, numerator, inside)
    for cell in product(*(range(b + 1) for b in bounds)):
        assert got.coeff(*cell) == want.get(cell, ZERO), cell
    assert got.monomials == sorted(m for m, c in want.items() if c)
    return got


@settings(max_examples=200, deadline=None)
@given(rational_case())
def test_expansion_matches_intpoly_reference(case):
    assert_matches_reference(*case)


def test_expansion_in_128_bit_slots():
    # first a numerator past 2**63, then one whose quotient grows past it:
    # 2**58 / ((1 - 4*x1)(1 - 4*x2)) has 2**58 * 4**3 * 4**3 = 2**70 at x1**3 * x2**3
    cases = [
        ((3, 2, 2),
         {(0, 0, 0): IntPoly((1 << 70, -(1 << 66))), (1, 0, 1): IntPoly((0, 5))},
         [{(0, 0, 0): ONE, (1, 0, 0): MINUS_ONE},
          {(0, 0, 0): ONE, (0, 1, 0): IntPoly((0, -3))},
          {(0, 0, 0): MINUS_ONE, (1, 1, 1): IntPoly((2, 1))}]),
        ((3, 3, 0),
         {(0, 0, 0): IntPoly((1 << 58,))},
         [{(0, 0, 0): ONE, (1, 0, 0): IntPoly((-4,))},
          {(0, 0, 0): ONE, (0, 1, 0): IntPoly((-4,))}]),
    ]
    for bounds, numerator, factors in cases:
        got = assert_matches_reference(bounds, numerator, factors)
        assert got._width == 128
        assert max(abs(c) for m in got.monomials for c in got.coeff(*m).coeffs) > 1 << 63


@pytest.mark.parametrize("bounds, numerator, factors, degree, reached", [
    # (p*x1)**5 * (p*x2*y)**2 at x1**5 * x2**2 * y**2 is p**7, exactly the
    # degree bound 5 + 2 of the lines
    ((5, 2, 3), {(0, 0, 0): ONE},
     [{(0, 0, 0): ONE, (1, 0, 0): IntPoly((0, -1))},
      {(0, 0, 0): ONE, (0, 1, 1): IntPoly((0, -1))}], 7, 7),
    # every line is full to y**3, so each step of the y**2 term pushes two
    # cells past the box on every line it writes
    ((3, 2, 3), {(0, e2, ey): IntPoly((1 + ey, -2 - e2)) for e2 in range(3) for ey in range(4)},
     [{(0, 0, 0): MINUS_ONE, (1, 0, 2): IntPoly((0, -3))}], 2, 2),
    # negative cells, the top one at y**B3, on lines (0, 1) and (1, 0), which
    # the factor in x1*x2 never writes
    ((2, 2, 2), {(0, 0, 0): ONE, (0, 1, 2): IntPoly((3, 0, -7)), (1, 0, 1): IntPoly((-1,))},
     [{(0, 0, 0): ONE, (1, 1, 0): IntPoly((0, 2))}], 4, 3),
    # the line -1 + y packs as 2**stride - 1, no longer than a line with no
    # cell past y**0, yet shifted up by y its y cell leaves the box
    ((2, 0, 1), {(0, 0, 0): MINUS_ONE, (0, 0, 1): ONE},
     [{(0, 0, 0): ONE, (1, 0, 1): MINUS_ONE}], 0, 0),
], ids=["degree-bound", "past-the-box", "untouched-negative", "one-cell-past"])
def test_line_layout_edges(bounds, numerator, factors, degree, reached):
    got = assert_matches_reference(bounds, numerator, factors)
    assert got._degree == degree
    assert max(len(got.coeff(*m).coeffs) for m in got.monomials) - 1 == reached


@pytest.mark.parametrize("name", sorted(genfun._FACTORS))
def test_paper_factors_with_either_sign(name):
    factor = genfun._FACTORS[name]
    numerator = {(0, 0, 0): ONE, (1, 0, 1): IntPoly((0, 2))}
    for sign in (1, -1):
        assert_matches_reference(B, numerator, [{m: sign * c for m, c in factor.items()}])


class TestExpandRational:
    def test_single_geometric_factor(self):
        num = series((0, 0, 0, ONE))
        fac = series((0, 0, 0, ONE), (1, 0, 0, IntPoly((-1,))))
        s = expand_rational(num, [fac])
        assert s.coeff(2, 0, 0) == ONE

    def test_negated_factor_flips_sign(self):
        num = series((0, 0, 0, ONE))
        fac = series((0, 0, 0, IntPoly((-1,))), (1, 0, 0, ONE))
        s = expand_rational(num, [fac])
        assert s.coeff(0, 0, 0) == IntPoly((-1,))

    def test_two_factors_match_closed_form(self):
        # (1 + x1*x2) / ((1 - x1)(1 - p*x2*y)) = (1 + x1*x2) * sum x1^i p^k x2^k y^k
        bounds = (4, 3, 3)
        num = MultiSeries(bounds, {(0, 0, 0): ONE, (1, 1, 0): ONE})
        f1 = MultiSeries(bounds, {(0, 0, 0): ONE, (1, 0, 0): MINUS_ONE})
        f2 = MultiSeries(bounds, {(0, 0, 0): ONE, (0, 1, 1): IntPoly((0, -1))})
        s = expand_rational(num, [f1, f2])
        for e1, e2, ey in product(*(range(b + 1) for b in bounds)):
            want = ZERO
            if ey == e2:
                want += IntPoly.term(1, e2)
            if e1 >= 1 and e2 >= 1 and ey == e2 - 1:
                want += IntPoly.term(1, e2 - 1)
            assert s.coeff(e1, e2, ey) == want, (e1, e2, ey)

    @pytest.mark.parametrize("terms", [
        # two terms besides the constant: 1 - x1 - x2
        ((0, 0, 0, ONE), (1, 0, 0, MINUS_ONE), (0, 1, 0, MINUS_ONE)),
        # a term in y alone: 1 - y
        ((0, 0, 0, ONE), (0, 0, 1, MINUS_ONE)),
    ], ids=["two-terms", "y-alone"])
    def test_factor_of_another_shape_rejected(self, terms):
        # a good factor first does not let a bad one through
        good = series((0, 0, 0, ONE), (1, 0, 0, MINUS_ONE))
        with pytest.raises(ValueError, match="one term in x1 or x2") as caught:
            expand_rational(series((0, 0, 0, ONE)), [good, series(*terms)])
        assert caught.type is ValueError
        assert str(sorted(t[:3] for t in terms)) in str(caught.value)

    def test_minus_one_constant_factor(self):
        # 1 / ((1 - x1)(p*x2 - 1)) = -sum x1^i p^j x2^j
        f1 = series((0, 0, 0, ONE), (1, 0, 0, MINUS_ONE))
        f2 = series((0, 0, 0, MINUS_ONE), (0, 1, 0, IntPoly((0, 1))))
        s = expand_rational(series((0, 0, 0, ONE)), [f1, f2])
        for i, j, k in product(range(4), repeat=3):
            want = IntPoly.term(-1, j) if k == 0 else ZERO
            assert s.coeff(i, j, k) == want, (i, j, k)

    def test_non_unit_factor_rejected(self):
        num = series((0, 0, 0, ONE))
        with pytest.raises(NonUnitConstant):
            expand_rational(num, [series((0, 0, 0, IntPoly((3,))))])

    def test_factor_bounds_must_match(self):
        num = series((0, 0, 0, ONE))
        fac = MultiSeries((3, 3, 2), {(0, 0, 0): ONE, (1, 0, 0): MINUS_ONE})
        with pytest.raises(ValueError, match="bounds differ"):
            expand_rational(num, [fac])

    @pytest.mark.parametrize("numerator, factors", [
        (series((0, 0, 0, ONE)), [{(0, 0, 0): 1, (1, 0, 0): -1}]),
        (series((0, 0, 0, ONE)), [5]),
        ({(0, 0, 0): 1}, []),
    ], ids=["dict-factor", "int-factor", "dict-numerator"])
    def test_argument_that_is_not_a_series_rejected(self, numerator, factors):
        with pytest.raises(TypeError, match="expected a MultiSeries"):
            expand_rational(numerator, factors)


class TestSeriesChecks:
    # each check runs at every box of SERIES_BOXES
    def test_full_series_matches_recurrence(self):
        for bounds in SERIES_BOXES:
            assert verify_F2(bounds=bounds) == [], bounds

    def test_staircase_product(self):
        for bounds in SERIES_BOXES:
            assert verify_g_product(bounds=bounds) == [], bounds

    def test_sub_series_report(self):
        for bounds in SERIES_BOXES:
            assert verify_sub_series(bounds=bounds) == [], bounds

    def test_pieces_sum_to_the_full_series(self):
        # implied by the three whole-box checks, shown here directly
        for bounds in [(4, 4, 4), (8, 8, 8), (12, 12, 12)]:
            equal = genfun._expand(bounds, genfun._SERIES["equal_piece"])
            strict = genfun._expand(bounds, genfun._SERIES["strict_piece"])
            full = genfun._expand(bounds, genfun._SERIES["full"])
            assert cells(equal, strict) == cells(full), bounds

    @pytest.mark.parametrize("changes", [
        # p**5 past the degree bound 4 of (4, 4, 4), and 1 less in the next
        # cell, where it would land if the line took it: the packed line
        # would equal the series'
        {((1, 2), 2): IntPoly.term(1, 5), ((1, 2), 3): MINUS_ONE},
        # a negative coefficient, -2
        {((1, 2), 2): IntPoly((-3,))},
        # 2**63 + 1 would read back as -2**63 + 1 from a signed 64-bit slot
        {((1, 2), 2): IntPoly((1 << 63,))},
        # p * 2**64 takes more than one word
        {((1, 2), 2): IntPoly((0, 1 << 64))},
    ], ids=["degree-above-D", "negative", "top-bit", "wide"])
    def test_too_wide_a_reference_is_a_mismatch(self, monkeypatch, changes):
        # each changed reference is reported at its cell, as for any other
        # mismatch, and every other cell still matches
        exact = genfun.count_stehling

        def perturbed(t, r):
            return exact(t, r) + changes.get((tuple(t), r), ZERO)

        monkeypatch.setattr(genfun, "count_stehling", perturbed)
        assert verify_F2((4, 4, 4)) == [
            {"monomial": [u, v, r], "expected": perturbed((v, u), r).to_json(),
             "got": exact((v, u), r).to_json()}
            for (v, u), r in changes]

    @pytest.mark.parametrize("reference", [(-1, 1), ((1 << 64) - 1, 1)],
                             ids=["negative", "unsigned"])
    def test_reference_word_that_aliases_a_borrow_is_a_mismatch(self, monkeypatch, reference):
        # the series cell [-1, 2] is packed as 2**65 - 1, and so would be
        # either reference, -1 written as a bare two's-complement word or
        # 2**64 - 1 as an unsigned one, if its line were packed
        bounds, cell = (4, 4, 4), (2, 1, 2)
        data = cells(genfun._expand(bounds, genfun._SERIES["full"]))
        assert data[cell] == IntPoly((1, 1))
        data[cell] = IntPoly((-1, 2))
        monkeypatch.setattr(genfun, "_expand", lambda *args: MultiSeries(bounds, data))
        monkeypatch.setattr(genfun, "count_stehling", lambda t, r: (
            IntPoly(reference) if (tuple(t), r) == ((1, 2), 2) else count_stehling(t, r)))
        assert verify_F2(bounds) == [
            {"monomial": list(cell), "expected": list(reference), "got": [-1, 2]}]

    def test_off_region_term_is_a_mismatch(self, monkeypatch):
        # an x2 term in the equal piece's numerator lies off the diagonal, on
        # cells (u, u + 1, r) that must be 0; the diagonal is unchanged
        num, factors = genfun._SERIES["equal_piece"]
        monkeypatch.setitem(genfun._SERIES, "equal_piece",
                            ({**num, (0, 1, 0): 1}, factors))
        records = verify_sub_series((4, 4, 4))
        assert [m["monomial"] for m in records[:5]] == [
            [0, 1, 0], [1, 2, 0], [1, 2, 1], [1, 2, 2], [2, 3, 0]]
        shifted = genfun._expand((4, 4, 4), ({(0, 1, 0): 1}, factors))
        assert [m["monomial"] for m in records] == [list(m) for m in shifted.monomials]
        for record in records:
            assert record["expected"] == []
            assert record["got"] == shifted.coeff(*record["monomial"]).to_json()

    def test_cancelling_junk_in_both_pieces_is_reported(self, monkeypatch):
        # +1 in the equal piece and -1 in the strict piece on a cell u < v
        # leave the sum equal to the full series; each piece still fails
        bounds, cell = (4, 4, 4), (1, 2, 0)
        exact = genfun._expand

        def perturbed(bounds, formula):
            series = exact(bounds, formula)
            for side, junk in (("equal_piece", 1), ("strict_piece", -1)):
                if formula is genfun._SERIES[side]:
                    data = cells(series)
                    data[cell] = data.get(cell, ZERO) + junk
                    series = MultiSeries(bounds, data)
            return series

        monkeypatch.setattr(genfun, "_expand", perturbed)
        equal = genfun._expand(bounds, genfun._SERIES["equal_piece"])
        strict = genfun._expand(bounds, genfun._SERIES["strict_piece"])
        assert cells(equal, strict) == cells(exact(bounds, genfun._SERIES["full"]))
        assert verify_sub_series(bounds) == [
            {"monomial": list(cell), "expected": [], "got": [1]},
            {"monomial": list(cell), "expected": [], "got": [-1]}]

    @pytest.mark.parametrize("side, first", [
        ("equal_piece", [1, 1, 1]), ("strict_piece", [2, 1, 1])])
    def test_printed_pieces_fail(self, monkeypatch, side, first):
        # the erratum: each piece as printed in the paper differs from the
        # recurrence, first at this cell of (4, 4, 4)
        monkeypatch.setitem(genfun._SERIES, side, PRINTED_PIECES[side])
        records = verify_sub_series((4, 4, 4))
        assert records and records[0]["monomial"] == first

    def test_wrong_piece_reports_every_cell_unpacked(self, monkeypatch):
        # the negated equal piece differs from the recurrence on every one of
        # the 19 diagonal cells of (4, 4, 4), and all are reported
        _, factors = genfun._SERIES["equal_piece"]
        negated = {(0, 0, 0): -1, (1, 1, 1): -1}
        monkeypatch.setitem(genfun._SERIES, "equal_piece", (negated, factors))
        records = verify_sub_series((4, 4, 4))
        cells = [(u, u, r) for u in range(5) for r in range(min(2 * u, 4) + 1)]
        assert len(cells) == 19
        assert [m["monomial"] for m in records] == [list(cell) for cell in cells]
        for record in records:
            u, v, r = record["monomial"]
            want = count_stehling((v, u), r).to_json()
            assert record["expected"] == want
            assert record["got"] == [-c for c in want]
