"""Truncated trivariate series and the generating-function checks."""
import re
from itertools import product
from math import comb

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
# the truncation of the unit tests and the benchmark's series box
SERIES_BOXES = [(4, 4, 4), (12, 12, 12)]


def series(*terms):
    return MultiSeries(B, {(e1, e2, ey): coeff for e1, e2, ey, coeff in terms})


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

    def test_coeff_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            series().coeff(4, 0, 0)
        with pytest.raises(OutOfBounds):
            series().coeff(0, 0, -1)

    def test_arithmetic(self):
        x = series((1, 0, 0, ONE))
        y = series((0, 0, 1, ONE))
        s = x + y
        assert s.coeff(1, 0, 0) == ONE and s.coeff(0, 0, 1) == ONE
        # a coefficient that cancels leaves the series
        assert s + series((1, 0, 0, MINUS_ONE)) == y

    def test_bounds_must_match(self):
        with pytest.raises(ValueError):
            series() + MultiSeries((1, 1, 1))
        with pytest.raises(TypeError):
            series() + 1

    def test_unequal_to_a_non_series(self):
        s = series((1, 0, 0, ONE))
        assert s != 1 and s != "x" and s != {(1, 0, 0): ONE}
        assert not s == ONE

    def test_polynomial_coefficients(self):
        s = series((1, 1, 1, IntPoly((0, 1))))
        assert s.coeff(1, 1, 1) == IntPoly((0, 1))

    def test_int_coefficients(self):
        assert series((1, 0, 0, -3)) == series((1, 0, 0, IntPoly((-3,))))
        assert MultiSeries(B, {(0, 1, 0): 2}).coeff(0, 1, 0) == IntPoly((2,))

    def test_wide_coefficients_add_and_compare(self):
        # 2**70 needs 128-bit slots; + and == repack the 64-bit series to match
        big = IntPoly((1 << 70, -(1 << 65)))
        wide = series((1, 0, 0, big))
        narrow = series((1, 0, 0, ONE), (0, 0, 1, IntPoly((0, -2))))
        total = wide + narrow
        assert total.coeff(1, 0, 0) == big + ONE
        assert total.coeff(0, 0, 1) == IntPoly((0, -2))
        assert total + series((1, 0, 0, -big)) == narrow
        assert narrow == total + series((1, 0, 0, -big))
        assert wide != series((1, 0, 0, IntPoly((1 << 70,))))

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
        monomials = st.tuples(*(st.integers(0, 3) for _ in range(3))).filter(any)
        factor = draw(st.dictionaries(monomials, poly, min_size=1, max_size=3))
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
    # 2**58 / (1 - 4*x1 - 4*x2) has 2**58 * C(6, 3) * 4**6 at x1**3 * x2**3
    cases = [
        ((3, 2, 2),
         {(0, 0, 0): IntPoly((1 << 70, -(1 << 66))), (1, 0, 1): IntPoly((0, 5))},
         [{(0, 0, 0): ONE, (1, 0, 0): MINUS_ONE, (0, 1, 0): IntPoly((0, -3))},
          {(0, 0, 0): MINUS_ONE, (1, 1, 1): IntPoly((2, 1))}]),
        ((3, 3, 0),
         {(0, 0, 0): IntPoly((1 << 58,))},
         [{(0, 0, 0): ONE, (1, 0, 0): IntPoly((-4,)), (0, 1, 0): IntPoly((-4,))}]),
    ]
    for bounds, numerator, factors in cases:
        got = assert_matches_reference(bounds, numerator, factors)
        assert got._width == 128
        assert max(abs(c) for m in got.monomials for c in got.coeff(*m).coeffs) > 1 << 63


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

    def test_non_binomial_factor(self):
        # 1 / (1 - x1 - x2) = sum C(i + j, i) x1^i x2^j
        fac = series((0, 0, 0, ONE), (1, 0, 0, MINUS_ONE), (0, 1, 0, MINUS_ONE))
        s = expand_rational(series((0, 0, 0, ONE)), [fac])
        for i, j, k in product(range(4), repeat=3):
            want = IntPoly((comb(i + j, i),)) if k == 0 else ZERO
            assert s.coeff(i, j, k) == want, (i, j, k)

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
        with pytest.raises(ValueError):
            expand_rational(num, [fac])


class TestSeriesChecks:
    # each check runs at the unit-test box and at the benchmark's box
    def test_full_series_matches_recurrence(self):
        for bounds in SERIES_BOXES:
            assert verify_F2(bounds=bounds) == [], bounds

    def test_staircase_product(self):
        for bounds in SERIES_BOXES:
            assert verify_g_product(bounds=bounds) == [], bounds

    def test_sub_series_report(self):
        for bounds in SERIES_BOXES:
            report = verify_sub_series(bounds=bounds)
            assert report["ok"], bounds
            assert report["validated"]["equal_piece"] is not None
            assert report["validated"]["strict_piece"] is not None
            assert report["sum_matches_full"]
            # exactly one reading of each piece reproduces the recurrence
            for side in ("equal_piece", "strict_piece"):
                readings = {e["reading"]: e["ok"] for e in report[side]}
                assert len(readings) == 2
                assert sorted(readings.values()) == [False, True]

    def test_too_wide_a_reference_is_a_mismatch(self, monkeypatch):
        # 2**70 does not fit the series' 64-bit slots, so it equals no cell
        exact = genfun.count_stehling

        def perturbed(t, r):
            value = exact(t, r)
            return value + (1 << 70) if (tuple(t), r) == ((1, 2), 2) else value

        monkeypatch.setattr(genfun, "count_stehling", perturbed)
        [record] = verify_F2((4, 4, 4))
        assert record["monomial"] == [2, 1, 2]
        assert record["expected"] == perturbed((1, 2), 2).to_json()
        assert record["got"] == exact((1, 2), 2).to_json()

    def test_sum_mismatches_name_full_and_sum(self, monkeypatch):
        # an x2 term in the equal piece's numerator lies off the diagonal, so
        # both pieces still validate, but their sum differs from the full series
        equal_readings = genfun._SERIES["equal_piece"]
        (name, (num, factors)), _ = equal_readings.items()
        monkeypatch.setitem(equal_readings, name, ({**num, (0, 1, 0): 1}, factors))
        bounds = (4, 4, 4)
        report = verify_sub_series(bounds)
        assert report["validated"]["equal_piece"] is not None
        assert report["validated"]["strict_piece"] is not None
        assert not report["sum_matches_full"] and not report["ok"]
        assert [m["monomial"] for m in report["sum_mismatches"]] == [
            [0, 1, 0], [1, 2, 0], [1, 2, 1], [1, 2, 2], [2, 3, 0]]
        equal = genfun._expand(bounds, equal_readings[name])
        corrected_strict, _ = genfun._SERIES["strict_piece"].values()
        strict = genfun._expand(bounds, corrected_strict)
        full = genfun._expand(bounds, genfun._SERIES["full"])
        for record in report["sum_mismatches"]:
            cell = record["monomial"]
            assert record["expected"] == full.coeff(*cell).to_json()
            assert record["got"] == (equal + strict).coeff(*cell).to_json()
            assert record["expected"] != record["got"]

    def test_wrong_reading_reports_five_unpacked_records(self, monkeypatch):
        # the negated equal piece differs from the recurrence on every one of
        # the 19 diagonal cells of (4, 4, 4); the report keeps the first 5
        (name, (num, factors)), _ = genfun._SERIES["equal_piece"].items()
        negated = {(0, 0, 0): -1, (1, 1, 1): -1}
        monkeypatch.setitem(genfun._SERIES, "equal_piece",
                            {name: (num, factors), "negated": (negated, factors)})
        report = verify_sub_series((4, 4, 4))
        assert report["ok"]
        entry = report["equal_piece"][1]
        assert entry["reading"] == "negated" and not entry["ok"]
        cells = [(u, u, r) for u in range(5) for r in range(min(2 * u, 4) + 1)]
        assert [m["monomial"] for m in entry["mismatches"]] == [
            list(cell) for cell in cells[:5]]
        for record in entry["mismatches"]:
            u, v, r = record["monomial"]
            want = count_stehling((v, u), r).to_json()
            assert record["expected"] == want
            assert record["got"] == [-c for c in want]
