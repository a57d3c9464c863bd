"""Truncated trivariate series and the generating-function checks."""
from itertools import product
from math import comb

import pytest

from subcount.genfun import (
    MultiSeries, NonUnitConstant, OutOfBounds, expand_rational,
    verify_F2, verify_g_product, verify_sub_series,
)
from subcount.polyring import IntPoly, ONE, ZERO


B = (3, 3, 3)
MINUS_ONE = IntPoly((-1,))
# the truncation of the unit tests and the benchmark's series box
SERIES_BOXES = [(4, 4, 4), (12, 12, 12)]


def series(*terms):
    return MultiSeries.from_terms(B, terms)


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

    def test_polynomial_coefficients(self):
        s = series((1, 1, 1, IntPoly((0, 1))))
        assert s.coeff(1, 1, 1) == IntPoly((0, 1))

    def test_non_unit_constant(self):
        num = series((0, 0, 0, ONE))
        with pytest.raises(NonUnitConstant):
            expand_rational(num, [series((0, 0, 0, IntPoly((2,))))])
        with pytest.raises(NonUnitConstant):
            expand_rational(num, [series((1, 0, 0, ONE))])


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
        num = MultiSeries.from_terms(bounds, [(0, 0, 0, ONE), (1, 1, 0, ONE)])
        f1 = MultiSeries.from_terms(bounds, [(0, 0, 0, ONE), (1, 0, 0, MINUS_ONE)])
        f2 = MultiSeries.from_terms(bounds, [(0, 0, 0, ONE), (0, 1, 1, IntPoly((0, -1)))])
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
        fac = MultiSeries.from_terms((3, 3, 2), [(0, 0, 0, ONE), (1, 0, 0, MINUS_ONE)])
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
