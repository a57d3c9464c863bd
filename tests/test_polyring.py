"""Exact integer polynomial arithmetic."""
import json
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from subcount.polyring import (
    IntPoly, NonExactDivision, ZeroPolynomial, ZERO, ONE, P, geometric, slot_width,
    unpack_slots,
)


def poly(*ascending):
    return IntPoly(ascending)


polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=8))
nonzero_polys = polys.filter(lambda f: not f.is_zero)


class TestConstruction:
    def test_trailing_zeros_dropped(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)

    def test_zero_and_one(self):
        assert IntPoly.zero() == ZERO == poly()
        assert IntPoly.one() == ONE == poly(1)
        assert not ZERO
        assert ONE

    def test_term(self):
        assert IntPoly.term(3, 2) == poly(0, 0, 3)
        assert IntPoly.term(0, 5) == ZERO

    def test_rejects_non_int_coeffs(self):
        with pytest.raises(TypeError):
            IntPoly((1.5,))
        with pytest.raises(TypeError):
            IntPoly((True,))
        with pytest.raises(TypeError):
            IntPoly.term(1.5, 2)
        with pytest.raises(TypeError):
            IntPoly.term(True, 2)

    def test_p_constant(self):
        assert P == poly(0, 1)
        assert P.eval_at(7) == 7


class TestDegreeAndLeading:
    def test_degree(self):
        assert poly(1, 2, 3).degree() == 2
        assert ONE.degree() == 0

    def test_zero_has_no_degree(self):
        with pytest.raises(ZeroPolynomial):
            ZERO.degree()
        with pytest.raises(ZeroPolynomial):
            ZERO.leading_coeff()

    def test_leading_coeff(self):
        assert poly(4, 0, -7).leading_coeff() == -7


class TestArithmetic:
    def test_mixed_int_operands(self):
        assert poly(1, 1) + 2 == poly(3, 1)
        assert 2 + poly(1, 1) == poly(3, 1)
        assert 3 * poly(0, 1) == poly(0, 3)
        assert 1 - poly(0, 1) == poly(1, -1)

    def test_pow(self):
        assert (P + 1) ** 2 == poly(1, 2, 1)
        assert poly(2) ** 0 == ONE
        with pytest.raises(ValueError):
            P ** -1

    def test_shift(self):
        assert poly(1, 1).shift(2) == poly(0, 0, 1, 1)
        assert ZERO.shift(3) == ZERO
        with pytest.raises(ValueError):
            P.shift(-1)

    @pytest.mark.parametrize("call, name, value", [
        (lambda: IntPoly.term(1, True), "exponent", "True"),
        (lambda: IntPoly.term(1, 2.0), "exponent", "2.0"),
        (lambda: P ** True, "exponent", "True"),
        (lambda: P ** 2.0, "exponent", "2.0"),
        (lambda: P.shift(True), "shift", "True"),
        (lambda: P.shift(1.0), "shift", "1.0"),
        (lambda: ZERO.shift(True), "shift", "True"),
    ], ids=["term-bool", "term-float", "pow-bool", "pow-float", "shift-bool",
            "shift-float", "zero-shift-bool"])
    def test_exponent_must_be_an_int(self, call, name, value):
        # a bool once read as 1, and a float failed inside list repetition
        with pytest.raises(TypeError, match="%s must be an int, got %s" % (name, value)):
            call()

    @pytest.mark.parametrize("call, name", [
        (lambda: IntPoly.term(1, -1), "exponent"),
        (lambda: P ** -1, "exponent"),
        (lambda: P.shift(-1), "shift"),
    ], ids=["term", "pow", "shift"])
    def test_negative_exponent_is_a_value_error(self, call, name):
        with pytest.raises(ValueError, match="%s must be nonnegative, got -1" % name):
            call()

    @given(polys, polys)
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(polys, polys, polys)
    def test_mul_distributes(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(polys, polys)
    def test_mul_commutes(self, f, g):
        assert f * g == g * f

    @given(polys)
    def test_identities(self, f):
        assert f + ZERO == f
        assert f * ONE == f
        assert f - f == ZERO

    @given(polys, polys, st.integers(-4, 4))
    def test_eval_is_a_homomorphism(self, f, g, x):
        assert (f + g).eval_at(x) == f.eval_at(x) + g.eval_at(x)
        assert (f * g).eval_at(x) == f.eval_at(x) * g.eval_at(x)


def assert_canonical(r):
    rebuilt = IntPoly(list(r.coeffs))
    assert r == rebuilt
    assert hash(r) == hash(rebuilt)
    assert not r.coeffs or r.coeffs[-1] != 0
    assert all(type(c) is int for c in r.coeffs)


class TestCanonicalResults:
    """Arithmetic results skip the public constructor's checks; they must
    still come out exactly as the public constructor would build them."""

    @given(polys, polys, st.integers(-9, 9), st.integers(0, 6))
    def test_results_are_canonical(self, f, g, c, k):
        results = [
            f + g, f - g, -f, f * g, f.shift(k), IntPoly.term(c, k),
            f - f, f + (-f), (f + g) - g, f + c, c - f, f * c, f * 0,
        ]
        if not g.is_zero:
            results.extend(f.divmod(g))
            results.extend((f * g).divmod(g))
        for r in results:
            assert_canonical(r)


class TestDivision:
    def test_exact_div_product(self):
        # (p^5 - p^3 - p^2 + 1) / (p^3 - p^2 - p + 1) = p^2 + p + 1
        num = poly(1, 0, -1, -1, 0, 1)
        den = poly(1, -1, -1, 1)
        assert num.exact_div(den) == poly(1, 1, 1)

    def test_non_exact_division_carries_diagnostics(self):
        with pytest.raises(NonExactDivision) as info:
            poly(1, 1, 1).exact_div(poly(0, 1))
        err = info.value
        assert err.quotient * poly(0, 1) + err.remainder == poly(1, 1, 1)
        assert not err.remainder.is_zero

    def test_divide_by_zero(self):
        with pytest.raises(ZeroPolynomial):
            ONE.divmod(ZERO)

    def test_divmod_short_dividend(self):
        quo, rem = ONE.divmod(poly(1, 1))
        assert quo == ZERO and rem == ONE

    @given(polys, nonzero_polys)
    def test_divmod_reconstructs(self, f, g):
        quo, rem = f.divmod(g)
        assert quo * g + rem == f

    @given(polys, nonzero_polys)
    @settings(max_examples=60)
    def test_exact_div_inverts_mul(self, f, g):
        if f.is_zero:
            assert (f * g).exact_div(g) == ZERO
        else:
            assert (f * g).exact_div(g) == f


class TestEval:
    def test_spot_value(self):
        assert poly(1, 1, 2, 1).eval_at(2) == 19

    def test_geometric(self):
        assert geometric(3) == poly(1, 1, 1)
        assert geometric(0) == ZERO
        assert geometric(-2) == ZERO
        assert geometric(5).eval_at(2) == 31


class TestRendering:
    def test_text(self):
        assert poly(1, 1, 2, 1).text() == "p^3 + 2*p^2 + p + 1"
        assert poly(0, -1, 0, 3).text() == "3*p^3 - p"
        assert poly(-2).text() == "-2"
        assert ZERO.text() == "0"
        assert str(P) == "p"

    def test_json_round_trip(self):
        f = poly(1, 0, -3, 5)
        assert IntPoly(f.to_json()) == f
        assert ZERO.to_json() == []
        assert json.dumps(f.to_json()) == "[1, 0, -3, 5]"

    @given(polys)
    def test_json_round_trip_any(self, f):
        assert IntPoly(f.to_json()) == f


class TestHashing:
    def test_usable_as_dict_key(self):
        d = {poly(1, 1): "a"}
        assert d[poly(1, 1)] == "a"

    def test_int_equality(self):
        assert poly(5) == 5
        assert poly(5) != 6
        assert ZERO == 0

    def test_constants_hash_as_their_ints(self):
        # equal objects must hash equally, or sets and dicts split them
        assert len({poly(5), 5}) == 1
        assert {5: "x"}.get(poly(5)) == "x"
        assert {0: "zero"}.get(ZERO) == "zero"
        assert hash(ZERO) == hash(0) and hash(poly(-3)) == hash(-3)


class TestForeignOperands:
    def test_arithmetic_with_a_string_raises(self):
        f = poly(1)
        for op in (add, sub, mul):
            with pytest.raises(TypeError):
                op(f, "x")
            with pytest.raises(TypeError):
                op("x", f)
        with pytest.raises(TypeError, match="cannot divide"):
            f.divmod("x")


def slot_lists(width):
    """(width, slots): slots below 2**width, many of them 0, the top one nonzero."""
    full = 2 ** width - 1
    low = st.lists(st.one_of(st.just(0), st.integers(0, full)), max_size=6)
    return st.tuples(st.just(width), low, st.integers(1, full))


class TestSlotCodec:
    @given(st.one_of(*[slot_lists(width) for width in (64, 128, 192)]))
    @example((64, [0, 5, 0], 2 ** 64 - 1))
    @example((128, [2 ** 64, 0, 2 ** 64 - 1], 2 ** 128 - 1))
    @example((192, [0, 2 ** 128 + 1], 1))
    def test_round_trip(self, case):
        width, low, top = case
        slots = low + [top]
        value = sum(c << (width * i) for i, c in enumerate(slots))
        assert unpack_slots(value, width) == slots

    @pytest.mark.parametrize("width", [64, 128, 192])
    def test_zero_has_no_slots(self, width):
        assert unpack_slots(0, width) == []

    def test_slot_width_boundaries(self):
        assert slot_width(0) == 64
        assert slot_width(2 ** 63 - 1) == 64
        assert slot_width(2 ** 63) == 128
        assert slot_width(2 ** 127 - 1) == 128
        assert slot_width(2 ** 127) == 192
