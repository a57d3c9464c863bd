"""Truncated trivariate series checks for the rank-2 counting functions.

A MultiSeries is a power series in x1, x2, y truncated to a bounds box, with
IntPoly coefficients (polynomials in p).  A rational expression is expanded
by dividing its numerator by each denominator factor in turn, one pass over
the box per factor, and the resulting coefficients are compared against
recurrence values.
"""

from itertools import product

from .polyring import ONE, ZERO, IntPoly, geometric
from .recurrence import count_stehling

_MINUS_ONE = IntPoly((-1,))


class OutOfBounds(ValueError):
    """Raised when a coefficient outside the truncation box is requested."""


class NonUnitConstant(ValueError):
    """Raised when a denominator factor has constant term other than +-1."""


class MultiSeries:
    """Power series in (x1, x2, y) truncated to a bounds box."""

    __slots__ = ("bounds", "_data")

    def __init__(self, bounds, data=None):
        self.bounds = tuple(bounds)
        if len(self.bounds) != 3 or any(v < 0 for v in self.bounds):
            raise ValueError("bounds must be three nonnegative ints")
        cleaned = {}
        for mono, coeff in (data or {}).items():
            if not isinstance(coeff, IntPoly):
                coeff = IntPoly(coeff)
            if coeff.is_zero:
                continue
            if all(0 <= e <= bound for e, bound in zip(mono, self.bounds)):
                cleaned[tuple(mono)] = coeff
        self._data = cleaned

    @classmethod
    def from_terms(cls, bounds, terms):
        """Build from (e1, e2, ey, coeff) tuples; out-of-box terms truncate away."""
        data = {}
        for e1, e2, ey, coeff in terms:
            if not isinstance(coeff, IntPoly):
                coeff = IntPoly(coeff)
            mono = (e1, e2, ey)
            data[mono] = data.get(mono, ZERO) + coeff
        return cls(bounds, data)

    def coeff(self, e1, e2, ey):
        """Coefficient of x1**e1 * x2**e2 * y**ey as an IntPoly."""
        mono = (e1, e2, ey)
        if any(e < 0 or e > bound for e, bound in zip(mono, self.bounds)):
            raise OutOfBounds("monomial %r outside bounds %r" % (mono, self.bounds))
        return self._data.get(mono, ZERO)

    @property
    def monomials(self):
        return sorted(self._data)

    def __add__(self, other):
        self._check_compatible(other)
        data = dict(self._data)
        for mono, coeff in other._data.items():
            total = data.get(mono, ZERO) + coeff
            if total.is_zero:
                data.pop(mono, None)
            else:
                data[mono] = total
        return MultiSeries(self.bounds, data)

    def __eq__(self, other):
        if isinstance(other, MultiSeries):
            return self.bounds == other.bounds and self._data == other._data
        return NotImplemented

    def __repr__(self):
        return "MultiSeries(%r, %d terms)" % (self.bounds, len(self._data))

    def _check_compatible(self, other):
        if not isinstance(other, MultiSeries):
            raise TypeError("expected a MultiSeries, got %r" % (other,))
        if other.bounds != self.bounds:
            raise ValueError("bounds differ: %r vs %r" % (self.bounds, other.bounds))


def expand_rational(numerator, factors):
    """numerator / product(factors), expanded under the numerator's bounds.

    Each factor must have constant term +1 or -1, so a factor may be given
    as either (1 - c*x) or (c*x - 1); a -1 constant flips the sign of the
    whole expansion.  Each factor f = c0 + sum f[m]*x**m divides the series
    in one pass over the box in lexicographic order, by
    s[e] = c0*(acc[e] - sum f[m]*s[e - m]).  Every e - m in the box comes
    before e, so its coefficient is already known; one with a negative
    exponent is zero.
    """
    bounds = numerator.bounds
    box = list(product(*(range(bound + 1) for bound in bounds)))
    acc = numerator._data
    for factor in factors:
        c0 = factor._data.get((0, 0, 0), ZERO)
        if c0 != ONE and c0 != _MINUS_ONE:
            raise NonUnitConstant(
                "constant term must be 1 or -1, got %s" % (c0,))
        numerator._check_compatible(factor)
        flip = c0 != ONE
        terms = [(m, c) for m, c in factor._data.items() if m != (0, 0, 0)]
        quotient = {}
        for e in box:
            total = acc.get(e, ZERO)
            for (m1, m2, my), c in terms:
                known = quotient.get((e[0] - m1, e[1] - m2, e[2] - my))
                if known is not None:
                    total = total - c * known
            if total:
                quotient[e] = -total if flip else total
        acc = quotient
    return MultiSeries(bounds, acc)


def _series(bounds, *terms):
    return MultiSeries.from_terms(bounds, terms)


_P = IntPoly((0, 1))


def _f2_formula(bounds):
    """The rank-2 full series as a numerator and factor list."""
    numerator = _series(
        bounds,
        (2, 1, 2, ONE),
        (2, 1, 1, ONE),
        (1, 1, 1, IntPoly((-1,))),
        (0, 0, 0, IntPoly((-1,))),
    )
    factors = [
        _series(bounds, (0, 0, 0, ONE), (1, 0, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 0, 1, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 2, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, IntPoly((-1,))), (1, 1, 1, _P)),
    ]
    return numerator, factors


def _mismatch(mono, expected, got):
    return {
        "monomial": list(mono),
        "expected": expected.to_json(),
        "got": got.to_json(),
    }


def _rank2_mismatches(series, bounds, keep=lambda u, v: True):
    """Compare the series with count_stehling on the exponents u >= v kept.

    The coefficient of x1**u * x2**v * y**r must count the subgroups of
    order p**r in the type (v, u); keep(u, v) picks the cells a piece covers.
    """
    mismatches = []
    for u in range(0, bounds[0] + 1):
        for v in range(0, min(u, bounds[1]) + 1):
            if not keep(u, v):
                continue
            for r in range(0, min(u + v, bounds[2]) + 1):
                expected = count_stehling((v, u), r)
                got = series.coeff(u, v, r)
                if got != expected:
                    mismatches.append(_mismatch((u, v, r), expected, got))
    return mismatches


def verify_F2(bounds=(6, 6, 6)):
    """Expand the full-series formula and check it on every cell u >= v.

    Returns mismatch records; empty means the check passed.
    """
    return _rank2_mismatches(expand_rational(*_f2_formula(bounds)), bounds)


def verify_g_product(bounds=(6, 6, 6)):
    """Expand the four-factor product and check its staircase coefficients.

    For exponents u >= v >= r the coefficient must be 1 + p + ... + p**r.
    Returns mismatch records; empty means the check passed.
    """
    numerator = _series(bounds, (0, 0, 0, ONE))
    factors = [
        _series(bounds, (0, 0, 0, ONE), (1, 0, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 1, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 1, IntPoly((0, -1)))),
    ]
    series = expand_rational(numerator, factors)
    mismatches = []
    for u in range(0, bounds[0] + 1):
        for v in range(0, min(u, bounds[1]) + 1):
            for r in range(0, min(v, bounds[2]) + 1):
                expected = geometric(r + 1)
                got = series.coeff(u, v, r)
                if got != expected:
                    mismatches.append(_mismatch((u, v, r), expected, got))
    return mismatches


# -- sub-series split: two candidate readings for each piece ----------------

def _f20_readings(bounds):
    shared_factors = [
        _series(bounds, (0, 0, 0, ONE), (1, 1, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 1, IntPoly((0, -1)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 2, IntPoly((-1,)))),
    ]
    corrected = (_series(bounds, (0, 0, 0, ONE), (1, 1, 1, ONE)), shared_factors)
    literal = (_series(bounds, (0, 0, 0, ONE), (0, 2, 1, ONE)), shared_factors)
    return [("numerator 1 + x1*x2*y", corrected),
            ("numerator 1 + x2^2*y", literal)]


def _f21_readings(bounds):
    corrected_num = _series(
        bounds,
        (1, 0, 0, ONE),
        (1, 0, 1, ONE),
        (2, 0, 1, IntPoly((-1,))),
        (3, 1, 2, IntPoly((-1,))),
    )
    corrected_factors = [
        _series(bounds, (0, 0, 0, ONE), (1, 0, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 0, 1, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 1, IntPoly((0, -1)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 2, IntPoly((-1,)))),
    ]
    literal_num = _series(
        bounds,
        (0, 0, 0, ONE),
        (0, 0, 1, ONE),
        (1, 0, 1, IntPoly((-1,))),
        (2, 1, 2, ONE),
    )
    literal_factors = [
        _series(bounds, (0, 0, 0, ONE), (1, 0, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 0, 1, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 0, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 1, IntPoly((-1,)))),
        _series(bounds, (0, 0, 0, ONE), (1, 1, 1, IntPoly((0, -1)))),
    ]
    return [
        ("numerator x1*(1 + y - x1*y - x1^2*x2*y^2) over five factors",
         (corrected_num, corrected_factors)),
        ("numerator 1 + y - x1*y + x1^2*x2*y^2 with factor 1 - x1*x2*y",
         (literal_num, literal_factors)),
    ]


def verify_sub_series(bounds=(6, 6, 6)):
    """Check the two sub-series under each candidate reading.

    The equal-exponent piece is compared against the recurrence on the
    diagonal, the strict piece off the diagonal, and the validated pair is
    summed and compared against the full series.  The report says which
    reading of each piece survives.
    """
    report = {"bounds": list(bounds), "equal_piece": [], "strict_piece": []}
    series_by_name = {}
    for side, readings, keep in (
            ("equal_piece", _f20_readings(bounds), lambda u, v: u == v),
            ("strict_piece", _f21_readings(bounds), lambda u, v: u > v)):
        for name, (num, factors) in readings:
            series = expand_rational(num, factors)
            mism = _rank2_mismatches(series, bounds, keep)
            series_by_name[name] = series
            report[side].append(
                {"reading": name, "ok": not mism, "mismatches": mism[:5]})
    good_f20 = [e["reading"] for e in report["equal_piece"] if e["ok"]]
    good_f21 = [e["reading"] for e in report["strict_piece"] if e["ok"]]
    report["validated"] = {
        "equal_piece": good_f20[0] if good_f20 else None,
        "strict_piece": good_f21[0] if good_f21 else None,
    }
    sum_ok = False
    sum_mismatches = []
    if good_f20 and good_f21:
        total = series_by_name[good_f20[0]] + series_by_name[good_f21[0]]
        full = expand_rational(*_f2_formula(bounds))
        for mono in sorted(set(total.monomials) | set(full.monomials)):
            a, bcoef = total.coeff(*mono), full.coeff(*mono)
            if a != bcoef:
                sum_mismatches.append(_mismatch(mono, bcoef, a))
        sum_ok = not sum_mismatches
    report["sum_matches_full"] = sum_ok
    report["sum_mismatches"] = sum_mismatches[:5]
    report["ok"] = bool(good_f20 and good_f21 and sum_ok)
    return report
