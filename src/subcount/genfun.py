"""Truncated trivariate series checks for the rank-2 counting functions.

A MultiSeries is a power series in x1, x2, y truncated to a bounds box.  Each
coefficient, a polynomial in p, is held as one Python int: the polynomial
evaluated at 2**width, one signed width-bit slot per power of p.  A rational
expression is expanded by dividing its numerator by each denominator factor
in turn, one pass over a flat list of the box per factor, and the resulting
coefficients are compared, still packed, against recurrence values.  This
module packs and unpacks its own signed values, so it shares no arithmetic
with the packed Stehling recurrence it checks; only the width rule,
polyring.slot_width, is common to both.
"""

from itertools import product
from math import prod

from .groups import GroupType
from .polyring import P, IntPoly, geometric, slot_width
from .recurrence import count_stehling


class OutOfBounds(ValueError):
    """Raised when a coefficient outside the truncation box is requested."""


class NonUnitConstant(ValueError):
    """Raised when a denominator factor has constant term other than +-1."""


# A polynomial c_0 + c_1*p + ... is packed as the int sum of c_i * 2**(i*w).
# Evaluation at 2**w is a ring map, so int sums and products of packed values
# are the packed sums and products, exactly, at any size.  Decoding is exact
# when every coefficient lies in [-2**(w-1), 2**(w-1)): the lowest slot is
# then the signed residue of the value mod 2**w, and the rest is the value
# less that slot, shifted down.  So two packed values whose coefficients fit
# are equal iff their polynomials are.  A series' width w is
# polyring.slot_width of a proved bound on the absolute values of its
# coefficients, the least whole number of 64-bit words whose signed slots
# hold it.

def _pack(coeffs, width):
    """The packed value of ascending coefficients; raises if one does not fit."""
    half = 1 << (width - 1)
    value = 0
    for c in reversed(coeffs):
        if not -half <= c < half:
            raise OverflowError(
                "coefficient %d does not fit a signed %d-bit slot" % (c, width))
        value = (value << width) + c
    return value


def _unpack(value, width):
    """The IntPoly packed in value at width bits a slot."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    coeffs = []
    while value:
        c = ((value + half) & mask) - half
        coeffs.append(c)
        value = (value - c) >> width
    return IntPoly(coeffs)


def _three_counts(exponents):
    """Whether exponents is three nonnegative ints, none of them a bool."""
    return len(exponents) == 3 and all(
        isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exponents)


class MultiSeries:
    """Power series in (x1, x2, y) truncated to a bounds box.

    data maps monomials, tuples of three nonnegative int exponents, to
    coefficients, each an IntPoly or an int; a monomial past the bounds
    truncates away.  coeff() returns IntPolys.
    """

    __slots__ = ("bounds", "_data", "_width")

    def __init__(self, bounds, data=None):
        self.bounds = tuple(bounds)
        if not _three_counts(self.bounds):
            raise ValueError("bounds must be three nonnegative ints")
        polys = {}
        for mono, coeff in (data or {}).items():
            if not (isinstance(mono, tuple) and _three_counts(mono)):
                raise ValueError(
                    "monomial %r needs three nonnegative int exponents" % (mono,))
            if isinstance(coeff, int):
                coeff = IntPoly((coeff,))
            elif not isinstance(coeff, IntPoly):
                raise TypeError("coefficient %r is neither an int nor an IntPoly"
                                % (coeff,))
            if not coeff.is_zero and all(e <= b for e, b in zip(mono, self.bounds)):
                polys[mono] = coeff
        self._width = slot_width(max(
            (abs(c) for poly in polys.values() for c in poly.coeffs), default=0))
        self._data = {mono: _pack(poly.coeffs, self._width)
                      for mono, poly in polys.items()}

    @classmethod
    def _packed(cls, bounds, data, bound):
        """Wrap nonzero packed values whose coefficients are at most bound."""
        series = object.__new__(cls)
        series.bounds = bounds
        series._data = data
        series._width = slot_width(bound)
        return series

    def coeff(self, e1, e2, ey):
        """Coefficient of x1**e1 * x2**e2 * y**ey as an IntPoly."""
        mono = (e1, e2, ey)
        # a negative int lies outside the box; a bool or a float is no exponent
        if not _three_counts(mono) and not all(e.__class__ is int for e in mono):
            raise ValueError(
                "monomial %r needs three nonnegative int exponents" % (mono,))
        if any(e < 0 or e > bound for e, bound in zip(mono, self.bounds)):
            raise OutOfBounds("monomial %r outside bounds %r" % (mono, self.bounds))
        return _unpack(self._data.get(mono, 0), self._width)

    @property
    def monomials(self):
        return sorted(self._data)

    def _at(self, width):
        """The packed values at another width (the same dict at this one)."""
        if width == self._width:
            return self._data
        return {mono: _pack(_unpack(value, self._width).coeffs, width)
                for mono, value in self._data.items()}

    def _norm(self):
        """Sum of the absolute values of every coefficient of every cell."""
        return sum(abs(c) for value in self._data.values()
                   for c in _unpack(value, self._width).coeffs)

    def __repr__(self):
        return "MultiSeries(%r, %d terms)" % (self.bounds, len(self._data))


# Width of an expansion.  Write |s| for the sum of the absolute values of
# every p-coefficient of every cell of s; it bounds each coefficient and is
# submultiplicative under the truncated product, which only drops terms.  In
# the box, a factor f = c0 + g with c0 = +-1 has 1/f = c0 * sum_j (-c0*g)**j
# over j <= N = B1 + B2 + B3, because the one term g has total degree at
# least 1.  The one-pass division yields the unique q with q*f = acc in the
# box, which is that truncated product, so |acc/f| <= |acc| * S_f with
# S_f = sum_{j <= N} |g|**j.  By induction over the factors, every
# coefficient of every partial quotient is at most |num| * prod_f S_f.  The
# paper's factors each have one term of coefficient +-1 or +-p, so |g| = 1
# and S_f = N + 1: the full rank-2 series at (12, 12, 12) stays below
# 4 * 37**5 < 2**29, in 64-bit slots.  The walk's partial sums need no bound,
# because packed ints are exact at any size; only decoding and comparison
# need each coefficient inside its slot.

def expand_rational(numerator, factors):
    """numerator / product(factors), expanded under the numerator's bounds.

    Each factor is c0 + c*x1**m1 * x2**m2 * y**my, the shape of the paper's
    series: c0 is +1 or -1, so (1 - c*x) and (c*x - 1) both serve, and m1 or
    m2 is positive.  Before any argument is read, one that is not a
    MultiSeries raises TypeError, and a factor with other bounds than the
    numerator's raises ValueError.  A factor of any other shape raises before
    any work is done.  As
    f = c0 * (1 + c0*c*x**m), the product of the constants signs the whole
    expansion, and each factor divides the series in one pass over the box by
    s[e] = acc[e] - c0*c*s[e - m]; a cell e - m with a negative exponent is
    zero.  The box is a flat list indexed by (e1*(B2 + 1) + e2)*(B3 + 1) + ey,
    so the term is one index offset d back to an earlier line of fixed
    (e1, e2), which is final: the quotient overwrites acc a line at a time.
    """
    for series in (numerator, *factors):
        if not isinstance(series, MultiSeries):
            raise TypeError("expected a MultiSeries, got %r" % (series,))
        if series.bounds != numerator.bounds:
            raise ValueError(
                "bounds differ: %r vs %r" % (numerator.bounds, series.bounds))
    bounds = numerator.bounds
    bound = numerator._norm()
    for factor in factors:
        c0 = factor._data.get((0, 0, 0), 0)
        if c0 != 1 and c0 != -1:
            raise NonUnitConstant(
                "constant term must be 1 or -1, got %s" % (factor.coeff(0, 0, 0),))
        m1, m2, my = factor.monomials[-1]  # the term, or the constant if it truncated
        if len(factor._data) > 2 or my and not (m1 or m2):
            raise ValueError("factor %s is not +-1 and one term in x1 or x2"
                             % (factor.monomials,))
        norm = factor._norm() - 1
        bound *= sum(norm ** j for j in range(sum(bounds) + 1))
    width = slot_width(bound)
    b1, b2, b3 = bounds
    sy = b3 + 1
    s2 = (b2 + 1) * sy
    cells = list(product(range(b1 + 1), range(b2 + 1), range(sy)))
    acc = [0] * len(cells)
    sign = prod(factor._data[(0, 0, 0)] for factor in factors)
    for (e1, e2, ey), value in numerator._at(width).items():
        acc[e1 * s2 + e2 * sy + ey] = sign * value
    for factor in factors:
        packed = factor._at(width)
        m1, m2, my = term = max(packed)  # the constant, if the term truncated
        if m1 or m2:
            d = m1 * s2 + m2 * sy + my
            c = packed[(0, 0, 0)] * packed[term]
            for e1 in range(m1, b1 + 1):
                for i in range(e1 * s2 + m2 * sy, (e1 + 1) * s2, sy):
                    lo, hi = i + my, i + sy
                    known = acc[lo - d:hi - d]
                    if any(known):
                        acc[lo:hi] = [a - c * b for a, b in zip(acc[lo:hi], known)]
    return MultiSeries._packed(
        bounds, {cells[i]: value for i, value in enumerate(acc) if value}, bound)


# The paper's rank-2 series.  Each denominator factor is written once, as
# {monomial: coefficient} over the exponents of (x1, x2, y); each series is a
# numerator in the same form and the names of its factors.  The full series
# F2 splits into an equal-exponent piece and a strict piece, each in its
# corrected form; tests/test_genfun.py keeps the two forms as printed, which
# fail.
_FACTORS = {
    "1 - x1": {(0, 0, 0): 1, (1, 0, 0): -1},
    "1 - x1*y": {(0, 0, 0): 1, (1, 0, 1): -1},
    "1 - x1*x2": {(0, 0, 0): 1, (1, 1, 0): -1},
    "1 - x1*x2*y": {(0, 0, 0): 1, (1, 1, 1): -1},
    "1 - p*x1*x2*y": {(0, 0, 0): 1, (1, 1, 1): -P},
    "p*x1*x2*y - 1": {(0, 0, 0): -1, (1, 1, 1): P},
    "1 - x1*x2*y^2": {(0, 0, 0): 1, (1, 1, 2): -1},
}
_SERIES = {
    "full": ({(2, 1, 2): 1, (2, 1, 1): 1, (1, 1, 1): -1, (0, 0, 0): -1},
             ("1 - x1", "1 - x1*y", "1 - x1*x2", "1 - x1*x2*y^2", "p*x1*x2*y - 1")),
    "staircase": ({(0, 0, 0): 1},
                  ("1 - x1", "1 - x1*x2", "1 - x1*x2*y", "1 - p*x1*x2*y")),
    "equal_piece": ({(0, 0, 0): 1, (1, 1, 1): 1},
                    ("1 - x1*x2", "1 - p*x1*x2*y", "1 - x1*x2*y^2")),
    "strict_piece": ({(1, 0, 0): 1, (1, 0, 1): 1, (2, 0, 1): -1, (3, 1, 2): -1},
                     ("1 - x1", "1 - x1*y", "1 - x1*x2", "1 - p*x1*x2*y",
                      "1 - x1*x2*y^2")),
}
# which cells u >= v of the box each piece of the split covers
_PIECES = {"equal_piece": lambda u, v: u == v, "strict_piece": lambda u, v: u > v}


def _expand(bounds, formula):
    """The expansion in the bounds box of a (numerator, factor names) entry."""
    numerator, factors = formula
    return expand_rational(MultiSeries(bounds, numerator),
                           [MultiSeries(bounds, _FACTORS[name]) for name in factors])


def _mismatches(series, expected):
    """Records of the cells of the box where the series differs from expected.

    expected maps cells to IntPolys and is 0 on every other cell of the box.
    Its cells are compared in order: each value is packed at the series'
    width and compared with the packed cell, and only a cell that differs is
    unpacked.  A value too wide for the slots equals no cell, so it is a
    mismatch too.  Then each nonzero cell of the series that expected leaves
    out is a mismatch, in cell order.
    """
    width = series._width
    data = series._data
    found = []
    for cell, want in expected.items():
        got = data.get(cell, 0)
        try:
            same = got == _pack(want.coeffs, width)
        except OverflowError:
            same = False
        if not same:
            found.append({
                "monomial": list(cell),
                "expected": want.to_json(),
                "got": _unpack(got, width).to_json(),
            })
    found += [{"monomial": list(cell), "expected": [],
               "got": _unpack(data[cell], width).to_json()}
              for cell in sorted(cell for cell in data if cell not in expected)]
    return found


def _rank2_counts(bounds, keep=lambda u, v: True):
    """The cells u >= v kept, with the count_stehling value each must have.

    The coefficient of x1**u * x2**v * y**r must count the subgroups of
    order p**r in the type (v, u); keep(u, v) picks the cells a piece covers.
    """
    counts = {}
    for u in range(0, bounds[0] + 1):
        for v in range(0, min(u, bounds[1]) + 1):
            if keep(u, v):
                t = GroupType((v, u))
                for r in range(0, min(u + v, bounds[2]) + 1):
                    counts[u, v, r] = count_stehling(t, r)
    return counts


def verify_F2(bounds=(6, 6, 6)):
    """Expand the full-series formula and check it on every cell of the box.

    A cell u >= v must hold its count, and every other cell 0.  Returns
    mismatch records; empty means the check passed.
    """
    return _mismatches(_expand(bounds, _SERIES["full"]), _rank2_counts(bounds))


def verify_g_product(bounds=(6, 6, 6)):
    """Expand the four-factor product and check it on every cell of the box.

    For exponents u >= v >= r the coefficient must be 1 + p + ... + p**r,
    and 0 elsewhere.  Returns mismatch records; empty means the check passed.
    """
    steps = [geometric(r + 1) for r in range(bounds[2] + 1)]
    return _mismatches(_expand(bounds, _SERIES["staircase"]), {
        (u, v, r): steps[r]
        for u in range(0, bounds[0] + 1)
        for v in range(0, min(u, bounds[1]) + 1)
        for r in range(0, min(v, bounds[2]) + 1)})


def verify_sub_series(bounds=(6, 6, 6)):
    """Check the two pieces of the full series on every cell of the box.

    The equal-exponent piece must hold the counts on u == v and the strict
    piece the counts on u > v, each 0 elsewhere.  With verify_F2, which
    shows the full series is the counts on u >= v and 0 elsewhere, this
    proves the pieces sum to the full series in the box, so no sum is
    checked.  Returns the equal piece's mismatch records, then the strict
    piece's; empty means the check passed.
    """
    return [record for side, keep in _PIECES.items()
            for record in _mismatches(_expand(bounds, _SERIES[side]),
                                      _rank2_counts(bounds, keep))]
