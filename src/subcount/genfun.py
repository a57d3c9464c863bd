"""Truncated trivariate series checks for the rank-2 counting functions.

A MultiSeries is a power series in x1, x2, y truncated to a bounds box.  It
holds one Python int per (x1, x2) line of the box: the line's polynomial in
p and y evaluated at p = 2**W and y = 2**stride, so each cell y**ey sits at
bit ey * stride, one signed W-bit slot per power of p, and stride =
W * (D + 1) leaves room for cells up to p-degree D.  A rational expression
is expanded by dividing its numerator by each denominator factor in turn,
one big-int step per line per factor, and a check packs each line of its
reference values the same way and compares whole lines.  This module packs
and unpacks its own values, so it shares no arithmetic with the packed
Stehling recurrence it checks; only the width rule, polyring.slot_width, is
common to both.
"""

import sys
from array import array

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
# hold it, so every coefficient lies in (-2**(w-1), 2**(w-1)).
#
# A line packs its cells the same way, a cell of p-degree at most D being
# D + 1 slots: the line is the sum of cell_ey * 2**(ey * stride), so it is
# one run of slots, and two lines whose slots fit and whose cells have
# p-degree at most D are equal iff their cells are.  With every
# slot inside (-2**(w-1), 2**(w-1)), the cells below y**ey sum to less than
# 2**(ey*stride - 1) in absolute value, and each cell to less than
# 2**(stride - 1), so adding 2**(stride - 1) to every cell makes each one a
# nonnegative stride-bit field with no borrow from the cell below.

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


def _slots(value, width):
    """The signed width-bit slots of value, lowest first, up to the last nonzero."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    slots = []
    while value:
        c = ((value + half) & mask) - half
        slots.append(c)
        value = (value - c) >> width
    return slots


def _unpack(value, width):
    """The IntPoly packed in value at width bits a slot."""
    return IntPoly(_slots(value, width))


def _pack_line(cells, width, degree):
    """The packed line of cells (IntPolys from y**0 up), or None if one does not fit.

    A line for comparison only.  Each coefficient must lie in [0, 2**63):
    it is written as the low 64-bit word of its slot, so it must read back
    as itself from a signed slot, and a negative one would be written
    without its borrow.  Each cell must have p-degree at most degree, so
    that none spills into the next.  A line that does not fit could equal
    the packed line of other cells, so it is not packed.
    """
    words = width // 64
    step = (degree + 1) * words
    line = [0] * (len(cells) * step)
    for ey, cell in enumerate(cells):
        coeffs = cell.coeffs
        if len(coeffs) > degree + 1:
            return None
        start = ey * step
        line[start:start + len(coeffs) * words:words] = coeffs
    try:
        packed = array("Q", line)
    except OverflowError:  # a negative word, or one of 2**64 or more
        return None
    if sys.byteorder == "big":
        packed.byteswap()
    raw = packed.tobytes()
    # every word's top byte is below 0x80, so every word is below 2**63
    return int.from_bytes(raw, "little") if raw[7::8].isascii() else None


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

    __slots__ = ("bounds", "_lines", "_width", "_degree")

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
                polys[mono] = coeff.coeffs
        self._width = width = slot_width(max(
            (abs(c) for coeffs in polys.values() for c in coeffs), default=0))
        self._degree = max(map(len, polys.values()), default=1) - 1
        self._lines = _lines(self.bounds, polys, width, self._degree)

    @classmethod
    def _packed(cls, bounds, lines, width, degree):
        """Wrap packed lines whose slots are width bits and cells of p-degree <= degree."""
        series = object.__new__(cls)
        series.bounds = bounds
        series._lines = lines
        series._width = width
        series._degree = degree
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
        stride = self._width * (self._degree + 1)
        half = 1 << (stride - 1)
        line = self._lines[e1 * (self.bounds[1] + 1) + e2]
        if ey:
            # the cells below sum to less than half the lowest bit shifted
            # out, so adding that half leaves no borrow in the cells above
            line = (line + (1 << (ey * stride - 1))) >> (ey * stride)
        return _unpack(((line + half) & ((1 << stride) - 1)) - half, self._width)

    @property
    def monomials(self):
        return list(self._fields())

    def _cells(self):
        """Every nonzero cell as {monomial: coefficients lowest first}, in monomial order."""
        half = 1 << (self._width * (self._degree + 1) - 1)
        return {mono: _slots(int.from_bytes(field, "little") - half, self._width)
                for mono, field in self._fields().items()}

    def _fields(self):
        """Every nonzero cell as {monomial: field}, in monomial order.

        A cell's field is its packed value plus 2**(stride - 1), which makes
        it nonnegative and free of borrows, as little-endian bytes.
        """
        count = self.bounds[2] + 1
        stride = self._width * (self._degree + 1)
        size = stride // 8
        half = 1 << (stride - 1)
        offset = half * ((1 << (count * stride)) - 1) // ((1 << stride) - 1)
        zero = half.to_bytes(size, "little")
        s2 = self.bounds[1] + 1
        fields = {}
        for i, line in enumerate(self._lines):
            if line:
                raw = (line + offset).to_bytes(size * count, "little")
                e1, e2 = divmod(i, s2)
                for ey in range(count):
                    field = raw[ey * size:(ey + 1) * size]
                    if field != zero:
                        fields[e1, e2, ey] = field
        return fields

    def __repr__(self):
        return "MultiSeries(%r, %d terms)" % (self.bounds, len(self.monomials))


def _lines(bounds, cells, width, degree, sign=1):
    """The packed lines of the box holding cells, {monomial: coefficients}, times sign."""
    stride = width * (degree + 1)
    s2 = bounds[1] + 1
    lines = [0] * ((bounds[0] + 1) * s2)
    for (e1, e2, ey), coeffs in cells.items():
        lines[e1 * s2 + e2] += sign * _pack(coeffs, width) << (ey * stride)
    return lines


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
# 4 * 37**5 < 2**29, in 64-bit slots.
#
# Degree of an expansion.  In the same truncated product every cell of a
# partial quotient is a sum of a numerator cell times prod_f c_f**j_f, where
# g_f = c_f * x**m_f and j_f * m_f fits the box, so j_f is at most the
# highest power J_f of g_f that fits it.  So every cell of every partial
# quotient has p-degree at most D = deg(num) + sum_f deg(c_f) * J_f, the
# degree bound of the lines: 12 for the full rank-2 series at (12, 12, 12).
#
# One step per line.  The division s[e] = acc[e] - c0*c*s[e - m] reads, for
# the line (e1, e2), the finished line (e1 - m1, e2 - m2) times c0*c and
# shifted up by my cells.  Evaluation at p = 2**W, y = 2**stride is a ring
# map, so that int is exactly the sum over ey of cell_ey * 2**(ey * stride)
# for the true cells of acc - c0*c*y**my*s_line, of which those up to y**B3
# are the quotient's, within the width and degree bounds.  Their sum is then
# less than 2**(stride*(B3 + 1) - 1) in absolute value, and the cells past
# y**B3 are a multiple of 2**(stride*(B3 + 1)); so the residue mod that power
# read as a signed number is exactly the quotient's line.  A borrow, from a
# negative cell or slot, is part of the int's value, not an error: the cells
# past y**B3 it reaches are dropped whole by the residue, and none reaches
# a cell of the box.  The residue is needed only when the known line has a
# cell past y**(B3 - my), which holds exactly when its absolute value is at
# least 2**((B3 + 1 - my)*stride - 1), by the bound on the cells below; a
# shorter known line leaves no cell past y**B3, and the difference is the
# quotient's line as it stands.  A line no factor writes, with a negative
# numerator cell or not, is the numerator's line as packed, already in the
# box.  The partial sums need no bound, because packed ints are exact at any
# size; only decoding and comparison need each cell inside its field.

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
    zero.  The box is a list of packed (x1, x2) lines, so the term is one
    index offset d back to an earlier line, which is final: the quotient
    overwrites acc one line, a single big-int step, at a time.
    """
    for series in (numerator, *factors):
        if not isinstance(series, MultiSeries):
            raise TypeError("expected a MultiSeries, got %r" % (series,))
        if series.bounds != numerator.bounds:
            raise ValueError(
                "bounds differ: %r vs %r" % (numerator.bounds, series.bounds))
    bounds = numerator.bounds
    cells = numerator._cells()
    bound = sum(abs(c) for coeffs in cells.values() for c in coeffs)
    degree = max(map(len, cells.values()), default=1) - 1
    sign = 1
    terms = []
    for factor in factors:
        parts = factor._cells()
        c0 = parts.get((0, 0, 0))
        if c0 != [1] and c0 != [-1]:
            raise NonUnitConstant(
                "constant term must be 1 or -1, got %s" % (factor.coeff(0, 0, 0),))
        m1, m2, my = term = max(parts)  # the term, or the constant if it truncated
        if len(parts) > 2 or my and not (m1 or m2):
            raise ValueError("factor %s is not +-1 and one term in x1 or x2"
                             % (list(parts),))
        sign *= c0[0]
        if m1 or m2:
            c = parts[term]
            bound *= sum(sum(map(abs, c)) ** j for j in range(sum(bounds) + 1))
            degree += (len(c) - 1) * min(b // m for b, m in zip(bounds, term) if m)
            terms.append((term, c0[0], c))
    width = slot_width(bound)
    stride = width * (degree + 1)
    b1, b2, b3 = bounds
    s2 = b2 + 1
    acc = _lines(bounds, cells, width, degree, sign)
    size = stride * (b3 + 1)
    mask = (1 << size) - 1
    half = 1 << (size - 1)
    for (m1, m2, my), c0, c in terms:
        c = c0 * _pack(c, width)
        shift = my * stride
        d = m1 * s2 + m2
        # a known line shorter than this has no cell past y**(B3 - my)
        reach = size - shift
        for e1 in range(m1, b1 + 1):
            for i in range(e1 * s2 + m2, (e1 + 1) * s2):
                known = acc[i - d]
                if known:
                    line = acc[i] - (c * known << shift)
                    if known.bit_length() >= reach:
                        line = ((line + half) & mask) - half
                    acc[i] = line
    return MultiSeries._packed(bounds, acc, width, degree)


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

    expected maps (x1, x2) lines, in order, to the IntPolys their cells
    y**0, y**1, ... must hold; every other cell of the box must be 0.  Each
    reference line is packed once in the series' layout and compared whole.
    Only if a line differs, or a reference cannot be packed (a value too wide
    for its slots or of too high a degree equals no cell), is the box
    decoded: then the reference cells that differ are records, in order,
    and after them each nonzero cell that expected leaves out, in cell order.
    """
    s2 = series.bounds[1] + 1
    want = [0] * len(series._lines)
    for (e1, e2), cells in expected.items():
        want[e1 * s2 + e2] = _pack_line(cells, series._width, series._degree)
    if want == series._lines:
        return []
    got = series._cells()
    found = []
    for (e1, e2), cells in expected.items():
        for ey, cell in enumerate(cells):
            have = IntPoly(got.pop((e1, e2, ey), ()))
            if have != cell:
                found.append({"monomial": [e1, e2, ey], "expected": cell.to_json(),
                              "got": have.to_json()})
    found += [{"monomial": list(mono), "expected": [], "got": coeffs}
              for mono, coeffs in got.items()]
    return found


def _rank2_counts(bounds, keep=lambda u, v: True):
    """The lines u >= v kept, with the count_stehling values their cells must have.

    The coefficient of x1**u * x2**v * y**r must count the subgroups of
    order p**r in the type (v, u); keep(u, v) picks the lines a piece covers.
    """
    counts = {}
    for u in range(0, bounds[0] + 1):
        for v in range(0, min(u, bounds[1]) + 1):
            if keep(u, v):
                t = GroupType((v, u))
                counts[u, v] = [count_stehling(t, r)
                                for r in range(0, min(u + v, bounds[2]) + 1)]
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
        (u, v): steps[:v + 1]
        for u in range(0, bounds[0] + 1)
        for v in range(0, min(u, bounds[1]) + 1)})


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
