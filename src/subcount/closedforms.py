"""Closed-form subgroup counts and their case catalogs.

Each closed form is stored as a ``CaseTable``, the tuple of its (coefficient,
exponent) pairs, both integer-linear expressions in a1, a2, a3 (the three
smallest parts, 0 past the rank) and the order index b; on the equal-part
types (m, m, m) and (m, m, m, m) the tables read a1 = m.  A table is compiled
into flat int rows when it is built; a table put into ``CATALOGS`` at run
time is built as a ``CaseTable`` too.  ``CATALOGS`` holds each family's tables
under its tag, and one evaluator serves them all: in one pass over a table's
rows it sums its terms on one packed int and divides the sum exactly by the
standard denominator prod_{i<rank} (p**i - 1).  Both are evaluated at p =
2**W, one divmod divides, and the quotient's W-bit slots, read by polyring's
slot codec, are its coefficients; W is set by a proved bound on those
coefficients.  The kernel answers or raises: a division it cannot prove exact
means a table is wrong, and so does an exact quotient with a negative or
over-bound coefficient; ``FormulaBug`` then names the case with the remainder
of the long division.
``closed_form`` picks the family that answers a query (t, b), and
``CHAMBERS`` its case: the lowest case whose chamber admits b.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import compress, count
from math import comb, prod

from .groups import GroupType, OutOfRange, RankMismatch, check_int
from .polyring import ONE, ZERO, IntPoly, slot_width, unpack_slots


class OrderViolation(ValueError):
    """Raised when chain arguments are not ascending positive integers."""


class FormulaBug(ArithmeticError):
    """A case table gave no count; names the offending case.

    A nonzero remainder means the table did not divide exactly.  A zero
    remainder means it did, but the quotient is not a count: a coefficient
    is negative or above the count bound.  A numerator past the packed
    kernel's l1 guard raises too; no right table has one.
    """

    def __init__(self, case, remainder):
        if remainder:
            fault = "did not divide exactly (remainder %s)" % (remainder,)
        else:
            fault = "divided exactly, but its quotient is not a count"
        super().__init__("closed form %s %s" % (case, fault))
        self.case = case
        self.remainder = remainder


class FormulaResult(namedtuple("FormulaResult", "value case covered")):
    """Outcome of a closed-form lookup.

    covered is False when no case of the family applies; value is then None.
    """

    __slots__ = ()

    @classmethod
    def miss(cls):
        return cls(None, None, False)


class CaseId(namedtuple("CaseId", "family case")):
    """Which closed-form case produced a value."""

    __slots__ = ()

    def __new__(cls, family, case):
        if family not in CASE_RANGES:
            raise ValueError("unknown family tag %r" % (family,))
        check_int("case", case)
        if not 1 <= case <= CASE_RANGES[family]:
            raise ValueError("case %d out of range for %s" % (case, family))
        return tuple.__new__(cls, (family, case))

    def __str__(self):
        return "%s Case %d" % (self.family, self.case)


class LinForm(namedtuple("LinForm", "coeffs const")):
    """Integer-linear expression in a1, a2, a3 and b, plus a constant."""

    VARS = ("a1", "a2", "a3", "b")

    __slots__ = ()

    def __new__(cls, coeffs=(0, 0, 0, 0), const=0):
        return tuple.__new__(cls, (tuple(coeffs), const))

    @classmethod
    def of(cls, const=0, **named):
        coeffs = [0] * len(cls.VARS)
        for name, c in named.items():
            coeffs[cls.VARS.index(name)] = c
        return cls(tuple(coeffs), const)

    def subst(self, mapping):
        """Substitute variables simultaneously; mapping is var -> LinForm."""
        coeffs = [0] * len(self.VARS)
        const = self.const
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            repl = mapping.get(self.VARS[i])
            if repl is None:
                coeffs[i] += c
            else:
                for j, r in enumerate(repl.coeffs):
                    coeffs[j] += c * r
                const += c * repl.const
        return LinForm(tuple(coeffs), const)


L = LinForm.of


class CaseTable(tuple):
    """A case table: the tuple of its (coefficient, exponent) terms, compiled when built.

    It iterates, indexes and compares as that tuple.  fixed holds a row
    (c, e, e1, e2, e3, eb) for each term whose coefficient is a nonzero
    constant c, l1 is the sum of their |c|, and linear holds a row (c, c1,
    c2, c3, cb, e, e1, e2, e3, eb) for each term whose coefficient reads a
    variable.  A term whose coefficient is the constant 0 has no row.
    """

    def __new__(cls, terms):
        table = super().__new__(cls, terms)
        fixed, linear = [], []
        for (cs, c), (es, e) in table:
            if any(cs):
                linear.append((c, *cs, e, *es))
            elif c:
                fixed.append((c, e, *es))
        table.fixed, table.linear = tuple(fixed), tuple(linear)
        table.l1 = sum(abs(row[0]) for row in fixed)
        return table


def _pm1_product(steps):
    """prod (p**i - 1) over steps, as an IntPoly."""
    return prod((IntPoly.term(1, i) - 1 for i in steps), start=ONE)


def substitute_table(table, mapping):
    """Apply a simultaneous variable substitution to every table term."""
    return CaseTable((c.subst(mapping), e.subst(mapping)) for c, e in table)


def merge_table(table):
    """Collect a table by exponent form; returns exponent -> net coefficient."""
    merged = {}
    for coeff, exp in table:
        cur = merged.get(exp)
        if cur is None:
            merged[exp] = coeff
        else:
            merged[exp] = LinForm(
                tuple(x + y for x, y in zip(cur.coeffs, coeff.coeffs)),
                cur.const + coeff.const,
            )
    zero = LinForm()
    return {e: c for e, c in merged.items() if c != zero}


def _terms(table, a1, a2, a3, b):
    """A table's nonzero terms at a1, a2, a3 and b, as (exponent, coefficient).

    A term with a nonzero coefficient needs a nonnegative exponent.
    """
    terms = []
    # each LinForm is ((a1, a2, a3, b) coefficients, constant)
    for ((c1, c2, c3, cb), c), ((e1, e2, e3, eb), e) in table:
        c += c1 * a1 + c2 * a2 + c3 * a3 + cb * b
        if c:
            e += e1 * a1 + e2 * a2 + e3 * a3 + eb * b
            if e < 0:
                raise ValueError("exponent must be nonnegative, got %d" % e)
            terms.append((e, c))
    return terms


def _poly(terms):
    """The IntPoly that is the sum of c * p**e over the (e, c) terms."""
    coeffs = [0] * (max(terms)[0] + 1 if terms else 0)
    for e, c in terms:
        coeffs[e] += c
    # int terms give int coefficients
    return IntPoly._trusted(coeffs)


# Exact division on one packed int.  The numerator N, the sum of its terms
# c * p**e, is packed as N(X), X = 2**W, the int sum of c << (W * e), and the
# denominator D = prod (p**i - 1) over steps as D(X), cached.  One divmod
# gives q, r = divmod(N(X), D(X)); the quotient U is read from q as its
# unsigned W-bit digits u_j by polyring.unpack_slots.  W is
# polyring.slot_width(bound * 2**k), the least multiple of 64 with
# 2**(W - 1) > bound * 2**k, k = len(steps), for a bound on the quotient's
# coefficients known before the division.  A right table's quotient counts
# subgroups, so its coefficients lie in [0, C(weight + rank, rank)] (the
# bound proved above recurrence._stehling).
#
# Claim: if ||N||_1 < 2**(W - 1), r == 0, q >= 0 and every u_j <= bound,
# then N = U * D.  Proof: U(X) = q, as q >= 0 has one expansion in digits
# in [0, X), so (U * D)(X) = N(X).  Each p**i - 1 has l1 norm 2, so every
# coefficient of U * D is at most bound * 2**k < 2**(W - 1) in absolute
# value, and every coefficient of N at most ||N||_1 < 2**(W - 1).  A
# polynomial with coefficients in (-2**(W - 1), 2**(W - 1)) is read back
# from its value at X slot by slot, the lowest slot being the value's
# signed residue mod X, so N and U * D, equal at X, are equal.  A right
# table passes: its quotient's coefficients lie in [0, bound], and its few
# terms, each linear in the parts, sum to far less than 2**63 in absolute
# value.  Anything else is a wrong table: FormulaBug reports it with the
# remainder of the long division by the whole denominator.

@lru_cache(maxsize=32)
def _packed_denominator(width, steps):
    """prod (p**i - 1) over steps, packed at width bits a slot."""
    return prod((1 << (width * i)) - 1 for i in steps)


def _quotient(packed, l1, width, steps, bound):
    """U with N = U * D by the claim above, from N(X) and l1 >= ||N||_1; None if unproved."""
    if not l1 >> (width - 1):
        q, r = divmod(packed, _packed_denominator(width, steps))
        if not r and q >= 0:
            coeffs = unpack_slots(q, width)
            if not coeffs or max(coeffs) <= bound:
                return IntPoly._trusted(coeffs)
    return None


def _divide(numerator, steps, bound, case):
    """The IntPoly numerator over prod(p**i - 1 for i in steps), for a quotient in [0, bound].

    steps is a tuple.  Unless the claim above proves the division exact,
    with every quotient coefficient in [0, bound], FormulaBug names the case.
    """
    coeffs = numerator.coeffs
    width = slot_width(bound << len(steps))
    packed = sum(c << (width * e) for e, c in enumerate(coeffs))
    value = _quotient(packed, sum(map(abs, coeffs)), width, steps, bound)
    if value is None:
        raise FormulaBug(case, numerator.divmod(_pm1_product(steps))[1])
    return value


def _evaluate(table, a1, a2, a3, b, steps, bound, case):
    """_divide(_poly(_terms(table, a1, a2, a3, b)), steps, bound, case).

    table is a CaseTable.  In one pass over its rows, each nonzero term is
    added into the packed numerator and its |c| into the l1 guard as it is
    evaluated.  The terms' |c| sum to at least the numerator's l1 norm, and
    to more where terms cancel: when the guard refuses, the terms are listed
    and _divide divides their sum.  They are listed otherwise only to raise.
    """
    width = slot_width(bound << len(steps))
    packed, l1 = 0, table.l1
    for c, c1, c2, c3, cb, e, e1, e2, e3, eb in table.linear:
        c += c1 * a1 + c2 * a2 + c3 * a3 + cb * b
        if c:
            e += e1 * a1 + e2 * a2 + e3 * a3 + eb * b
            if e < 0:
                _terms(table, a1, a2, a3, b)  # raises, naming the first such term
            packed += c << (width * e)
            l1 += abs(c)
    for c, e, e1, e2, e3, eb in table.fixed:
        e += e1 * a1 + e2 * a2 + e3 * a3 + eb * b
        if e < 0:
            _terms(table, a1, a2, a3, b)  # raises, as above
        packed += c << (width * e)
    value = _quotient(packed, l1, width, steps, bound)
    if value is None:
        return _divide(_poly(_terms(table, a1, a2, a3, b)), steps, bound, case)
    return value


# rank -> the steps of its standard denominator prod_{i<rank} (p**i - 1)
_STEPS = tuple(tuple(range(1, rank)) for rank in range(5))


def _by_chamber(family, parts, b, case_no=None):
    """Evaluate the lowest case of family whose chamber admits b, else give a miss.

    parts are ascending.  A case_no is evaluated in place of the lowest case,
    and raises OutOfRange if its chamber does not admit b.
    """
    m = sum(parts)
    _check_b(b, m)
    a1, a2, a3 = (parts + (0, 0))[:3]
    row = CHAMBERS[family](a1, a2, a3, b)
    if case_no is None:
        if True not in row:
            return _MISS
        case = _CASE_IDS[family][row.index(True)]
    else:
        case = CaseId(family, case_no)
        if not row[case_no - 1]:
            raise OutOfRange("%s does not admit type %s b=%d" % (case, parts, b))
    rank = len(parts)
    value = _evaluate(CATALOGS[family][case.case], a1, a2, a3, b, _STEPS[rank],
                      comb(m + rank, rank), case)
    return FormulaResult(value, case, True)


def _of_rank(t, rank):
    """t as a GroupType, which must have the given rank."""
    t = GroupType(t)
    if t.rank != rank:
        raise RankMismatch("expected a rank-%d type, got rank %d" % (rank, t.rank))
    return t


def _check_b(b, m):
    check_int("b", b)
    if not 0 <= b <= m:
        raise OutOfRange("b must lie in [0, %d], got %d" % (m, b))


def _check_m(m):
    check_int("m", m)
    if m < 1:
        raise ValueError("m must be at least 1, got %d" % m)


# ---------------------------------------------------------------------------
# rank 2: three overlapping intervals
# ---------------------------------------------------------------------------

# each numerator over (p - 1); table entries read (coefficient, exponent)
RANK2_TABLES = {
    1: CaseTable(((L(1), L(1, b=1)), (L(-1), L()))),
    2: CaseTable(((L(1), L(1, a1=1)), (L(-1), L()))),
    3: CaseTable(((L(1), L(1, a1=1, a2=1, b=-1)), (L(-1), L()))),
}


def rank2(t, b):
    """Closed-form count for a rank-2 type; every b in [0, m], ties to the lower case."""
    return _by_chamber("rank2", _of_rank(t, 2), b)


# ---------------------------------------------------------------------------
# rank 3: ten cases; 7..10 are the b -> m-b images of 4, 3, 2, 1
# ---------------------------------------------------------------------------

_REFLECT_B = {"b": L(a1=1, a2=1, a3=1, b=-1)}

RANK3_TABLES = {
    1: CaseTable((
        (L(1), L(3, b=2)),
        (L(-1), L(2, b=1)),
        (L(-1), L(1, b=1)),
        (L(1), L()),
    )),
    2: CaseTable((
        (L(1), L(3, a1=1, b=1)),
        (L(1), L(2, a1=1, b=1)),
        (L(-1), L(2, a1=2)),
        (L(-1), L(2, b=1)),
        (L(-1), L(1, b=1)),
        (L(1), L()),
    )),
    3: CaseTable((
        (L(1, b=1, a2=-1), L(3, a1=1, a2=1)),
        (L(1), L(2, a1=1, a2=1)),
        (L(0, b=-1, a2=1), L(1, a1=1, a2=1)),
        (L(-1), L(2, a1=2)),
        (L(-1), L(2, b=1)),
        (L(-1), L(1, b=1)),
        (L(1), L()),
    )),
    5: CaseTable((
        (L(1, a1=1), L(3, a1=1, a2=1)),
        (L(1), L(2, a1=1, a2=1)),
        (L(0, a1=-1), L(1, a1=1, a2=1)),
        (L(-1), L(2, a1=2)),
        (L(-1), L(2, a1=1, a2=1)),
        (L(-1), L(1, a1=1, a2=1)),
        (L(1), L()),
    )),
    6: CaseTable((
        (L(1, a3=1, a2=-1), L(3, a1=1, a2=1)),
        (L(2), L(2, a1=1, a2=1)),
        (L(1, a2=1, a3=-1), L(1, a1=1, a2=1)),
        (L(-1), L(2, a1=1, a2=1, a3=1, b=-1)),
        (L(-1), L(1, a1=1, a2=1, a3=1, b=-1)),
        (L(-1), L(2, a1=2)),
        (L(-1), L(2, b=1)),
        (L(-1), L(1, b=1)),
        (L(1), L()),
    )),
}
RANK3_TABLES[4] = RANK3_TABLES[3]
RANK3_TABLES[7] = substitute_table(RANK3_TABLES[4], _REFLECT_B)
RANK3_TABLES[8] = substitute_table(RANK3_TABLES[3], _REFLECT_B)
RANK3_TABLES[9] = substitute_table(RANK3_TABLES[2], _REFLECT_B)
RANK3_TABLES[10] = substitute_table(RANK3_TABLES[1], _REFLECT_B)


def rank3_applicable_cases(t, b):
    """All rank-3 case numbers whose interval admits (t, b), ascending."""
    a1, a2, a3 = _of_rank(t, 3)
    _check_b(b, a1 + a2 + a3)
    return list(compress(count(1), CHAMBERS["rank3"](a1, a2, a3, b)))


def rank3(t, b):
    """Closed-form count for a rank-3 type; every b in [0, m], ties to the lowest case."""
    return _by_chamber("rank3", _of_rank(t, 3), b)


def rank3_with_case(t, b, case_no):
    """One rank-3 case table at (t, b), to compare overlapping cases.

    A case whose interval does not admit (t, b) raises OutOfRange.
    """
    return _by_chamber("rank3", _of_rank(t, 3), b, case_no)


# substitutions that specialize the case-6 table to each other case
CASE6_SPECIALIZATIONS = {
    1: {"a1": L(b=1), "a2": L(b=1), "a3": L(b=1)},
    2: {"a2": L(b=1), "a3": L(b=1)},
    3: {"a3": L(b=1)},
    4: {"a3": L(b=1)},
    5: {"a3": L(a1=1, a2=1), "b": L(a1=1, a2=1)},
    7: {"a3": L(a1=1, a2=1, a3=1, b=-1), "b": L(a1=1, a2=1, a3=1, b=-1)},
    8: {"a3": L(a1=1, a2=1, a3=1, b=-1), "b": L(a1=1, a2=1, a3=1, b=-1)},
    9: {"a2": L(a1=1, a2=1, a3=1, b=-1), "a3": L(a1=1, a2=1, a3=1, b=-1),
        "b": L(a1=1, a2=1, a3=1, b=-1)},
    10: {"a1": L(a1=1, a2=1, a3=1, b=-1), "a2": L(a1=1, a2=1, a3=1, b=-1),
         "a3": L(a1=1, a2=1, a3=1, b=-1), "b": L(a1=1, a2=1, a3=1, b=-1)},
}


def verify_case6_specializations():
    """Check that substituting into the case-6 table reproduces each case.

    Returns a list of case numbers whose tables disagree (empty on success).
    The comparison is symbolic: terms are merged by exponent form.
    """
    bad = []
    for k, mapping in sorted(CASE6_SPECIALIZATIONS.items()):
        specialized = substitute_table(RANK3_TABLES[6], mapping)
        if merge_table(specialized) != merge_table(RANK3_TABLES[k]):
            bad.append(k)
    return bad


# ---------------------------------------------------------------------------
# rank 3 with equal parts (m, m, m): three intervals
# ---------------------------------------------------------------------------

MMM_TABLES = {
    2: CaseTable((
        (L(1), L(3, a1=2)),
        (L(1), L(2, a1=2)),
        (L(1), L(1, a1=2)),
        (L(-1), L(2, a1=3, b=-1)),
        (L(-1), L(1, a1=3, b=-1)),
        (L(-1), L(2, b=1)),
        (L(-1), L(1, b=1)),
        (L(1), L()),
    )),
    3: CaseTable((
        (L(1), L(3, a1=6, b=-2)),
        (L(-1), L(2, a1=3, b=-1)),
        (L(-1), L(1, a1=3, b=-1)),
        (L(1), L()),
    )),
}
# b <= m is rank-3 case 1 (b <= a1)
MMM_TABLES[1] = RANK3_TABLES[1]


def rank3_mmm(m, b):
    """Closed-form count for the type (m, m, m)."""
    _check_m(m)
    return _by_chamber("rank3-mmm", (m,) * 3, b)


# ---------------------------------------------------------------------------
# rank 4, low-order intervals (the catalog does not cover every b)
# ---------------------------------------------------------------------------

RANK4_PARTIAL_TABLES = {
    1: CaseTable((
        (L(1), L(6, b=3)),
        (L(-1), L(5, b=2)),
        (L(-1), L(4, b=2)),
        (L(-1), L(3, b=2)),
        (L(1), L(3, b=1)),
        (L(1), L(2, b=1)),
        (L(1), L(1, b=1)),
        (L(-1), L()),
    )),
    2: CaseTable((
        (L(1), L(6, a1=1, b=2)),
        (L(1), L(5, a1=1, b=2)),
        (L(1), L(4, a1=1, b=2)),
        (L(-1), L(5, a1=2, b=1)),
        (L(-1), L(4, a1=2, b=1)),
        (L(-1), L(3, a1=2, b=1)),
        (L(1), L(3, a1=3)),
        (L(-1), L(5, b=2)),
        (L(-1), L(4, b=2)),
        (L(-1), L(3, b=2)),
        (L(1), L(3, b=1)),
        (L(1), L(2, b=1)),
        (L(1), L(1, b=1)),
        (L(-1), L()),
    )),
    3: CaseTable((
        (L(1, b=1, a2=-1), L(6, a1=1, a2=1, b=1)),
        (L(1, b=1, a2=-1), L(5, a1=1, a2=1, b=1)),
        (L(-1, b=-1, a2=1), L(3, a1=1, a2=1, b=1)),
        (L(-1, b=-1, a2=1), L(2, a1=1, a2=1, b=1)),
        (L(1), L(4, a1=1, a2=2)),
        (L(1), L(3, a1=1, a2=2)),
        (L(1), L(2, a1=1, a2=2)),
        (L(-1), L(5, a1=2, b=1)),
        (L(-1), L(4, a1=2, b=1)),
        (L(-1), L(3, a1=2, b=1)),
        (L(1), L(3, b=1)),
        (L(1), L(2, b=1)),
        (L(1), L(1, b=1)),
        (L(1), L(3, a1=3)),
        (L(-1), L(5, b=2)),
        (L(-1), L(4, b=2)),
        (L(-1), L(3, b=2)),
        (L(-1), L()),
    )),
}


def rank4_partial(t, b):
    """Interval closed forms for rank 4; a b in [0, m] off the catalog is a miss."""
    parts = _of_rank(t, 4)
    result = _by_chamber("rank4-partial", parts, b)
    if not result.covered:
        # count symmetry lets the same intervals serve the mirrored index
        result = _by_chamber("rank4-partial", parts, sum(parts) - b)
    return result


# ---------------------------------------------------------------------------
# rank 4 with equal parts (m, m, m, m): four intervals
# ---------------------------------------------------------------------------

MMMM_TABLES = {
    2: CaseTable((
        (L(-1), L(5, b=2)),
        (L(-1), L(4, b=2)),
        (L(-1), L(3, b=2)),
        (L(1), L(6, a1=2, b=1)),
        (L(1), L(5, a1=2, b=1)),
        (L(2), L(4, a1=2, b=1)),
        (L(1), L(3, a1=2, b=1)),
        (L(1), L(2, a1=2, b=1)),
        (L(1), L(3, b=1)),
        (L(1), L(2, b=1)),
        (L(1), L(1, b=1)),
        (L(-1), L(5, a1=3)),
        (L(-2), L(4, a1=3)),
        (L(-2), L(3, a1=3)),
        (L(-2), L(2, a1=3)),
        (L(-1), L(1, a1=3)),
        (L(-1), L()),
        (L(1), L(3, a1=4, b=-1)),
        (L(1), L(2, a1=4, b=-1)),
        (L(1), L(1, a1=4, b=-1)),
    )),
    3: CaseTable((
        (L(1), L(3, b=1)),
        (L(1), L(2, b=1)),
        (L(1), L(1, b=1)),
        (L(1), L(6, a1=6, b=-1)),
        (L(1), L(5, a1=6, b=-1)),
        (L(2), L(4, a1=6, b=-1)),
        (L(1), L(3, a1=6, b=-1)),
        (L(1), L(2, a1=6, b=-1)),
        (L(1), L(3, a1=4, b=-1)),
        (L(1), L(2, a1=4, b=-1)),
        (L(1), L(1, a1=4, b=-1)),
        (L(-1), L(5, a1=8, b=-2)),
        (L(-1), L(4, a1=8, b=-2)),
        (L(-1), L(3, a1=8, b=-2)),
        (L(-1), L(5, a1=3)),
        (L(-2), L(4, a1=3)),
        (L(-2), L(3, a1=3)),
        (L(-2), L(2, a1=3)),
        (L(-1), L(1, a1=3)),
        (L(-1), L()),
    )),
    4: CaseTable((
        (L(1), L(3, a1=4, b=-1)),
        (L(1), L(2, a1=4, b=-1)),
        (L(1), L(1, a1=4, b=-1)),
        (L(-1), L(5, a1=8, b=-2)),
        (L(-1), L(4, a1=8, b=-2)),
        (L(-1), L(3, a1=8, b=-2)),
        (L(1), L(6, a1=12, b=-3)),
        (L(-1), L()),
    )),
}
# b <= m is rank-4 partial case 1 (b <= a1)
MMMM_TABLES[1] = RANK4_PARTIAL_TABLES[1]

# family tag -> case number -> table
CATALOGS = {
    "rank2": RANK2_TABLES,
    "rank3": RANK3_TABLES,
    "rank3-mmm": MMM_TABLES,
    "rank4-partial": RANK4_PARTIAL_TABLES,
    "rank4-mmmm": MMMM_TABLES,
}
# family tag -> its chambers: a function of the three smallest parts (0 past
# the rank, a1 = m on the equal-part types) and b, known to lie in [0, m],
# that says for each case, in case order, whether its chamber admits b
CHAMBERS = {
    "rank2": lambda a1, a2, a3, b: (b <= a1, a1 <= b <= a2, a2 <= b),
    "rank3": lambda a1, a2, a3, b: (
        b <= a1,
        a1 <= b <= a2,
        a2 < b <= a3 <= a1 + a2,
        a2 < b <= a1 + a2 <= a3,
        a1 + a2 <= b <= a3,
        a3 < b <= a1 + a2,
        a1 + a2 <= a3 < b <= a1 + a3,
        a3 <= a1 + a2 < b <= a1 + a3,
        a1 + a3 <= b <= a2 + a3,
        a2 + a3 <= b),
    "rank3-mmm": lambda m, a2, a3, b: (b <= m, m <= b <= 2 * m, 2 * m <= b),
    # the catalog stops at b = min(a3, a1 + a2); rank4_partial mirrors b
    "rank4-partial": lambda a1, a2, a3, b: (
        b <= a1, a1 <= b <= a2, a2 <= b <= min(a3, a1 + a2)),
    "rank4-mmmm": lambda m, a2, a3, b: (
        b <= m, m <= b <= 2 * m, 2 * m <= b <= 3 * m, 3 * m <= b),
}
# family tag -> highest case number; the any-rank product formula has no table
CASE_RANGES = {**{family: len(tables) for family, tables in CATALOGS.items()},
               "anyrank": 2}
# built once, so no evaluator makes a CaseId or a miss per query: each
# family's CaseIds in case order, the any-rank product's too, and the one miss
_CASE_IDS = {family: tuple(CaseId(family, k) for k in range(1, cases + 1))
             for family, cases in CASE_RANGES.items()}
_MISS = FormulaResult.miss()


def rank4_mmmm_b(m, b):
    """Closed-form count for the type (m, m, m, m) at order index b."""
    _check_m(m)
    return _by_chamber("rank4-mmmm", (m,) * 4, b)


def rank4_mmmm_total(m):
    """Total subgroup count of the type (m, m, m, m) from its closed form."""
    _check_m(m)
    p2 = IntPoly.term(1, 2)
    p3 = IntPoly.term(1, 3)
    head = (IntPoly((1, 1, 1)) ** 3) * (p2 + 1) * IntPoly.term(1, 4 * m + 2)
    mid = (
        ((2 * m + 3) * p3 - (2 * m + 1))
        * (p3 + IntPoly.term(1, 1))
        * (IntPoly((1, 1)) ** 3)
    ).shift(3 * m)
    tail = IntPoly((
        -(4 * m + 1),
        1 - 4 * m,
        6,
        4 * m + 9,
        4 * m + 7,
    ))
    # the total of (m, m, m, m) sums 4m + 1 subgroup counts
    return _divide(head - mid - tail, (2, 2, 3, 3), (4 * m + 1) * comb(4 * m + 4, 4),
                   "rank4-mmmm total")


# ---------------------------------------------------------------------------
# rank 4 totals for arbitrary chains w <= x <= y <= z
# ---------------------------------------------------------------------------

def _check_chain(w, x, y, z):
    for v in (w, x, y, z):
        if not isinstance(v, int) or isinstance(v, bool):
            raise OrderViolation("chain entries must be ints")
    if not (1 <= w <= x <= y <= z):
        raise OrderViolation("chain must satisfy 1 <= w <= x <= y <= z, got (%d, %d, %d, %d)" % (w, x, y, z))


def rank4_total_ccl(w, x, y, z):
    """Total subgroup count of the type (w, x, y, z) by the direct triple sum."""
    _check_chain(w, x, y, z)
    # (exponent, coefficient) terms, summed into one coefficient list by _poly
    terms = []
    s = w + x + y + z
    for i in range(0, w):
        for j in range(0, i + 1):
            terms.append((3 * i + j, (s - 4 * i + 1) * (2 * i - 2 * j + 1)))
            terms.append((3 * i + j + 1, (s - 4 * i - 1) * (2 * i - 2 * j + 1)))
            terms.append((3 * i + j + 2, 2 * (s - 4 * i - 2) * (i - j + 1)))
    for i in range(0, w + 1):
        for j in range(w, x):
            terms.append((w + 2 * j + i, (w + j - 2 * i + 1) * (x + y + z - 3 * j + 1)))
            terms.append((w + 2 * j + i + 1, (w + j - 2 * i + 1) * (x + y + z - 3 * j - 1)))
    for i in range(0, w + 1):
        for j in range(x, y + 1):
            terms.append((w + x + i + j, (y + z - 2 * j + 1) * (w + x - 2 * i + 1)))
    return _poly(terms)


def leading_term_ccl(w, x, y, z):
    """(leading coefficient, degree) of the chain total, in closed form."""
    _check_chain(w, x, y, z)
    return ((z - y + 1) * (x - w + 1), 2 * w + x + y)


# ---------------------------------------------------------------------------
# any rank, small order index: a single product formula
# ---------------------------------------------------------------------------

def gaussian_binomial(d, b):
    """The p-binomial coefficient [d choose b] as a polynomial."""
    check_int("d", d)
    check_int("b", b)
    if not 0 <= b <= d:
        raise OutOfRange("need 0 <= b <= d, got b=%d d=%d" % (b, d))
    # [d choose b] = [d choose d - b], so k = min(b, d - b) factors suffice
    k = min(b, d - b)
    value = IntPoly.one()
    for i in range(1, k + 1):
        # the factor on the left: its two terms make the outer loop
        value = (IntPoly.term(1, d - k + i) - 1) * value
    # [d choose b] counts the subgroups of order p**b in (1, ..., 1), d
    # parts, and its coefficients are nonnegative and sum to C(d, b)
    return _divide(value, tuple(range(1, k + 1)), comb(d, b),
                   "gaussian_binomial(%d, %d)" % (d, b))


def anyrank_case1(t, b):
    """Product formula valid for b below the smallest part (or mirrored).

    The product is the p-binomial [b + d - 1 choose d - 1], d = max(rank, 1).
    """
    t = GroupType(t)
    m = t.weight
    _check_b(b, m)
    a1 = t[0] if t else 0
    if b <= a1:
        case = _CASE_IDS["anyrank"][0]
    elif b >= m - a1:
        case, b = _CASE_IDS["anyrank"][1], m - b
    else:
        return _MISS
    d = max(t.rank, 1)
    return FormulaResult(gaussian_binomial(b + d - 1, d - 1), case, True)


# ---------------------------------------------------------------------------
# the one dispatcher: which family answers (t, b)
# ---------------------------------------------------------------------------

def closed_form(t, b):
    """The closed form that answers (t, b), or a miss; an int b outside [0, m] counts 0.

    Ranks 2 and 3 cover every b, rank 4 misses between its intervals, and the
    other ranks miss for a1 < b < m - a1.
    """
    t = GroupType(t)
    check_int("b", b)
    if not 0 <= b <= t.weight:
        return FormulaResult(ZERO, None, True)
    if t.rank == 2:
        return rank2(t, b)
    if t.rank == 3:
        return rank3(t, b)
    if t.rank == 4:
        # the intervals take b <= a1 and its mirror, all the product formula covers
        return rank4_mmmm_b(t[0], b) if t[0] == t[3] else rank4_partial(t, b)
    return anyrank_case1(t, b)
