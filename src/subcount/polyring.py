"""Exact dense polynomials in one variable over the integers.

Coefficients are arbitrary-precision ints stored in ascending order of
exponent, with no trailing zeros, so equal polynomials always compare equal.
The module also holds the packed-slot codec that the packed routes share.
"""

import sys

from .groups import check_int


class ZeroPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


class NonExactDivision(ArithmeticError):
    """Raised when polynomial division leaves a remainder.

    The offending remainder (and the partial quotient) ride along so callers
    can report exactly what failed to divide.
    """

    def __init__(self, quotient, remainder):
        super().__init__("division is not exact; remainder %s" % (remainder,))
        self.quotient = quotient
        self.remainder = remainder


def _check_exponent(name, k):
    """Raise unless k is an int, not a bool, and k >= 0; name goes in the message."""
    check_int(name, k)
    if k < 0:
        raise ValueError("%s must be nonnegative, got %d" % (name, k))


class IntPoly:
    """Immutable integer polynomial."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cleaned = []
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError("coefficients must be ints, got %r" % (c,))
            cleaned.append(c)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self._coeffs = tuple(cleaned)

    @classmethod
    def _trusted(cls, coeffs):
        """Wrap a list of ints that an IntPoly method has just computed.

        The coefficients came from ints already checked (or, for
        count_stehling's answers, from machine words), so only trailing
        zeros are stripped; the list is consumed.
        """
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        poly = object.__new__(cls)
        poly._coeffs = tuple(coeffs)
        return poly

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def term(cls, coeff, exponent):
        """The monomial coeff * p**exponent."""
        if isinstance(coeff, bool) or not isinstance(coeff, int):
            raise TypeError("coefficients must be ints, got %r" % (coeff,))
        _check_exponent("exponent", exponent)
        if coeff == 0:
            return cls()
        return cls._trusted([0] * exponent + [coeff])

    @property
    def coeffs(self):
        """Ascending coefficient tuple, no trailing zeros."""
        return self._coeffs

    @property
    def is_zero(self):
        return not self._coeffs

    def degree(self):
        if not self._coeffs:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return len(self._coeffs) - 1

    def leading_coeff(self):
        if not self._coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly._trusted([-c for c in self._coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        _check_exponent("exponent", n)
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by p**k."""
        _check_exponent("shift", k)
        if not self._coeffs:
            return self
        return IntPoly._trusted([0] * k + list(self._coeffs))

    def divmod(self, other):
        """Long division; returns (quotient, remainder)."""
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot divide by %r" % (other,))
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self._coeffs)
        div = other._coeffs
        dn = len(div)
        lead = div[-1]
        if len(rem) < dn:
            return ZERO, self
        quo = [0] * (len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            top = rem[i + dn - 1]
            if top == 0:
                continue
            q, r = divmod(top, lead)
            if r != 0:
                # leading term does not divide; stop with what is left
                break
            quo[i] = q
            for j, c in enumerate(div):
                rem[i + j] -= q * c
        return IntPoly._trusted(quo), IntPoly._trusted(rem)

    def exact_div(self, other):
        """Divide exactly, raising NonExactDivision if a remainder is left."""
        quo, rem = self.divmod(other)
        if not rem.is_zero:
            raise NonExactDivision(quo, rem)
        return quo

    def eval_at(self, x):
        """Evaluate at an integer point by Horner's rule."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def text(self):
        """Human-readable form like 'p^3 + 2*p^2 + p + 1'."""
        if not self._coeffs:
            return "0"
        pieces = []
        for e in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "p" if e == 1 else "p^%d" % e
                body = power if mag == 1 else "%d*%s" % (mag, power)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def to_json(self):
        """Ascending coefficient list; the zero polynomial is []."""
        return list(self._coeffs)

    @staticmethod
    def _coerce(value):
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return IntPoly._trusted([value])
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int) and not isinstance(other, bool):
            return self == IntPoly._trusted([other])
        return NotImplemented

    def __hash__(self):
        # equal objects hash equally: a constant as the int it equals, ZERO as 0
        if len(self._coeffs) <= 1:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash(("IntPoly", self._coeffs))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return "IntPoly(%r)" % (self._coeffs,)

    def __str__(self):
        return self.text()


ZERO = IntPoly.zero()
ONE = IntPoly.one()
P = IntPoly((0, 1))


def geometric(k):
    """1 + p + ... + p**(k-1), the zero polynomial when k <= 0."""
    if k <= 0:
        return ZERO
    return IntPoly((1,) * k)


# The packed-slot codec.  A polynomial c_0 + c_1*p + ... packs as its value
# at p = 2**width, the int sum of c_i << (i * width), so int + and * act as
# on the polynomials and a shift by r * width multiplies by p**r.  A caller
# proves a bound on the coefficients, and slot_width makes it a width.

def slot_width(bound):
    """The least multiple of 64, width, with 2**(width - 1) > bound >= 0.

    Its slots hold [0, bound] unsigned and [-bound, bound] signed, and are
    whole 64-bit words, so few widths occur and one cast reads them back.
    """
    return (bound.bit_length() // 64 + 1) * 64


def unpack_slots(value, width):
    """The width-bit slots of an int value >= 0, lowest first, as a list.

    width is a multiple of 64.  The list ends at the highest nonzero slot,
    so it is empty for 0.
    """
    words = width // 64
    size = -(-value.bit_length() // width) * words * 8
    slots = memoryview(value.to_bytes(size, sys.byteorder)).cast("Q").tolist()
    # a big-endian machine lists the words highest first
    if sys.byteorder == "big":
        slots.reverse()
    if words > 1:
        slots = [sum(w << (64 * j) for j, w in enumerate(slots[i:i + words]))
                 for i in range(0, len(slots), words)]
    return slots
