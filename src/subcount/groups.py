"""Finite abelian p-group types, their errors and the shared int check.

A type is the multiset of exponents (a_1, ..., a_d): the group is the direct
sum of cyclic factors of order p**a_i.  Types are stored ascending; zero parts
are dropped, so the trivial group is the empty type.
"""


class NegativePart(ValueError):
    """Raised when a type literal contains a negative part."""


class RankMismatch(ValueError):
    """Raised when a classifier is handed a type of the wrong rank."""


class OutOfRange(ValueError):
    """Raised when an index lies outside its documented range."""


def check_int(name, value):
    """Raise a TypeError that names the argument unless value is an int, not a bool."""
    if value.__class__ is int:  # the common case, in one test
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("%s must be an int, got %r" % (name, value))


class GroupType(tuple):
    """Canonical type of a finite abelian p-group: a tuple of its ascending parts.

    It is an immutable value and equals the plain tuple of its ascending
    positive parts, so GroupType((2, 1)) == (1, 2).
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if isinstance(parts, GroupType):
            return parts
        cleaned = []
        for a in parts:
            check_int("type part", a)
            if a < 0:
                raise NegativePart("type parts must be nonnegative, got %d" % a)
            if a > 0:
                cleaned.append(a)
        cleaned.sort()
        return tuple.__new__(cls, cleaned)

    @property
    def parts(self):
        """Ascending tuple of positive parts."""
        return tuple(self)

    @property
    def rank(self):
        return len(self)

    @property
    def weight(self):
        """Total exponent m: the group order is p**m."""
        return sum(self)

    def descending(self):
        return self[::-1]

    def to_json(self):
        return list(self)

    def __repr__(self):
        return "GroupType(%r)" % (tuple(self),)

    def __str__(self):
        return "(" + ", ".join(str(a) for a in self.descending()) + ")"

