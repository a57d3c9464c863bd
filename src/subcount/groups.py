"""Finite abelian p-group types and their errors.

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


class GroupType:
    """Canonical type of a finite abelian p-group."""

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        if isinstance(parts, GroupType):
            self._parts = parts._parts
            return
        cleaned = []
        for a in parts:
            if isinstance(a, bool) or not isinstance(a, int):
                raise TypeError("parts must be ints, got %r" % (a,))
            if a < 0:
                raise NegativePart("type parts must be nonnegative, got %d" % a)
            if a > 0:
                cleaned.append(a)
        cleaned.sort()
        self._parts = tuple(cleaned)

    @property
    def parts(self):
        """Ascending tuple of positive parts."""
        return self._parts

    @property
    def rank(self):
        return len(self._parts)

    @property
    def weight(self):
        """Total exponent m: the group order is p**m."""
        return sum(self._parts)

    def descending(self):
        return tuple(reversed(self._parts))

    def to_json(self):
        return list(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __len__(self):
        return len(self._parts)

    def __eq__(self, other):
        if isinstance(other, GroupType):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self):
        return hash(("GroupType", self._parts))

    def __repr__(self):
        return "GroupType(%r)" % (self._parts,)

    def __str__(self):
        return "(" + ", ".join(str(a) for a in self.descending()) + ")"

