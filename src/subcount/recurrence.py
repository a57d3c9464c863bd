"""Subgroup-count recurrences.

Two independent recursions compute the number of subgroups of order p**b in
an abelian p-group of a given type, as a polynomial in p.  One peels off the
largest cyclic factor, the other peels off the smallest order-index step.
They share nothing beyond the polynomial ring, which makes them useful as
cross-checks on each other.
"""

import threading

from .groups import GroupType
from .polyring import ONE, ZERO, IntPoly


class MemoTable:
    """Write-once memo: an entry, once stored, is never changed."""

    def __init__(self):
        self._data = {}
        self._lock = threading.Lock()

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value):
        with self._lock:
            existing = self._data.setdefault(key, value)
        if existing is not value and existing != value:
            raise RuntimeError("memo entry for %r rewritten with a different value" % (key,))
        return existing

    def __len__(self):
        return len(self._data)

    def clear(self):
        with self._lock:
            self._data.clear()


_HIRONAKA_MEMO = MemoTable()
_STEHLING_MEMO = MemoTable()


def count_hironaka(t, b, memo=None):
    """Subgroup count of order p**b via the drop-largest-part recursion."""
    t = GroupType(t)
    if memo is None:
        memo = _HIRONAKA_MEMO
    if b < 0 or b > t.weight:
        return ZERO
    return _hironaka_row(t.parts, memo)[b]


def _hironaka_row(parts, memo):
    """The row (H(parts, 0), ..., H(parts, m)) for ascending parts.

    The memo holds one row per prefix of parts with at least two parts.
    """
    if len(parts) <= 1:
        return (ONE,) * (sum(parts) + 1)
    row = memo.get(parts)
    if row is None:
        row = memo.put(parts, _extend_row(_hironaka_row(parts[:-1], memo), parts[-1]))
    return row


def _extend_row(head_row, a):
    """The row of parts + (a,) from the row of parts, a >= every part.

    H(parts + (a,), b) is the sum of H(parts, i) * p**i over i <= b, less the
    sum over m - b < i <= mp when b > a, where m and mp are the weights with
    and without a.  With P_k the prefix sums of those terms, that is
    P_min(b, mp) for b <= a, P_b - (P_mp - P_(m-b)) for a < b < mp, and
    P_(m-b) for b >= mp.
    """
    mp = len(head_row) - 1
    m = mp + a
    prefix = []
    acc = ZERO
    for i, h in enumerate(head_row):
        acc = acc + h.shift(i)
        prefix.append(acc)
    top = prefix[mp]
    row = []
    for b in range(m + 1):
        if b <= a:
            row.append(prefix[min(b, mp)])
        elif b < mp:
            row.append(prefix[b] - (top - prefix[m - b]))
        else:
            row.append(prefix[m - b])
    return tuple(row)


def count_stehling(t, b, memo=None):
    """Subgroup count of order p**b via the order-index descent recursion."""
    t = GroupType(t)
    if memo is None:
        memo = _STEHLING_MEMO
    return _stehling(t.descending(), b, memo)


def _stehling(desc, r, memo):
    if r < 0:
        return ZERO
    if not desc:
        return ONE if r == 0 else ZERO
    key = (desc, r)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # subtract 1 at the last position of the initial run of maximal parts
    k = 1
    while k < len(desc) and desc[k] == desc[0]:
        k += 1
    shrunk = list(desc)
    shrunk[k - 1] -= 1
    if shrunk[k - 1] == 0:
        shrunk.pop(k - 1)
    dropped = desc[1:]
    value = _stehling(tuple(shrunk), r - 1, memo) + _stehling(dropped, r, memo).shift(r)
    return memo.put(key, value)


def total_count(t, memo=None):
    """Total number of subgroups, summed over every order index."""
    t = GroupType(t)
    if memo is None:
        memo = _HIRONAKA_MEMO
    acc = ZERO
    for value in _hironaka_row(t.parts, memo):
        acc = acc + value
    return acc
