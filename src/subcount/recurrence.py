"""Subgroup-count recurrences.

Two independent recursions compute the number of subgroups of order p**b in
an abelian p-group of a given type, as a polynomial in p.  One peels off the
largest cyclic factor, the other peels off the smallest order-index step.
Hironaka works on whole rows of IntPoly values; Stehling works on
Kronecker-packed Python ints and builds an IntPoly only for its answer, so
the two share no arithmetic code, which makes them useful as cross-checks on
each other.
"""

import sys
import threading
from math import comb

from .groups import GroupType, check_int
from .polyring import ONE, ZERO, IntPoly


class MemoTable:
    """Write-once memo: an entry, once stored, is never changed."""

    def __init__(self):
        self._data = {}
        self._lock = threading.Lock()
        # reads take no lock; the bound dict method saves a Python call
        self.get = self._data.get

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
    check_int("b", b)
    if memo is None:
        memo = _HIRONAKA_MEMO
    if b < 0 or b > t.weight:
        return ZERO
    if len(t) <= 1:  # a cyclic group has one subgroup of each order
        return ONE
    return _hironaka_row(t, memo)[b]


def _hironaka_row(parts, memo):
    """The row (H(parts, 0), ..., H(parts, m)) for ascending parts.

    parts may be a GroupType, which hashes and compares as its ascending
    tuple.  The memo holds one row per prefix of parts with at least two parts.
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
    check_int("b", b)
    if memo is None:
        memo = _STEHLING_MEMO
    weight = t.weight
    if b < 0 or b > weight:
        return ZERO
    # the memo keeps each answer as well as the packed states (keyed by
    # width first), so a repeated query is one lookup
    desc = t.descending()
    answer = memo.get((desc, b))
    if answer is None:
        words = comb(weight + t.rank, t.rank).bit_length() // 64 + 1
        width = words * 64
        packed = _stehling(desc, b, weight - b, width, memo)
        # the slots are whole 64-bit words, so one cast reads every word;
        # a big-endian machine lists them highest first
        size = -(-packed.bit_length() // width) * words * 8
        coeffs = memoryview(packed.to_bytes(size, sys.byteorder)).cast("Q").tolist()
        if sys.byteorder == "big":
            coeffs.reverse()
        if words > 1:
            coeffs = [sum(w << (64 * j) for j, w in enumerate(coeffs[i:i + words]))
                      for i in range(0, len(coeffs), words)]
        # the slots hold nonnegative ints by construction
        answer = memo.put((desc, b), IntPoly._trusted(coeffs))
    return answer


# S(desc, r) = S(shrunk, r - 1) + p**r * S(desc[1:], r), where shrunk takes 1
# from the last of the leading run of maximal parts, S((), 0) = 1, and S is 0
# for r < 0 or r > weight(desc).  A value is packed as the int sum of
# c_i * 2**(i * width), so p**r * x is x << (r * width) and + is int +.
#
# The packing is exact when every coefficient is below 2**width.  The
# recursion only adds and shifts, so coefficients stay nonnegative, and by
# induction on r + len(desc) every coefficient of S(desc, r) is at most
# C(r + n, n) with n = len(desc): the first term's are at most C(r - 1 + n, n)
# (shrunk has at most n parts) and the second's at most C(r + n - 1, n - 1),
# which sum to C(r + n, n).  Every state reached from a type has r <= weight
# and n <= rank, so a width with 2**width > C(weight + rank, rank) is
# carry-free.  This is far tighter than 2**(weight + rank), which would give
# (300, 300, 300), whose coefficients stay below 2**19, 960-bit slots and a
# query at b = 450 about 280 MB of memo.
# count_stehling rounds the width up to a multiple of 64 bits, so slots are
# whole machine words, which one memoryview cast unpacks, and few widths
# occur; the memo key carries the width so that one memo shared across types
# never mixes widths.
#
# Once cut, a state is stored up to duality.  The cut desc is itself a group
# type, and a group has as many subgroups of order p**r as of index p**r, so
# S(desc, r) = S(desc, weight(desc) - r) as polynomials: swapping r and gap is
# exact, and each state is kept only with r <= gap.  The swap keeps r <= weight
# and len(desc) <= rank, so the width bound above still covers every state,
# and it changes no part of desc, so only desc[1:] is still recursed on.

def _stehling(desc, r, gap, width, memo):
    """S(desc, r) packed at width bits a coefficient; gap = weight(desc) - r >= 0.

    A shrink step lowers r and the weight together, so gap is fixed down the
    chain.  While desc[0] > gap the second term is 0 (r exceeds the weight of
    desc[1:]), so the chain first cuts every part down to gap; the memo only
    holds states past that cut.  A cut state with r > gap is then read as its
    dual, with r and gap swapped, so the chain and every key it stores have
    r <= gap, and a state and its dual share one entry.  Only desc[1:] is
    recursed on, and only when its cut and folded state is not in the memo
    yet, so the stack depth is at most the rank.
    """
    if not gap:  # the cut would leave S((), 0): only the whole group
        return 1
    if desc[0] > gap:
        desc = tuple([a if a < gap else gap for a in desc])
        r = sum(desc) - gap
    if r > gap:  # S(desc, r) = S(desc, gap) by duality on the cut type
        r, gap = gap, r
    get, put = memo.get, memo.put
    chain = []
    while r:
        key = (width, desc, r)
        value = get(key)
        if value is not None:
            break
        chain.append(key)
        k = desc.count(desc[0])
        top = desc[0] - 1
        desc = desc[:k - 1] + (top,) + desc[k:] if top else desc[1:]
        r -= 1
    else:
        value = 1
    for key in reversed(chain):
        _, desc, r = key
        # the second term is S(desc[1:], r), whose gap is gap - desc[0]; it is
        # cut and folded here as the call would, so that a child already in
        # the memo (most are) costs one lookup and no call
        child_gap = gap - desc[0]
        if not child_gap:
            child = 1
        else:
            rest = desc[1:]
            if rest[0] > child_gap:
                rest = tuple([a if a < child_gap else child_gap for a in rest])
                child_r = sum(rest) - child_gap
            else:
                child_r = r
            if not child_r:
                child = 1
            else:
                child = get((width, rest, child_r if child_r < child_gap else child_gap))
                if child is None:
                    child = _stehling(rest, child_r, child_gap, width, memo)
        value = put(key, value + (child << (r * width)))
    return value


def total_count(t, memo=None):
    """Total number of subgroups, summed over every order index."""
    t = GroupType(t)
    if len(t) <= 1:
        return IntPoly((t.weight + 1,))
    if memo is None:
        memo = _HIRONAKA_MEMO
    acc = ZERO
    for value in _hironaka_row(t, memo):
        acc = acc + value
    return acc
