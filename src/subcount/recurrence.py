"""Subgroup-count recurrences.

Two independent recursions compute the number of subgroups of order p**b in
an abelian p-group of a given type, as a polynomial in p.  One peels off the
largest cyclic factor, the other peels off the smallest order-index step.
Hironaka works on whole rows, summed as plain lists of int coefficients;
Stehling works on Python ints packed by polyring's slot codec.  Each builds
an IntPoly only for the values it returns, so the two share no arithmetic
code, which makes them useful as cross-checks on each other.
"""

import operator
from itertools import zip_longest
from math import comb

from .groups import GroupType, check_int
from .polyring import ONE, ZERO, IntPoly, slot_width, unpack_slots


class MemoTable:
    """Write-once memo: an entry, once stored, is never changed."""

    def __init__(self):
        self._data = {}
        # the bound dict method saves a Python call
        self.get = self._data.get

    def put(self, key, value):
        # dict.setdefault is one atomic call, so of two threads that store
        # the same key, both return the value that was stored first
        existing = self._data.setdefault(key, value)
        if existing is not value and existing != value:
            raise RuntimeError("memo entry for %r rewritten with a different value" % (key,))
        return existing

    def __len__(self):
        return len(self._data)


_HIRONAKA_MEMO = MemoTable()
_STEHLING_MEMO = MemoTable()


def count_hironaka(t, b, memo=None):
    """Subgroup count of order p**b via the drop-largest-part recursion."""
    t = GroupType(t)
    check_int("b", b)
    if memo is None:
        memo = _HIRONAKA_MEMO
    # a stored row answers with no weight read: it has one entry per b in range
    row = memo.get(t)
    if row is None:
        if len(t) <= 1:  # a cyclic group has one subgroup of each order
            return ONE if 0 <= b <= t.weight else ZERO
        row = _hironaka_row(t, memo)
    return row[b] if 0 <= b < len(row) else ZERO


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
    P_min(b, mp) for b <= a, P_b + P_(m-b) - P_mp for a < b < mp, and
    P_(m-b) for b >= mp.  The formula gives b and m - b the same entry, so
    only b <= m // 2 is computed and the rest mirrored.  The prefix sums grow
    in one coefficient list, a copy kept at each step, and each entry becomes
    an IntPoly once.
    """
    mp = len(head_row) - 1
    m = mp + a
    half = m // 2
    acc = []
    prefix = []
    for i, h in enumerate(head_row):
        _add_at(acc, h.coeffs, i)
        prefix.append(acc[:])
    # P_min(b, mp) for b <= min(a, half); a >= mp makes half >= mp, so the
    # entries past mp repeat P_mp
    row = [IntPoly._trusted(prefix[k]) for k in range(min(a, half, mp) + 1)]
    row += row[-1:] * (min(a, half) - mp)
    if a < half:
        top = prefix[mp]
        for b in range(a + 1, half + 1):
            entry = list(map(operator.neg, top))
            _add_at(entry, prefix[b], 0)
            _add_at(entry, prefix[m - b], 0)
            row.append(IntPoly._trusted(entry))
    row += reversed(row[:m - half])
    return tuple(row)


def _add_at(acc, coeffs, i):
    """Add coeffs * p**i into the coefficient list acc, in place."""
    end = i + len(coeffs)
    if end > len(acc):
        acc += [0] * (end - len(acc))
    acc[i:end] = map(operator.add, acc[i:end], coeffs)


def count_stehling(t, b, memo=None):
    """Subgroup count of order p**b via the order-index descent recursion."""
    t = GroupType(t)
    check_int("b", b)
    if memo is None:
        memo = _STEHLING_MEMO
    weight = sum(t)
    if b < 0 or b > weight:
        return ZERO
    # the memo keeps each answer under the ascending type and b folded to
    # min(b, weight - b), since b and its dual index have the same answer,
    # so a repeated query is one lookup; the packed states beside it are
    # keyed by width first and never collide with an answer
    if b > weight - b:
        b = weight - b
    answer = memo.get((t, b))
    if answer is None:
        width = slot_width(comb(weight + len(t), len(t)))
        state, r, _ = _normal(t[::-1], b, weight - b)
        packed = _stehling(state, r, width, memo)
        # the slots hold nonnegative ints by construction
        answer = memo.put((t, b), IntPoly._trusted(unpack_slots(packed, width)))
    return answer


# S(desc, r) = S(shrunk, r - 1) + p**r * S(desc[1:], r), where shrunk takes 1
# from the last of the leading run of maximal parts, S((), 0) = 1, and S is 0
# for r < 0 or r > weight(desc).  A value is packed as the int sum of
# c_i * 2**(i * width), so p**r * x is x << (r * width) and + is int +.
#
# Two laws let a state be replaced by a smaller one with the same polynomial.
# A subgroup of order p**r is killed by p**r, so it lies in Omega_r, the
# elements killed by p**r, whose type is desc with every part capped at r:
# S(desc, r) = S(min(desc, r), r).  And a group has as many subgroups of
# order p**r as of index p**r (a subgroup's annihilator in the dual group,
# which is isomorphic to the group, has the complementary order), so
# S(desc, r) = S(desc, weight(desc) - r).  The normal form of a state folds r
# to min(r, weight - r) and caps every part at r, and repeats until neither
# changes anything; each step lowers r or the weight, so it stops, and a
# normal state with r > 0 has desc[0] <= r <= weight(desc) - r.  The dual
# of the Omega_r cap, capping every part at the index gap, is a fold, a cap
# and a fold back, so the normal form covers it too.  Every state (the
# query's, each one down the shrink chain and each desc[1:] child) is
# normalised before its memo lookup, so one entry serves all the states that
# share its normal form.
#
# The packing is exact when every coefficient is below 2**width.  The
# recursion only adds and shifts, so coefficients stay nonnegative, and by
# induction on r + len(desc) every coefficient of S(desc, r) is at most
# C(r + n, n) with n = len(desc): the first term's are at most C(r - 1 + n, n)
# (shrunk has at most n parts) and the second's at most C(r + n - 1, n - 1),
# which sum to C(r + n, n).  Normalising only lowers r and the parts, and
# caps at r >= 1 leave every part positive, so every state reached from a
# type still has r <= weight and n <= rank, and a width with
# 2**width > C(weight + rank, rank) is carry-free.  This is far tighter than
# 2**(weight + rank), which would give (300, 300, 300), whose coefficients
# stay below 2**19, 960-bit slots and a query at b = 450 hundreds of MB of
# memo.  count_stehling takes polyring.slot_width of that bound, so slots
# are whole machine words, which polyring.unpack_slots reads back, and few
# widths occur; the memo key carries the width so that one memo shared
# across types never mixes widths.

def _normal(desc, r, gap):
    """The normal form (desc, r, gap) of S(desc, r), where gap = weight(desc) - r >= 0.

    desc is descending.  r is folded to min(r, gap) and every part capped at
    r until neither changes anything.  An r of 0 means S = 1, whatever desc.
    """
    while True:
        if r > gap:
            r, gap = gap, r
        if not r or desc[0] <= r:
            return desc, r, gap
        desc = tuple([a if a < r else r for a in desc])
        gap = sum(desc) - r


def _stehling(desc, r, width, memo):
    """S(desc, r) packed at width bits a coefficient, for a normal state.

    A shrink step lowers r and the weight together, so it keeps the gap and
    the fold.  It leaves a part above the new r only when desc[0] == r, and
    then capping desc at r - 1 gives the shrunk state's normal form at once;
    otherwise the shrunk state is normal already.  Every key the chain
    stores is normal.  Only desc[1:] is recursed on, and only when its
    normal state is not in the memo yet, so the stack depth is at most the
    rank.
    """
    get, put = memo.get, memo.put
    gap = sum(desc) - r
    chain = []
    while r:
        key = (width, desc, r)
        value = get(key)
        if value is not None:
            break
        chain.append((key, gap))
        if desc[0] == r:
            desc, r, gap = _normal(desc, r - 1, gap + 1)
        else:
            k = desc.count(desc[0])
            top = desc[0] - 1
            desc = desc[:k - 1] + (top,) + desc[k:] if top else desc[1:]
            r -= 1
    else:
        value = 1
    for key, gap in reversed(chain):
        _, desc, r = key
        # the second term is S(desc[1:], r), whose gap is gap - desc[0] >= 0;
        # it is normalised here (it already is when r is at most that gap,
        # since desc[1] <= desc[0] <= r), so that a child already in the memo
        # (most are) costs one lookup and no call
        rest, child_r, child_gap = desc[1:], r, gap - desc[0]
        if r > child_gap:
            rest, child_r, _ = _normal(rest, r, child_gap)
        if not child_r:
            child = 1
        else:
            child = get((width, rest, child_r))
            if child is None:
                child = _stehling(rest, child_r, width, memo)
        value = put(key, value + (child << (r * width)))
    return value


def total_count(t, memo=None):
    """Total number of subgroups, summed over every order index."""
    t = GroupType(t)
    if len(t) <= 1:
        return IntPoly((t.weight + 1,))
    if memo is None:
        memo = _HIRONAKA_MEMO
    # _extend_row mirrors the row, so the total is twice the sum of its first
    # half, summed one column at a time, plus the middle entry of an even m
    row = _hironaka_row(t, memo)
    m = len(row) - 1
    acc = [2 * sum(column) for column in
           zip_longest(*[value.coeffs for value in row[:(m + 1) // 2]], fillvalue=0)]
    if not m % 2:
        _add_at(acc, row[m // 2].coeffs, 0)
    return IntPoly._trusted(acc)
