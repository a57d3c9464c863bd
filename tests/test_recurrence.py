"""The two counting recurrences and their memo tables."""
import itertools
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from subcount import recurrence
from subcount.closedforms import rank2, rank3_mmm, rank4_mmmm_total
from subcount.groups import GroupType
from subcount.polyring import IntPoly, ONE, ZERO, geometric
from subcount.recurrence import MemoTable, count_hironaka, count_stehling, total_count


small_types = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(GroupType)
# parts run far past most order indices, so Stehling's caps apply again and again
wide_types = st.lists(st.integers(1, 30), min_size=0, max_size=5).map(GroupType)
# rows of any polynomials, zero among them, with coefficient lists of
# unequal lengths and either sign
poly_rows = st.lists(st.lists(st.integers(-3, 3), max_size=5).map(IntPoly),
                     min_size=1, max_size=9)


def extend_row_reference(head_row, a):
    """recurrence._extend_row term by term on IntPoly values."""
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


class TestSpotValues:
    def test_cyclic(self):
        t = (3,)
        for b in range(4):
            assert count_hironaka(t, b) == ONE

    def test_two_generators(self):
        assert count_hironaka((1, 1), 1) == IntPoly((1, 1))

    def test_elementary_rank3(self):
        # subspace counts of a 3-dimensional space: 1, p^2+p+1, p^2+p+1, 1
        t = (1, 1, 1)
        assert count_hironaka(t, 1) == IntPoly((1, 1, 1))
        assert count_hironaka(t, 2) == IntPoly((1, 1, 1))

    def test_weight_extremes_are_one(self):
        for t in [(2,), (1, 2), (2, 2, 3)]:
            m = sum(t)
            assert count_hironaka(t, 0) == ONE
            assert count_hironaka(t, m) == ONE

    def test_out_of_range_is_zero(self):
        assert count_hironaka((1, 2), -1) == ZERO
        assert count_hironaka((1, 2), 4) == ZERO
        assert count_stehling((1, 2), -1) == ZERO
        assert count_stehling((1, 2), 4) == ZERO

    @pytest.mark.parametrize("count", [count_hironaka, count_stehling])
    @pytest.mark.parametrize("b", [True, 1.0, 1.5])
    def test_order_index_must_be_an_int(self, count, b):
        # a bool once read as b=1 and a float reached the tables
        with pytest.raises(TypeError, match="b must be an int"):
            count((1, 2), b)

    def test_empty_type(self):
        assert count_hironaka((), 0) == ONE
        assert count_hironaka((), 1) == ZERO

    def test_total_for_elementary_rank4(self):
        # 67 subgroups of the rank-4 elementary abelian 2-group
        assert total_count((1, 1, 1, 1)).eval_at(2) == 67

    def test_total_is_sum(self):
        t = GroupType((1, 2, 2))
        s = sum((count_hironaka(t, b) for b in range(t.weight + 1)), ZERO)
        assert total_count(t) == s


class TestAgreement:
    @given(small_types, st.integers(-1, 17))
    @settings(max_examples=120, deadline=None)
    def test_hironaka_equals_stehling(self, t, b):
        assert count_hironaka(t, b) == count_stehling(t, b)

    @given(small_types, st.integers(0, 16))
    @settings(max_examples=120, deadline=None)
    def test_symmetry(self, t, b):
        b = b % (t.weight + 1)
        assert count_hironaka(t, b) == count_hironaka(t, t.weight - b)

    @given(small_types, st.integers(0, 16))
    @settings(max_examples=120, deadline=None)
    def test_coefficients_nonnegative(self, t, b):
        f = count_hironaka(t, b)
        assert all(c >= 0 for c in f.coeffs)

    @given(wide_types)
    @settings(max_examples=40, deadline=None)
    def test_hironaka_equals_stehling_wide_parts(self, t):
        hironaka = MemoTable()
        for b in range(-1, t.weight + 2):
            assert count_stehling(t, b, MemoTable()) == count_hironaka(t, b, hironaka), b

    @given(poly_rows, st.integers(-9, 4))
    @example([ONE, ZERO, IntPoly((0, 0, 5))], -1)  # a < mp, a zero entry
    @example([IntPoly((2, 1)), ZERO, ONE], 0)  # a == mp
    @example([IntPoly((1, -1)), IntPoly((0, 1))], 3)  # a > mp, cancelling terms
    @settings(max_examples=200, deadline=None)
    def test_extend_row_matches_term_by_term(self, head_row, offset):
        # a runs from 1 to past mp, the head row's last index
        a = max(1, len(head_row) - 1 + offset)
        got = recurrence._extend_row(tuple(head_row), a)
        want = extend_row_reference(head_row, a)
        assert got == want
        assert all(not r.coeffs or r.coeffs[-1] != 0 for r in got)

    @given(wide_types)
    # total_count sums half of the palindromic row and, for an even weight,
    # adds the middle entry once; one example of each
    @example(GroupType((2, 3)))  # weight 5
    @example(GroupType((3, 4, 5)))  # weight 12
    @settings(max_examples=25, deadline=None)
    def test_total_is_sum_of_stehling(self, t):
        want = sum((count_stehling(t, b, MemoTable()) for b in range(t.weight + 1)), ZERO)
        assert total_count(t, MemoTable()) == want

    def test_subgroups_lie_in_omega_r(self):
        # a subgroup of order p**b is killed by p**b, so it lies in the
        # subgroup of that exponent, whose type caps every part at b;
        # Hironaka never caps a part, so this checks Stehling's normal form
        # by another route
        memo = MemoTable()
        for rank in range(5):
            for parts in itertools.combinations_with_replacement(range(1, 7), rank):
                for b in range(sum(parts) + 1):
                    capped = tuple(min(a, b) for a in parts)
                    assert count_hironaka(parts, b, memo) == count_hironaka(capped, b, memo), (parts, b)

    def test_elementary_matches_geometric(self):
        assert count_hironaka((1, 1), 1) == geometric(2)
        assert count_stehling((1, 1, 1, 1), 1) == geometric(4)

    def test_accepts_any_iterable(self):
        assert count_hironaka([2, 1], 1) == count_hironaka(GroupType((1, 2)), 1)


class TestExhaustive:
    def test_hironaka_equals_stehling_small_types(self):
        # every b from -1 to m + 1 reaches the row boundaries b = a_last,
        # a_last + 1 and m - b = mp, where mp is the weight without a_last
        for rank in range(5):
            for parts in itertools.combinations_with_replacement(range(1, 6), rank):
                for b in range(-1, sum(parts) + 2):
                    got = count_hironaka(parts, b, MemoTable())
                    want = count_stehling(parts, b, MemoTable())
                    assert got == want, (parts, b)

    def test_shared_memo_matches_fresh(self):
        shared = MemoTable()
        for parts in [(2, 3, 4), (2, 3)]:
            for b in range(-1, sum(parts) + 2):
                assert count_hironaka(parts, b, shared) == count_hironaka(parts, b, MemoTable())
        # Stehling stores a state and its dual under one key, so a state
        # folded by a b > m/2 query is read by later queries of other types;
        # (1,)*34 takes 128-bit slots
        shared = MemoTable()
        for parts in [(2, 3, 4), (2, 3), (5, 5, 5), (1,) * 34]:
            for b in range(-1, sum(parts) + 2):
                got = count_stehling(parts, b, shared)
                assert got == count_stehling(parts, b, MemoTable()), (parts, b)
                assert got == count_hironaka(parts, b, MemoTable()), (parts, b)


class TestLargeTypeBudgets:
    """Large types finish with at least ten times margin on their budgets."""

    def test_rank3_middle_index(self):
        start = time.monotonic()
        got = count_hironaka((300, 300, 300), 450, MemoTable())
        assert time.monotonic() - start < 3.0
        assert got == rank3_mmm(300, 450).value

    def test_rank2_single_low_index(self):
        # one index of a type with huge parts still builds the whole row
        start = time.monotonic()
        got = count_hironaka((1000, 1000), 1, MemoTable())
        assert time.monotonic() - start < 3.0
        assert got == rank2((1000, 1000), 1).value

    def test_cyclic_type_builds_no_row(self):
        # a cyclic group has one subgroup of each order; the row of (10**6,)
        # alone would be an 8 MB tuple, and its total a million additions
        tracemalloc.start()
        try:
            got = [count_hironaka((10 ** 6,), b, MemoTable()) for b in (0, 1, 10 ** 6)]
            total = total_count((10 ** 6,), MemoTable())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [ONE] * 3
        assert total == IntPoly([10 ** 6 + 1])
        assert peak < 100_000

    def test_rank4_total(self):
        # weight 1000: the total sums 500 row entries of degree up to ~700
        # column by column, and adds the middle one
        t = (100, 200, 300, 400)
        start = time.monotonic()
        got = total_count(t, MemoTable())
        assert time.monotonic() - start < 2.0
        memo = MemoTable()
        assert got == sum((count_hironaka(t, b, memo) for b in range(sum(t) + 1)), ZERO)

    def test_rank4_table_command(self):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "subcount.cli", "table", "--type", "100,100,100,100"],
            capture_output=True, text=True)
        assert time.monotonic() - start < 5.0
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 402
        assert lines[-1] == "total: %s" % rank4_mmmm_total(100).text()


class TestStehlingDepth:
    """The Stehling descent recurses only on desc[1:], so its stack depth is
    bounded by the rank, not by b."""

    @pytest.mark.parametrize("parts, b", [((2000,), 2000), ((1200,), 1000)])
    def test_long_cyclic_descent(self, parts, b):
        start = time.monotonic()
        got = count_stehling(parts, b, MemoTable())
        assert time.monotonic() - start < 1.0
        assert got == ONE

    def test_rank2_near_top_index(self):
        start = time.monotonic()
        got = count_stehling((500, 500), 990, MemoTable())
        assert time.monotonic() - start < 1.0
        assert got == count_hironaka((500, 500), 990, MemoTable())

    def test_rank2_middle_index(self):
        start = time.monotonic()
        got = count_stehling((1000, 1000), 1000, MemoTable())
        assert time.monotonic() - start < 1.0
        assert got == rank2((1000, 1000), 1000).value


class TestStehlingWork:
    """The memo holds the same states however the descent reaches them."""

    @pytest.mark.parametrize("parts, entries", [((10, 14, 15, 17), 260), ((25, 32, 33), 266)],
                             ids=["rank4", "rank3"])
    def test_memo_entries_after_a_table(self, parts, entries):
        # one answer per dual pair b, m - b plus every packed state the table
        # reaches; a child found in the memo before its call must not add or
        # skip a state
        m = sum(parts)
        memo = MemoTable()
        for b in range(m + 1):
            count_stehling(parts, b, memo)
        assert len(memo) == entries
        for b in range(m + 1):
            assert count_stehling(parts, m - b, memo) is count_stehling(parts, b, memo)
        # a state (width, desc, r) is stored only in its normal form, with
        # every part at most r and r at most its dual index weight(desc) - r;
        # the answers are 2-tuples
        states = [key for key in memo._data if len(key) == 3]
        assert len(states) == entries - (m // 2 + 1)
        assert all(desc[0] <= r <= sum(desc) - r for _, desc, r in states)

    def test_rank3_middle_index_entries(self):
        # 23,026 entries when parts were capped only at the index gap
        memo = MemoTable()
        got = count_stehling((300, 300, 300), 450, memo)
        assert len(memo) < 1_000
        assert got == rank3_mmm(300, 450).value

    def test_rank4_middle_index_entries(self):
        # 39,173 entries when parts were capped only at the index gap
        memo = MemoTable()
        got = count_stehling((100, 200, 300, 400), 500, memo)
        assert len(memo) < 5_000
        assert got == count_hironaka((100, 200, 300, 400), 500, MemoTable())


def gaussian_binomial(n, k, q):
    """[n choose k]_q at an integer q, by the product formula."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class TestStehlingPacking:
    """count_stehling packs coefficients into fixed-width slots of one int."""

    @pytest.mark.parametrize("parts", [
        (1,) * 32, (1,) * 33, (1,) * 34, (30, 31), (31, 32), (32, 33)])
    def test_width_boundaries(self, parts):
        # the slots widen from 64 to 128 bits between (1,)*33 and (1,)*34,
        # where C(weight + rank, rank) passes 2**64; the others sit either
        # side of weight + rank = 64
        hironaka, stehling = MemoTable(), MemoTable()
        for b in range(-1, sum(parts) + 2):
            assert count_stehling(parts, b, stehling) == count_hironaka(parts, b, hironaka), b

    def test_coefficients_wider_than_64_bits(self):
        got = count_stehling((1,) * 80, 40, MemoTable())
        assert max(got.coeffs) >= 2 ** 64
        # every true coefficient is below 2**72, so this value fixes them all
        q = 2 ** 72
        assert got.eval_at(q) == gaussian_binomial(80, 40, q)

    def test_shared_memo_across_widths(self):
        # the types share small states such as (1, 1, 1), reached at 64- and
        # at 128-bit slots
        types = [(1,) * 34, (2, 3, 4), (1,) * 33, (1,) * 40, (1, 1, 1), (1,) * 34]
        shared = MemoTable()
        for parts in types:
            for b in range(sum(parts) + 1):
                assert count_stehling(parts, b, shared) == count_stehling(parts, b, MemoTable())

    @given(small_types, st.integers(0, 16))
    @settings(max_examples=120, deadline=None)
    def test_results_are_canonical(self, t, b):
        r = count_stehling(t, b % (t.weight + 1), MemoTable())
        rebuilt = IntPoly(list(r.coeffs))
        assert r == rebuilt
        assert hash(r) == hash(rebuilt)
        assert r.coeffs and r.coeffs[-1] != 0
        assert all(type(c) is int for c in r.coeffs)

    def test_out_of_range_adds_no_entry(self):
        for parts in [(), (3,), (1, 2, 2)]:
            memo = MemoTable()
            assert count_stehling(parts, -1, memo) == ZERO
            assert count_stehling(parts, sum(parts) + 1, memo) == ZERO
            assert len(memo) == 0

    def test_independent_of_hironaka_and_polynomial_arithmetic(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("count_stehling used another route's arithmetic")

        for name in ("count_hironaka", "_hironaka_row", "_extend_row"):
            monkeypatch.setattr(recurrence, name, forbidden)
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "shift", "divmod"):
            monkeypatch.setattr(IntPoly, name, forbidden)
        got = [count_stehling((1, 2, 3), b, MemoTable()).coeffs for b in range(7)]
        monkeypatch.undo()
        assert got == [count_hironaka((1, 2, 3), b, MemoTable()).coeffs for b in range(7)]


class TestHironakaIndependence:
    def test_independent_of_stehling(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Hironaka used the Stehling route")

        for name in ("_stehling", "_normal", "count_stehling"):
            monkeypatch.setattr(recurrence, name, forbidden)
        parts = (3, 4, 5, 6)
        bs = range(sum(parts) + 1)
        memo = MemoTable()
        got = [count_hironaka(parts, b, memo) for b in bs]
        total = total_count(parts, MemoTable())
        monkeypatch.undo()
        want = [count_stehling(parts, b, MemoTable()) for b in bs]
        assert got == want
        assert total == sum(want, ZERO)


class TestMemoTable:
    def test_get_put(self):
        memo = MemoTable()
        assert memo.get("k") is None
        memo.put("k", ONE)
        assert memo.get("k") == ONE
        assert len(memo) == 1

    def test_write_once(self):
        memo = MemoTable()
        memo.put("k", ONE)
        memo.put("k", ONE)  # same value is fine
        with pytest.raises(RuntimeError):
            memo.put("k", ZERO)

    def test_custom_memo_isolated(self):
        memo = MemoTable()
        count_hironaka((2, 2), 2, memo=memo)
        assert len(memo) > 0

    @pytest.mark.parametrize("count, parts, shared", [
        (count_hironaka, (2, 2, 3), None),  # the module's global memo
        (count_stehling, (10, 14, 15, 17), MemoTable),
    ], ids=["hironaka", "stehling"])
    def test_thread_safety(self, count, parts, shared):
        bs = range(-1, sum(parts) + 2)
        want = [count(parts, b, MemoTable()) for b in bs]
        memo = shared() if shared else None
        start = threading.Barrier(8)
        results = []

        def worker():
            start.wait()
            results.append([count(parts, b, memo) for b in bs])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(results) == 8
        assert all(r == want for r in results)
