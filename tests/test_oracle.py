"""Brute-force censuses and the q-binomial reference."""
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcount import oracle
from subcount.closedforms import gaussian_binomial
from subcount.groups import GroupType, OutOfRange
from subcount.oracle import (
    CENSUS_COST_LIMIT, DEFAULT_LIMIT, PRIME_TEST_BOUND, STAR_COST_LIMIT, CensusResult,
    CensusTooCostly, GroupTooLarge, PrimalityUndecided, _check_prime, census_cost,
    star_census_work, star_matrix_census, subgroup_census,
)
from subcount.polyring import IntPoly, ONE
from subcount.recurrence import count_hironaka


# largest weight drawn at each prime: orders stay at most 256, 243 and 125
WEIGHT_BOUND = {2: 8, 3: 5, 5: 3}


@st.composite
def small_groups(draw):
    p = draw(st.sampled_from(sorted(WEIGHT_BOUND)))
    budget = WEIGHT_BOUND[p]
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        if budget == 0:
            break
        part = draw(st.integers(1, budget))
        parts.append(part)
        budget -= part
    return GroupType(parts), p


# largest weight drawn for the matrix census: orders stay at most 4096,
# 2187 and 3125
STAR_WEIGHT_BOUND = {2: 12, 3: 7, 5: 5}


@st.composite
def star_groups(draw):
    p = draw(st.sampled_from(sorted(STAR_WEIGHT_BOUND)))
    rank = draw(st.integers(1, 4))
    weight = draw(st.integers(rank, STAR_WEIGHT_BOUND[p]))
    cuts = sorted(draw(st.permutations(range(1, weight)))[:rank - 1])
    bounds = [0] + cuts + [weight]
    return GroupType([hi - lo for lo, hi in zip(bounds, bounds[1:])]), p


class TestClosureCensus:
    def test_klein_four(self):
        res = subgroup_census((1, 1), 2)
        assert res.counts == (1, 3, 1)
        assert res.total == 5
        assert res.prime == 2
        assert res.group_type == GroupType((1, 1))

    def test_elementary_rank4(self):
        res = subgroup_census((1, 1, 1, 1), 2)
        assert res.counts == (1, 15, 35, 15, 1)
        assert res.total == 67

    def test_cyclic(self):
        assert subgroup_census((3,), 2).counts == (1, 1, 1, 1)
        assert subgroup_census((2,), 5).counts == (1, 1, 1)

    def test_trivial_group(self):
        assert subgroup_census((), 2).counts == (1,)

    def test_mixed_type_matches_recurrence(self):
        t = GroupType((1, 2))
        for p in (2, 3, 5):
            res = subgroup_census(t, p)
            for b, got in enumerate(res.counts):
                assert got == count_hironaka(t, b).eval_at(p)

    @settings(max_examples=40, deadline=None)
    @given(small_groups())
    def test_matches_recurrence_and_star(self, group):
        t, p = group
        counts = subgroup_census(t, p).counts
        assert counts == tuple(count_hironaka(t, b).eval_at(p)
                               for b in range(t.weight + 1))
        assert counts == star_matrix_census(t, p).counts

    def test_part_order_is_irrelevant(self):
        assert subgroup_census((2, 1), 2).counts == subgroup_census((1, 2), 2).counts

    def test_size_limit(self):
        with pytest.raises(GroupTooLarge):
            subgroup_census((13,), 2)
        with pytest.raises(GroupTooLarge):
            subgroup_census((1, 1), 2, limit=3)
        assert DEFAULT_LIMIT == 4096

    def test_cost_limit(self):
        # order 4096 passes the order limit, but (1^12) at p=2 has about
        # 4.9e11 subgroups
        t = (1,) * 12
        assert census_cost(t, 2) == 488_176_700_923 * 4096
        with pytest.raises(CensusTooCostly):
            subgroup_census(t, 2)
        assert issubclass(CensusTooCostly, GroupTooLarge)
        # the acceptance family's cover costs reach 6,000,000
        assert CENSUS_COST_LIMIT >= 6_000_000

    def test_prime_validated(self):
        with pytest.raises(ValueError):
            subgroup_census((1, 1), 4)
        with pytest.raises(ValueError):
            subgroup_census((1, 1), 1)

    def test_json_shape(self):
        data = subgroup_census((1, 1), 2).to_json()
        assert data == {"prime": 2, "type": [1, 1], "counts": [1, 3, 1], "total": 5}

    def test_equality(self):
        assert subgroup_census((1, 1), 2) == subgroup_census((1, 1), 2)
        assert subgroup_census((1, 1), 2) != subgroup_census((1, 1), 3)


class TestStarCensus:
    def test_matches_closure(self):
        for t in [(1,), (1, 1), (2, 1), (1, 1, 1), (1, 2, 2), (1, 1, 1, 1)]:
            for p in (2, 3):
                star = star_matrix_census(t, p)
                closure = subgroup_census(t, p)
                assert star.counts == closure.counts, (t, p)

    def test_matches_recurrence(self):
        t = GroupType((2, 3))
        res = star_matrix_census(t, 2)
        for b, got in enumerate(res.counts):
            assert got == count_hironaka(t, b).eval_at(2)

    def test_size_limit(self):
        with pytest.raises(GroupTooLarge):
            star_matrix_census((13,), 2)

    def test_size_limit_on_a_huge_group(self):
        for census in (subgroup_census, star_matrix_census):
            with pytest.raises(GroupTooLarge) as info:
                census((1000000,), 3)
            assert str(info.value) == (
                "group order 3^1000000 exceeds the enumeration limit 4096")

    @settings(max_examples=200, deadline=None)
    @given(star_groups())
    def test_matches_recurrence_up_to_rank_4(self, group):
        t, p = group
        assert star_matrix_census(t, p).counts == tuple(
            count_hironaka(t, b).eval_at(p) for b in range(t.weight + 1))

    def test_answers_what_the_cover_census_refuses(self):
        # (1^8) at p=2: 417,199 subgroups times order 256 is over the cover
        # census's cost limit; its matrix-census work bound is 888,844 calls
        t = (1,) * 8
        with pytest.raises(CensusTooCostly):
            subgroup_census(t, 2)
        assert star_census_work(t, 2) == 888_844
        assert star_matrix_census(t, 2).counts == tuple(
            gaussian_binomial(8, b).eval_at(2) for b in range(9))

    @pytest.mark.parametrize("t, p", [
        ((2, 2, 3), 2), ((1, 2, 3, 3), 2), ((2, 2, 2, 2), 2), ((1, 1, 2, 2), 3),
        ((1, 2, 2), 5), ((1, 1, 1, 3, 3), 2)])
    def test_every_solved_value_passes_its_minor_test(self, monkeypatch, t, p):
        # each value the search sets must pass its cell's minor test, tried
        # directly, the minor it writes must be that cofactor determinant,
        # and the count of the last cell must equal the number of residues
        # that pass it; rank 5 has cells of span 3 that are not the last
        fillings = oracle._fillings
        parts = GroupType(t).parts
        seen = [0, 0]

        def exponent(x):
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            return e

        def det(rows):
            # Laplace expansion along the first column, skipping its zeros
            if not rows:
                return 1
            return sum((-1) ** q * rows[q][0] * det([row[1:] for row in rows[:q] + rows[q + 1:]])
                       for q in range(len(rows)) if rows[q][0])

        def minor(mat, r, j):
            return det([[mat[q][c] for c in range(r + 1, j + 1)] for q in range(r, j)])

        def passes(mat, r, j, value):
            ivec = [exponent(mat[q][q]) for q in range(len(mat))]
            excess = ivec[j] + sum(ivec[r:j]) - parts[r]
            return excess <= 0 or value % p ** excess == 0

        def checked(mat, minors, cells, solves, i):
            if i:
                r, j, _ = cells[i - 1]
                value = minor(mat, r, j)
                assert passes(mat, r, j, value)
                assert minors[j][r] == value
                seen[0] += 1
            got = fillings(mat, minors, cells, solves, i)
            if i == len(cells) - 1:
                r, j, _ = cells[i]
                want = 0
                for v in range(mat[j][j]):
                    mat[r][j] = v
                    want += passes(mat, r, j, minor(mat, r, j))
                assert got == want
                seen[1] += 1
            return got

        monkeypatch.setattr(oracle, "_fillings", checked)
        assert star_matrix_census(t, p).counts == tuple(
            count_hironaka(t, b).eval_at(p) for b in range(sum(t) + 1))
        assert seen[0] > 0 and seen[1] > 0

    def test_admits_what_the_candidate_count_refused(self):
        # these criterion-3 members have over 2e7 candidate matrices (every
        # residue of every entry), which a gate on that count once refused;
        # their work bounds are at most a few thousand search calls
        for t, p in [((1, 1, 2, 6), 2), ((1, 1, 1, 7), 2), ((1, 1, 1, 4), 3)]:
            assert star_census_work(t, p) < 10_000
            assert star_matrix_census(t, p).counts == tuple(
                count_hironaka(t, b).eval_at(p) for b in range(sum(t) + 1))

    def test_cost_limit(self):
        # (1,1,1,9) at p=2, the old refused example, has only 475 subgroups
        # and a work bound of 960 search calls; a lifted order limit lets
        # (6,6,6,6) at p=2 past the order check, and its bound refuses it,
        # priced at the first partial sum past the cap (the full sum is
        # 17,096,140)
        assert star_census_work((1, 1, 1, 9), 2) == 960
        assert star_census_work((6, 6, 6, 6), 2) == 10_002_050 > STAR_COST_LIMIT
        with pytest.raises(CensusTooCostly):
            star_matrix_census((6, 6, 6, 6), 2, limit=2 ** 24)

    def test_pricing_stops_past_the_cap(self):
        # (2,)*11 at p=2: its floor 3**11 * 55 = 9,743,085 is within the cap,
        # so its type vectors are summed, but only until the sum passes it
        start = time.monotonic()
        with pytest.raises(CensusTooCostly):
            star_matrix_census((2,) * 11, 2, limit=2 ** 22)
        assert time.monotonic() - start < 1.0

    def test_cost_limit_on_a_huge_type(self):
        # 1001**4 type vectors of 6 cells: refused by that count alone, before
        # any type vector is visited
        t = (1000,) * 4
        assert star_census_work(t, 2) == 1001 ** 4 * 6
        start = time.monotonic()
        with pytest.raises(CensusTooCostly):
            star_matrix_census(t, 2, limit=2 ** 4000)
        assert time.monotonic() - start < 1.0

    def test_work_bound(self):
        # ranks 1 and 2 are charged one call a type vector: rank 2's only
        # cell is the last one, whose values are counted
        assert star_census_work((3,), 2) == 4
        assert star_census_work((1, 1), 2) == 4
        # (1,1,1): 8 vectors, each 1 + u(0,1) + u(0,1) * u(1,2) with
        # u(r, j) = p**min(i_j, a_r - i_r)
        assert star_census_work((1, 1, 1), 3) == sum(
            1 + 3 ** min(i1, 1 - i0) + 3 ** (min(i1, 1 - i0) + min(i2, 1 - i1))
            for i0 in (0, 1) for i1 in (0, 1) for i2 in (0, 1))


class TestAdmission:
    # each census's refusals: the prime is checked first, then the order,
    # then that census's own price against its own cap
    REFUSALS = [
        ("subgroup_census", (1,) * 12, 2, 4096, CensusTooCostly,
         "census of (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1) at p=2 would cost "
         "1999571766980608 (subgroups times order), over the limit 20000000"),
        ("star_matrix_census", (6, 6, 6, 6), 2, 2 ** 24, CensusTooCostly,
         "matrix census of (6, 6, 6, 6) at p=2 may make 10002050 or more search "
         "calls, over the limit 10000000"),
        ("subgroup_census", (1,) * 13, 2, 4096, GroupTooLarge,
         "group order 2^13 exceeds the enumeration limit 4096"),
        ("star_matrix_census", (1000,) * 4, 2, 4096, GroupTooLarge,
         "group order 2^4000 exceeds the enumeration limit 4096"),
        ("subgroup_census", (1000000,), 4, 4096, ValueError, "4 is not prime"),
        ("star_matrix_census", (1000000,), 4, 4096, ValueError, "4 is not prime"),
    ]

    @pytest.mark.parametrize("name, t, p, limit, error, text", REFUSALS, ids=[
        "cover-price", "matrix-price", "cover-order", "matrix-order", "cover-prime",
        "matrix-prime"])
    def test_refusal_text_and_order(self, name, t, p, limit, error, text):
        with pytest.raises(error) as info:
            getattr(oracle, name)(t, p, limit=limit)
        assert type(info.value) is error
        assert str(info.value) == text
        if issubclass(error, GroupTooLarge):
            assert not oracle.admits(name, t, p, limit)
        else:
            # a bad prime is no refusal: the predicate raises it as well
            with pytest.raises(error, match=text):
                oracle.admits(name, t, p, limit)

    def test_each_census_is_priced_by_its_own_rule(self):
        # (1^8) at p=2 is over the cover census's cap and within the matrix
        # census's, so only the matrix census admits it
        t = (1,) * 8
        assert census_cost(t, 2) > CENSUS_COST_LIMIT
        assert not oracle.admits("subgroup_census", t, 2, 256)
        assert oracle.admits("star_matrix_census", t, 2, 256)
        assert oracle.admits("subgroup_census", (1, 1), 2)

    def test_a_census_is_named(self):
        with pytest.raises(KeyError):
            oracle.admits("cover census", (1, 1), 2)


class TestPrimeCheck:
    def test_matches_trial_division(self):
        def trial(n):
            return all(n % k for k in range(2, int(n ** 0.5) + 1))

        for n in range(2, 10 ** 4):
            try:
                _check_prime(n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == trial(n), n

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to the first 4, 9 and 12 prime bases; each
        # fails a later one of the 13
        for n in (3_215_031_751, 3_825_123_056_546_413_051,
                  318_665_857_834_031_151_167_461):
            with pytest.raises(ValueError, match="not prime"):
                _check_prime(n)

    def test_undecided_above_the_bound(self):
        with pytest.raises(PrimalityUndecided):
            _check_prime((2 ** 61 - 1) * (2 ** 31 - 1))
        with pytest.raises(PrimalityUndecided):
            _check_prime(PRIME_TEST_BOUND)
        assert issubclass(PrimalityUndecided, ValueError)


class TestGaussianBinomial:
    def test_values(self):
        assert gaussian_binomial(4, 2) == IntPoly((1, 1, 2, 1, 1))
        assert gaussian_binomial(3, 1) == IntPoly((1, 1, 1))
        assert gaussian_binomial(5, 0) == ONE
        assert gaussian_binomial(5, 5) == ONE

    def test_symmetry(self):
        for d in range(0, 7):
            for b in range(0, d + 1):
                assert gaussian_binomial(d, b) == gaussian_binomial(d, d - b)

    def test_matches_elementary_count(self):
        for d in range(0, 7):
            t = GroupType((1,) * d)
            for b in range(0, d + 1):
                assert gaussian_binomial(d, b) == count_hironaka(t, b)

    def test_pascal_recurrence(self):
        # (d b) = (d-1 b-1) + p^b (d-1 b)
        p_to = IntPoly.term
        for d in range(1, 7):
            for b in range(1, d):
                lhs = gaussian_binomial(d, b)
                rhs = gaussian_binomial(d - 1, b - 1) + p_to(1, b) * gaussian_binomial(d - 1, b)
                assert lhs == rhs

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            gaussian_binomial(3, 4)
        with pytest.raises(OutOfRange):
            gaussian_binomial(3, -1)
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 0)


class TestCensusResult:
    def test_total_computed(self):
        res = CensusResult(2, (1, 1), (1, 3, 1))
        assert res.total == 5
        assert res.counts == (1, 3, 1)

    def test_total_of_a_generator(self):
        res = CensusResult(2, (1,), (c for c in (1, 1)))
        assert res.counts == (1, 1)
        assert res.total == 2

    def test_invariants_checked(self):
        # one count per order index, a trivial subgroup and counts that read
        # the same backwards; a census that breaks one is a bug, not a result
        for counts in ((1, 3), (1, 3, 2), (2, 3, 2), (1, 3, 1, 1)):
            with pytest.raises(RuntimeError,
                               match=r"census invariants violated for \(1, 1\) at p=2"):
                CensusResult(2, (1, 1), counts)
