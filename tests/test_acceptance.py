"""Acceptance battery: twelve exact criteria with runtime budgets.

Each test prints one pass/fail line (run with -s to see them on success).
The census family in criterion 3 is capped by an exact cost estimate, and
the whole family must finish inside the criterion's 60 s budget.
"""
import itertools
import time

from subcount.cli import main, run_verify
from subcount.closedforms import (
    LinForm, RANK3_TABLES, anyrank_case1, leading_term_ccl, rank2, rank3,
    rank3_with_case, rank4_mmmm_total, rank4_partial, rank4_total_ccl,
    verify_case6_specializations,
)
from subcount.genfun import verify_F2, verify_g_product, verify_sub_series
from subcount.groups import GroupType, rank3_applicable_cases
from subcount.oracle import (
    gaussian_binomial, star_matrix_census, subgroup_census,
)
from subcount.polyring import ZERO
from subcount.recurrence import count_hironaka, count_stehling, total_count


# census family: every type with group order <= 2^10 at p=2 and <= 3^7 at
# p=3 whose estimated enumeration cost (total subgroups times group order)
# fits the cap; the excluded tail is combinatorially explosive (hundreds of
# millions of subgroups at the extreme) and no budget could hold it
CENSUS_WEIGHT_BOUND = {2: 10, 3: 7}
CENSUS_COST_CAP = {2: 6_000_000, 3: 2_000_000}


def _report(num, ok, detail=""):
    line = "criterion %02d %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " " + detail
    print(line)
    assert ok, line


def _types(rank, max_part):
    for parts in itertools.combinations_with_replacement(
            range(1, max_part + 1), rank):
        yield GroupType(parts)


def _partitions_up_to(bound):
    found = []

    def rec(rest, max_part, acc):
        if acc:
            found.append(tuple(acc))
        for part in range(1, min(rest, max_part) + 1):
            rec(rest - part, part, acc + [part])

    rec(bound, bound, [])
    return sorted(set(found))


def census_family(cost_caps):
    family = []
    for p, bound in sorted(CENSUS_WEIGHT_BOUND.items()):
        for parts in _partitions_up_to(bound):
            t = GroupType(parts)
            cost = total_count(t).eval_at(p) * p ** t.weight
            if cost <= cost_caps[p]:
                family.append((t, p))
    return family


def test_criterion_01_closed_forms_match_recurrence():
    start = time.monotonic()
    queries = 0
    rank3_cases = set()
    for t in _types(2, 5):
        for b in range(0, t.weight + 1):
            res = rank2(t, b)
            assert res.covered and res.value == count_hironaka(t, b), (t, b)
            queries += 1
    for t in _types(3, 5):
        for b in range(0, t.weight + 1):
            res = rank3(t, b)
            assert res.covered and res.value == count_hironaka(t, b), (t, b)
            rank3_cases.add(res.case.case)
            queries += 1
    elapsed = time.monotonic() - start
    all_cases = rank3_cases == set(range(1, 11))
    _report(1, all_cases and elapsed < 10.0,
            "(%d queries, all 10 rank-3 cases hit, %.1fs)" % (queries, elapsed))


def test_criterion_02_recurrences_agree():
    start = time.monotonic()
    checked = 0
    for rank in range(1, 5):
        for t in _types(rank, 4):
            for b in range(0, t.weight + 1):
                assert count_hironaka(t, b) == count_stehling(t, b), (t, b)
                checked += 1
    elapsed = time.monotonic() - start
    _report(2, elapsed < 10.0, "(%d pairs, %.1fs)" % (checked, elapsed))


def test_criterion_03_census_agreement():
    family = census_family(CENSUS_COST_CAP)
    start = time.monotonic()
    closure_counts = {}
    for t, p in family:
        res = subgroup_census(t, p)
        closure_counts[(t, p)] = res.counts
        for b, got in enumerate(res.counts):
            assert got == count_hironaka(t, b).eval_at(p), (t, p, b)
    star_members = 0
    for t, p in family:
        if t.rank <= 3:
            star = star_matrix_census(t, p)
            assert star.counts == closure_counts[(t, p)], (t, p)
            star_members += 1
    elapsed = time.monotonic() - start
    _report(3, elapsed < 60.0,
            "(cover census, %d types, %d star cross-checks, %.1fs)"
            % (len(family), star_members, elapsed))


def test_criterion_04_symmetry():
    for rank in (2, 3):
        for t in _types(rank, 5):
            m = t.weight
            for b in range(0, m // 2 + 1):
                assert count_hironaka(t, b) == count_hironaka(t, m - b), (t, b)
    _report(4, True, "(ranks 2 and 3, parts <= 5)")


def test_criterion_05_elementary_abelian():
    for d in range(0, 7):
        t = GroupType((1,) * d)
        for b in range(0, d + 1):
            assert count_hironaka(t, b) == gaussian_binomial(d, b), (d, b)
    _report(5, True, "(d <= 6)")


def test_criterion_06_equal_parts_rank4_totals():
    start = time.monotonic()
    for m in range(1, 5):
        closed = rank4_mmmm_total(m)
        recurrence = total_count((m, m, m, m))
        assert closed == recurrence, m
        assert closed.degree() == 4 * m, m
        assert closed.leading_coeff() == 1, m
    census_total = subgroup_census((1, 1, 1, 1), 2).total
    assert census_total == 67
    assert rank4_mmmm_total(1).eval_at(2) == 67
    elapsed = time.monotonic() - start
    _report(6, elapsed < 30.0, "(m <= 4, census value 67, %.1fs)" % elapsed)


def test_criterion_07_chain_totals():
    for chain in itertools.combinations_with_replacement(range(1, 4), 4):
        w, x, y, z = chain
        closed = rank4_total_ccl(w, x, y, z)
        assert closed == total_count(chain), chain
        coeff, degree = leading_term_ccl(w, x, y, z)
        assert closed.degree() == degree, chain
        assert closed.leading_coeff() == coeff, chain
    _report(7, True, "(15 chains, leading terms included)")


def test_criterion_08_rank4_interval_formulas():
    covered = 0
    reflected = 0
    for t in _types(4, 4):
        a1, a2, a3, _ = t.parts
        m = t.weight
        for b in range(0, m + 1):
            res = rank4_partial(t, b)
            if not res.covered:
                continue
            assert res.value == count_hironaka(t, b), (t, b)
            covered += 1
            direct = (0 <= b <= a1 or a1 <= b <= a2
                      or a2 <= b <= min(a3, a1 + a2))
            if not direct:
                reflected += 1
    ok = covered > 0 and reflected > 0
    _report(8, ok, "(%d covered queries, %d via reflection)"
            % (covered, reflected))


def test_criterion_09_anyrank_product():
    checked = 0
    for rank in range(2, 7):
        for t in _types(rank, 3):
            a1, m = t.parts[0], t.weight
            for b in range(0, a1 + 1):
                res = anyrank_case1(t, b)
                assert res.covered and res.value == count_hironaka(t, b), (t, b)
                checked += 1
            for b in range(m - a1, m + 1):
                res = anyrank_case1(t, b)
                assert res.covered and res.value == count_hironaka(t, b), (t, b)
                checked += 1
    _report(9, True, "(ranks 2..6, %d queries)" % checked)


def test_criterion_10_generating_functions():
    start = time.monotonic()
    full = verify_F2(bounds=(6, 6, 6))
    assert full == [], full[:3]
    staircase = verify_g_product(bounds=(6, 6, 6))
    assert staircase == [], staircase[:3]
    split = verify_sub_series(bounds=(6, 6, 6))
    assert split["validated"]["equal_piece"] is not None
    assert split["validated"]["strict_piece"] is not None
    assert split["sum_matches_full"]
    elapsed = time.monotonic() - start
    ok = split["ok"] and elapsed < 30.0
    _report(10, ok, "(readings: %s | %s, %.1fs)"
            % (split["validated"]["equal_piece"],
               split["validated"]["strict_piece"], elapsed))


def test_criterion_11_boundary_agreement():
    overlaps = 0
    for t in _types(3, 5):
        for b in range(0, t.weight + 1):
            cases = rank3_applicable_cases(t, b)
            if len(cases) < 2:
                continue
            values = {rank3_with_case(t, b, k).value for k in cases}
            assert len(values) == 1, (t, b, cases)
            overlaps += 1
    _report(11, overlaps > 0, "(%d overlapping queries)" % overlaps)


def test_criterion_12_negative_control(capsys):
    original = RANK3_TABLES[6]
    coeff, expo = original[0]
    RANK3_TABLES[6] = ((LinForm(coeff.coeffs, coeff.const + 1), expo),) + original[1:]
    try:
        code = main(["verify", "--max-rank", "3", "--max-part", "3",
                     "--primes", "2", "--oracle-limit", "64"])
        out = capsys.readouterr().out
    finally:
        RANK3_TABLES[6] = original
    named = "rank3 Case 6" in out
    failed = code == 1 and "FAIL" in out
    # the perturbation must not leak into later tests
    assert verify_case6_specializations() == []
    assert rank3((2, 2, 3), 4).value == count_hironaka((2, 2, 3), 4)
    with capsys.disabled():
        _report(12, failed and named,
                "(perturbed table detected and named by cmd_verify)")


def test_out_of_range_queries_are_zero():
    # not a numbered criterion, but the gate should pin the convention
    assert count_hironaka((1, 2), -3) == ZERO
    assert count_hironaka((1, 2), 99) == ZERO
