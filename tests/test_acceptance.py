"""Acceptance battery: twelve exact criteria with runtime budgets.

Each test prints one pass/fail line (run with -s to see them on success).
Criteria 1-5, 7-9 and 11 run entries of the verification registry at their
own scales and assert the exact number of comparisons each makes.
The census family in criterion 3 is capped by an exact cost estimate; the
criterion runs the two census entries' probes over that family itself, and
the whole family must finish inside the criterion's 60 s budget.
"""
import itertools
import time

from subcount.cli import main
from subcount.closedforms import (
    CaseTable, LinForm, RANK3_TABLES, rank3, rank4_mmmm_total, verify_case6_specializations,
)
from subcount.genfun import verify_F2, verify_g_product, verify_sub_series
from subcount.groups import GroupType
from subcount import oracle
from subcount.oracle import DEFAULT_LIMIT, subgroup_census
from subcount.polyring import ZERO
from subcount.recurrence import count_hironaka, total_count
from subcount.verify import REGISTRY, SERIES_BOUNDS, Scale, run


# census family: every type with group order <= 2^10 at p=2 and <= 3^7 at
# p=3 whose estimated enumeration cost (total subgroups times group order)
# fits the cap; the excluded tail is combinatorially explosive (hundreds of
# millions of subgroups at the extreme) and no budget could hold it
CENSUS_WEIGHT_BOUND = {2: 10, 3: 7}
CENSUS_COST_CAP = {2: 6_000_000, 3: 2_000_000}


def _report(num, ok, detail):
    line = "criterion %02d %s %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


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
            if oracle.census_cost(t, p) <= cost_caps[p]:
                family.append((t, p))
    return family


def _run(name, compared, **bounds):
    """Run a registry entry at the criterion's scale: it passes on every query."""
    result = run(name, Scale.of(**bounds))
    assert result.passed, result.counterexample
    assert result.compared == compared, (name, result.compared)
    return result


def test_criterion_01_closed_forms_match_recurrence():
    start = time.monotonic()
    rank2 = _run("closed-rank2", 105, max_part=5)
    rank3 = _run("closed-rank3", 350, max_part=5)
    elapsed = time.monotonic() - start
    all_cases = {c.route.case for c in rank3.records} == set(range(1, 11))
    _report(1, all_cases and elapsed < 10.0,
            "(%d queries, all 10 rank-3 cases hit, %.1fs)"
            % (rank2.compared + rank3.compared, elapsed))


def test_criterion_02_recurrences_agree():
    # order indexes -1..m+1: a superset of the 629 pairs with 0 <= b <= m
    start = time.monotonic()
    result = _run("recurrence-pair", 629 + 2 * 69, max_rank=4, max_part=4)
    elapsed = time.monotonic() - start
    _report(2, elapsed < 10.0, "(%d pairs, %.1fs)" % (result.compared, elapsed))


def test_criterion_03_census_agreement():
    family = census_family(CENSUS_COST_CAP)
    scale = Scale.of(oracle_limit=DEFAULT_LIMIT)
    start = time.monotonic()
    # one comparison per order index of each member, against the recurrence
    # at p; the matrix census runs on every member, of every rank
    for name in ("census-closure", "census-star"):
        probe = REGISTRY[name].probe
        compared = [c for t, p in family for c in probe(scale, t, p)]
        bad = [c for c in compared if c.got != c.want]
        assert not bad, (name, bad[0])
        assert len(compared) == 1180, (name, len(compared))
    elapsed = time.monotonic() - start
    _report(3, elapsed < 60.0,
            "(cover and matrix census, %d types, %.1fs)" % (len(family), elapsed))


def test_star_work_bound_holds_on_criterion_3_family(monkeypatch):
    # count every search call through the module global the recursion uses
    calls = [0]
    fillings = oracle._fillings

    def counted(*args):
        calls[0] += 1
        return fillings(*args)

    monkeypatch.setattr(oracle, "_fillings", counted)
    members = census_family(CENSUS_COST_CAP)
    assert len(members) == 147 and max(t.rank for t, _ in members) == 7
    for t, p in members:
        calls[0] = 0
        oracle.star_matrix_census(t, p)
        assert calls[0] <= oracle.star_census_work(t, p) <= oracle.STAR_COST_LIMIT, (t, p)


def test_matrix_census_on_excluded_criterion_3_members():
    # the members the cover-cost cap leaves out of criterion 3, cut to those
    # whose matrix-census work bound is at most 250,000 search calls; nine
    # more fit STAR_COST_LIMIT, with bounds from 270,052 to 3,705,363, but
    # together take over 10 s on a 2-core VM, too long for tier-1
    excluded = set(census_family({2: float("inf"), 3: float("inf")})) - set(
        census_family(CENSUS_COST_CAP))
    members = sorted((t.parts, p) for t, p in excluded
                     if oracle.star_census_work(t, p) <= 250_000)
    assert len(members) == 23
    assert {len(t) for t, _ in members} == {4, 5, 6, 7}
    start = time.monotonic()
    for t, p in members:
        assert oracle.star_matrix_census(t, p).counts == tuple(
            count_hironaka(t, b).eval_at(p) for b in range(sum(t) + 1)), (t, p)
    assert time.monotonic() - start < 5.0


def test_criterion_04_symmetry():
    # ranks 1 to 3 with every b: a superset of ranks 2 and 3 with b <= m/2
    _run("symmetry", 20 + 455, max_rank=3, max_part=5)
    _report(4, True, "(ranks up to 3, parts <= 5)")


def test_criterion_05_elementary_abelian():
    _run("elementary-abelian", 28)
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
    # each chain compares its total, degree, leading coefficient and signs
    _run("chain-totals", 15 * 4, chain_max=3)
    _report(7, True, "(15 chains, leading terms included)")


def test_criterion_08_rank4_interval_formulas():
    result = _run("closed-rank4-intervals", 256, max_part=4)
    # the direct intervals cover 0 <= b <= min(a3, a1 + a2); the rest is mirrored
    queries = [c.query for c in result.records]
    reflected = sum(b > min(t[2], t[0] + t[1]) for t, b in queries)
    _report(8, reflected > 0, "(%d covered queries, %d via reflection)"
            % (result.compared, reflected))


def test_criterion_09_anyrank_product():
    # covered exactly on the criterion's b-ranges: b <= a1 and b >= m - a1
    result = _run("any-rank-product", 377, max_rank=6, max_part=3)
    types = [t for rank in range(2, 7)
             for t in itertools.combinations_with_replacement(range(1, 4), rank)]
    assert {c.query for c in result.records} == {
        (t, b) for t in types for b in range(sum(t) + 1)
        if b <= t[0] or b >= sum(t) - t[0]}
    _report(9, True, "(ranks 2..6, %d queries)" % result.compared)


def test_criterion_10_generating_functions():
    start = time.monotonic()
    full = verify_F2(bounds=SERIES_BOUNDS)
    assert full == [], full[:3]
    staircase = verify_g_product(bounds=SERIES_BOUNDS)
    assert staircase == [], staircase[:3]
    split = verify_sub_series(bounds=SERIES_BOUNDS)
    assert split == [], split[:3]
    elapsed = time.monotonic() - start
    _report(10, elapsed < 30.0, "(full series, staircase and both pieces, %.1fs)"
            % elapsed)


def test_criterion_11_boundary_agreement():
    # one comparison per extra case of each of the 107 overlapping queries
    result = _run("boundary-agreement", 134, max_part=5)
    overlaps = len({c.query for c in result.records})
    _report(11, overlaps == 107, "(%d overlapping queries)" % overlaps)


def test_criterion_12_negative_control(capsys):
    original = RANK3_TABLES[6]
    coeff, expo = original[0]
    RANK3_TABLES[6] = CaseTable(((LinForm(coeff.coeffs, coeff.const + 1), expo),) + original[1:])
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
