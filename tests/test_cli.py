"""Command-line front end: exact output, exit codes, determinism."""
import io
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from subcount import cli, closedforms, genfun, oracle, recurrence, verify
from subcount.cli import main
from subcount.groups import GroupType
from subcount.polyring import ONE, IntPoly
from subcount.recurrence import count_hironaka

SMALL_BATTERY = ("verify", "--max-rank", "3", "--max-part", "2",
                 "--primes", "2", "--oracle-limit", "64")

# every check's family text and comparison count at the smallest two-census scale
TINY_BATTERY = ("verify", "--max-rank", "2", "--max-part", "2",
                "--primes", "2", "--oracle-limit", "16")
TINY_FAMILIES = [
    ("any-rank-product", "ranks 2..4 with parts <= 2, covered order indexes", 52),
    ("boundary-agreement", "rank-3 types with parts <= 2, all overlapping cases", 15),
    ("case6-substitution", "case-6 table specialized to cases 1-5 and 7-10", 1),
    ("census-closure", "cover census on 5 (type, prime) pairs with order <= 16, "
     "cost <= 20000000", 17),
    ("census-star", "matrix census vs recurrence at p on 5 pairs with order <= 16, "
     "work <= 10000000", 17),
    ("chain-totals", "chains 1 <= w <= x <= y <= z <= 2", 20),
    ("closed-rank2", "rank-2 types with parts <= 2, every order index", 12),
    ("closed-rank3", "rank-3 types with parts <= 2, every order index", 22),
    ("closed-rank4-intervals", "rank-4 types with parts <= 2, covered order indexes", 26),
    ("elementary-abelian", "elementary abelian types up to rank 6", 28),
    ("equal-parts-rank3", "types (m, m, m) with m <= 2", 22),
    ("equal-parts-rank4", "types (m, m, m, m) with m <= 2, every order index", 14),
    ("equal-parts-rank4-total", "total counts of (m, m, m, m) with m <= 2", 8),
    ("nonnegative-coefficients", "ranks up to 2 with parts <= 2", 17),
    ("recurrence-pair", "ranks up to 2 with parts <= 2, order indexes -1..m+1", 27),
    ("series-full", "full rank-2 series at truncation (8, 8, 8)", 1),
    ("series-split", "sub-series pieces at truncation (8, 8, 8)", 1),
    ("series-staircase", "four-factor product series at truncation (8, 8, 8)", 1),
    ("symmetry", "ranks up to 2 with parts <= 2", 17),
]


class Admitted(Exception):
    """Raised in place of a census's enumeration, after its admission step."""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_closed_form_with_case(self, capsys):
        code, out, _ = run(capsys, "count", "--type", "1,2,3", "--b", "2")
        assert code == 0
        assert out == "p^3 + 2*p^2 + p + 1 (rank3 Case 2)\n"

    def test_evaluated_at_prime(self, capsys):
        code, out, _ = run(capsys, "count", "--type", "1,1", "--b", "1", "--prime", "2")
        assert code == 0
        assert out == "p + 1 = 3\n"

    def test_b_beyond_weight(self, capsys):
        code, out, _ = run(capsys, "count", "--type", "1,1", "--b", "5")
        assert code == 0
        assert out == "0\n"

    def test_recurrence_method_tagged(self, capsys):
        code, out, _ = run(capsys, "count", "--type", "1,1", "--b", "1",
                           "--method", "recurrence")
        assert code == 0
        assert out == "p + 1 (recurrence)\n"

    def test_closed_method_on_uncovered_query(self, capsys):
        code, out, err = run(capsys, "count", "--type", "1,1,4,4", "--b", "5",
                             "--method", "closed")
        assert code == 2
        assert out == ""
        assert "no closed form" in err

    def test_auto_falls_back_to_recurrence(self, capsys):
        code, out, _ = run(capsys, "count", "--type", "1,1,4,4", "--b", "5")
        assert code == 0
        assert out.endswith("(recurrence)\n")
        assert out.startswith(count_hironaka((1, 1, 4, 4), 5).text())

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "count", "--type", "1,1", "--b", "1",
                           "--method", "oracle", "--prime", "2")
        assert code == 0
        assert out == "3\n"

    def test_oracle_needs_prime(self, capsys):
        code, _, err = run(capsys, "count", "--type", "1,1", "--b", "1",
                           "--method", "oracle")
        assert code == 2
        assert "--prime" in err

    def test_oracle_size_limit(self, capsys):
        code, _, err = run(capsys, "count", "--type", "1,1,1,1", "--b", "1",
                           "--method", "oracle", "--prime", "2",
                           "--oracle-limit", "8")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("limit, extra", [
        ("-3", ()), ("0", ("--method", "oracle", "--prime", "2"))])
    def test_oracle_limit_must_be_positive(self, capsys, limit, extra):
        # a negative limit was ignored off the oracle path, and 0 failed as an
        # enumeration limit the group order exceeds
        code, out, err = run(capsys, "count", "--type", "1,2", "--b", "1",
                             "--oracle-limit", limit, *extra)
        assert code == 2
        assert out == ""
        assert err == "error: --oracle-limit must be at least 1, got %s\n" % limit

    @pytest.mark.parametrize("part, prime", [("1000000", "3"), ("2000", "2")])
    def test_oracle_order_limit_on_a_huge_group(self, capsys, part, prime):
        # the order p^m is named, not written out (past 4300 digits Python
        # refuses to format it)
        code, out, err = run(capsys, "count", "--type=" + part, "--b=1",
                             "--method=oracle", "--prime=" + prime)
        assert code == 2
        assert out == ""
        assert len(err) < 200
        assert ("group order %s^%s exceeds the enumeration limit 4096" % (prime, part)
                in err)

    def test_oracle_cost_limit(self, capsys):
        # order 4096 is inside the order limit; 4.9e11 subgroups are not
        start = time.monotonic()
        code, out, err = run(capsys, "count", "--type", ",".join(["1"] * 12),
                             "--b", "1", "--method", "oracle", "--prime", "2")
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert out == ""
        assert "over the limit" in err

    def test_oracle_falls_back_to_the_matrix_census(self, capsys, monkeypatch):
        answered = []
        exact = oracle.star_matrix_census

        def star(t, p, limit):
            answered.append((t, p, limit))
            return exact(t, p, limit=limit)

        monkeypatch.setattr(oracle, "star_matrix_census", star)
        # the cover census answers what it admits, and no matrix census runs
        code, out, _ = run(capsys, "count", "--type", "3,1,2", "--b", "3",
                           "--method", "oracle", "--prime", "2")
        assert (code, out, answered) == (0, "27\n", [])
        # (3, 3, 3, 3) at p=2 is inside the order limit, but over the cover
        # census's price: the matrix census answers
        with pytest.raises(oracle.CensusTooCostly):
            oracle.subgroup_census((3, 3, 3, 3), 2)
        code, out, _ = run(capsys, "count", "--type", "3,3,3,3", "--b", "6",
                           "--method", "oracle", "--prime", "2")
        assert (code, out) == (0, "14275\n")
        assert answered == [(GroupType((3, 3, 3, 3)), 2, oracle.DEFAULT_LIMIT)]
        # when the matrix census refuses too, the cover census's refusal is shown
        code, out, err = run(capsys, "count", "--type", ",".join(["1"] * 12),
                             "--b", "1", "--method", "oracle", "--prime", "2")
        assert (code, out) == (2, "")
        assert "(subgroups times order), over the limit" in err

    def test_bad_type_literal(self, capsys):
        code, _, err = run(capsys, "count", "--type", "1,x", "--b", "0")
        assert code == 2
        assert "error" in err

    def test_negative_part(self, capsys):
        code, _, err = run(capsys, "count", "--type=-1,2", "--b", "0")
        assert code == 2
        assert "error" in err

    def test_bad_prime(self, capsys):
        code, _, err = run(capsys, "count", "--type", "1,1", "--b", "1",
                           "--prime", "6")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("prime, code", [
        (2 ** 61 - 1, 0), ((2 ** 61 - 1) * (2 ** 31 - 1), 2)])
    def test_large_prime_decided_fast(self, capsys, prime, code):
        # the second is past the range where the primality test is exact
        start = time.monotonic()
        got, out, err = run(capsys, "count", "--type", "1", "--b", "1",
                            "--prime", str(prime))
        assert time.monotonic() - start < 1.0
        assert got == code
        assert out == ("1 = 1\n" if code == 0 else "")
        assert ("error" in err) == (code == 2)

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "count", "--type", "3,2,1", "--b", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "type": [1, 2, 3],
            "b": 2,
            "method": "closed",
            "case": "rank3 Case 2",
            "poly": [1, 1, 2, 1],
            "prime": None,
            "value": None,
        }

    def test_json_method_names_the_route_that_answered(self, capsys):
        # closed_form answers a b past the weight, unless the recurrence is asked
        for method, used in (("closed", "closed"), ("auto", "closed"),
                             ("recurrence", "recurrence")):
            code, out, _ = run(capsys, "count", "--type", "1,1", "--b", "5",
                               "--method", method, "--json")
            assert code == 0
            assert json.loads(out) == {"type": [1, 1], "b": 5, "method": used,
                                       "case": None, "poly": [], "prime": None,
                                       "value": None}

    def test_json_deterministic(self, capsys):
        _, first, _ = run(capsys, "count", "--type", "1,2,3", "--b", "2", "--json")
        _, second, _ = run(capsys, "count", "--type", "1,2,3", "--b", "2", "--json")
        assert first == second


class TestTable:
    def test_klein_four(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "1,1", "--prime", "2")
        assert code == 0
        assert out.splitlines() == [
            "b=0: 1 = 1",
            "b=1: p + 1 = 3",
            "b=2: 1 = 1",
            "total: p + 3 = 5",
        ]

    def test_cyclic_without_prime(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "2")
        assert code == 0
        assert out.splitlines() == ["b=0: 1", "b=1: 1", "b=2: 1", "total: 3"]

    def test_elementary_rank4_values(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "1,1,1,1", "--prime", "2")
        assert code == 0
        lines = out.splitlines()
        values = [int(line.rsplit("= ", 1)[1]) for line in lines]
        assert values == [1, 15, 35, 15, 1, 67]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "1,2", "--prime", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["type"] == [1, 2]
        assert data["prime"] == 3
        assert [r["value"] for r in data["rows"]] == [1, 4, 4, 1]
        assert data["total_value"] == 10


class TestVerify:
    def test_small_battery_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--max-rank", "3", "--max-part", "2",
                             "--primes", "2", "--oracle-limit", "64")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("all ") and lines[-1].endswith("checks passed")
        # timings are stderr only, so stdout stays reproducible
        assert "s" in err

    def test_report_order_is_sorted(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-rank", "2", "--max-part", "2",
                           "--primes", "2", "--oracle-limit", "16")
        assert code == 0
        names = [line.split()[1] for line in out.splitlines()[:-1]]
        assert names == sorted(names)

    def test_json_excludes_timings(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-rank", "2", "--max-part", "2",
                           "--primes", "2", "--oracle-limit", "16", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert all("seconds" not in c for c in data["checks"])

    def test_json_deterministic(self, capsys):
        args = ("verify", "--max-rank", "2", "--max-part", "2",
                "--primes", "2", "--oracle-limit", "16", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_bad_primes_list(self, capsys):
        code, _, err = run(capsys, "verify", "--primes", "2,x")
        assert code == 2
        assert "error" in err

    def test_every_check_compares(self, capsys):
        code, out, _ = run(capsys, *SMALL_BATTERY, "--json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == len(verify.REGISTRY)
        assert all(c["compared"] > 0 for c in checks), checks

    def test_empty_family_fails(self, capsys):
        # no (type, prime) pair has order <= 1, so the census checks compare nothing
        code, out, _ = run(capsys, "verify", "--max-rank", "1", "--max-part", "1",
                           "--primes", "2", "--oracle-limit", "1")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL census-closure: no comparison made: the family is empty" in lines
        assert "FAIL census-star: no comparison made: the family is empty" in lines

    def test_matrix_census_compares_the_cover_census_family(self):
        # the matrix census has no rank cap: at ranks up to 6 it runs on all
        # 32 pairs the cover census does, rank-5 and rank-6 types among them
        scale = verify.Scale.of(max_rank=6, max_part=2)
        closure = verify.run("census-closure", scale)
        star = verify.run("census-star", scale)
        assert closure.passed and star.passed, (closure.counterexample, star.counterexample)
        assert star.compared == closure.compared == 177
        assert len({c.query[:2] for c in star.records}) == 32
        assert {len(c.query[0]) for c in star.records} == set(range(1, 7))

    def test_series_texts_follow_bounds(self, monkeypatch):
        monkeypatch.setattr(verify, "SERIES_BOUNDS", (4, 4, 4))
        for name in ("series-full", "series-split", "series-staircase"):
            result = verify.run(name, verify.Scale.of())
            assert result.passed, result.counterexample
            assert result.family.endswith(" at truncation (4, 4, 4)"), result.family
        monkeypatch.setattr(genfun, "verify_F2", lambda bounds: [list(bounds)])
        result = verify.run("series-full", verify.Scale.of())
        assert result.counterexample.startswith(
            "verify_F2 mismatches at truncation (4, 4, 4): got [[4, 4, 4]]")

    def test_too_wide_a_reference_names_its_cell(self, monkeypatch):
        # a reference value past the series' 64-bit slots is a mismatch at
        # its cell, not an OverflowError with no cell
        exact = genfun.count_stehling
        monkeypatch.setattr(genfun, "count_stehling", lambda t, r: exact(t, r) + (
            1 << 70 if (tuple(t), r) == ((1, 2), 2) else 0))
        result = verify.run("series-full", verify.Scale.of())
        assert not result.passed
        assert result.counterexample.startswith(
            "verify_F2 mismatches at truncation (8, 8, 8): got [{'monomial': [2, 1, 2], ")

    def test_crash_keeps_family(self, capsys, monkeypatch):
        def broken(t, b):
            raise ZeroDivisionError("broken route")

        monkeypatch.setattr(closedforms, "rank2", broken)
        code, out, _ = run(capsys, *SMALL_BATTERY, "--json")
        assert code == 1
        record = {c["check"]: c for c in json.loads(out)["checks"]}["closed-rank2"]
        assert record["passed"] is False
        assert record["family"] == "rank-2 types with parts <= 2, every order index"
        assert record["counterexample"] == "ZeroDivisionError: broken route at type (1, 1) b=0"

    def test_counterexample_names_the_disagreeing_route(self, monkeypatch):
        general = closedforms.rank3

        def perturbed(t, b):
            res = general(t, b)
            if tuple(t) == (2, 2, 2) and b == 3:
                res = closedforms.FormulaResult(res.value + ONE, res.case, True)
            return res

        monkeypatch.setattr(closedforms, "rank3", perturbed)
        result = verify.run("equal-parts-rank3", verify.Scale.of(max_part=2))
        want = count_hironaka((2, 2, 2), 3)
        assert not result.passed
        # rank3_mmm agrees at this query, so the general route is the one named
        assert result.counterexample == "%s at type (2, 2, 2) b=3: got %s, want %s" % (
            general((2, 2, 2), 3).case, (want + ONE).text(), want.text())

    def test_counterexample_is_the_smallest(self, monkeypatch):
        # (1, 1) is lighter than (5), though the rank-1 types come first by rank
        stehling = verify.count_stehling

        def perturbed(t, b):
            got = stehling(t, b)
            return got + ONE if tuple(t) in ((5,), (1, 1)) and b == 1 else got

        monkeypatch.setattr(verify, "count_stehling", perturbed)
        result = verify.run("recurrence-pair", verify.Scale.of())
        assert not result.passed
        assert result.counterexample.startswith(
            "count_hironaka vs count_stehling at type (1, 1) b=1: ")

    def test_run_all_shape(self):
        results = verify.run_all(verify.Scale.of(max_rank=2, max_part=2, primes=(2,),
                                                 oracle_limit=16))
        assert all(r.passed for r in results)
        assert all(r.records is None for r in results)
        names = [r.check for r in results]
        assert names == sorted(names)
        assert len(names) >= 15

    def test_family_texts_and_counts(self, capsys):
        code, out, _ = run(capsys, *TINY_BATTERY, "--json")
        assert code == 0
        assert [(c["check"], c["family"], c["compared"])
                for c in json.loads(out)["checks"]] == TINY_FAMILIES

    def test_census_family_is_priced_once_a_run(self, monkeypatch):
        calls = {"census_cost": 0, "star_census_work": 0}

        def counted(name):
            priced = getattr(oracle, name)

            def wrapper(*args):
                calls[name] += 1
                return priced(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oracle, name, counted(name))
        scale = verify.Scale.of(oracle_limit=128)
        # one pricing builds the family, the census's own guard is the other,
        # and neither census is charged the other's price
        assert verify.run("census-closure", scale).passed
        assert calls == {"census_cost": 2 * 45, "star_census_work": 0}
        calls["census_cost"] = 0
        assert verify.run("census-star", scale).passed
        assert calls == {"census_cost": 0, "star_census_work": 2 * 45}

    def test_defaults_are_those_of_scale_of(self):
        args = cli.build_parser().parse_args(["verify"])
        cli._check_options(args)
        assert verify.Scale.of(args.max_rank, args.max_part, args.primes,
                               args.oracle_limit) == verify.Scale.of()

    def test_matrix_census_lists_pairs_the_cover_census_refuses(self):
        # (3, 3, 3, 3) at p=2 has order 4096: the cover census prices it at
        # 177,516,544, over its cap, the matrix census at 23,224 search calls
        scale = verify.Scale.of(oracle_limit=4096)
        pair = (GroupType((3, 3, 3, 3)), 2)
        assert pair in verify.REGISTRY["census-star"].queries(scale)
        assert pair not in verify.REGISTRY["census-closure"].queries(scale)

    @pytest.mark.parametrize("limit", (16, 128, 256, 4096))
    def test_census_families_are_what_each_census_admits(self, monkeypatch, limit):
        # each census stops at its enumeration, which it reaches only once it
        # has admitted the pair, so every pair is asked of the census itself
        def admitted(*args):
            raise Admitted

        monkeypatch.setattr(oracle, "_cover_census", admitted)
        monkeypatch.setattr(oracle, "_fillings", admitted)
        scale = verify.Scale.of(max_rank=4, max_part=5, primes=(2, 3), oracle_limit=limit)
        pairs = [(t, p) for p in (2, 3) for rank in range(1, 5)
                 for t in combinations_with_replacement(range(1, 6), rank)]
        for name, census in (("census-closure", oracle.subgroup_census),
                             ("census-star", oracle.star_matrix_census)):
            runs = []
            for t, p in pairs:
                try:
                    census(t, p, limit=limit)
                except oracle.GroupTooLarge:
                    continue
                except Admitted:
                    pass
                runs.append((t, p))
            assert runs, (name, limit)
            assert verify.REGISTRY[name].queries(scale) == runs, (name, limit)

    def test_census_is_looked_up_when_it_runs(self, monkeypatch):
        # a census replaced on oracle, as a tracer replaces it, is the one run
        exact = oracle.star_matrix_census

        def perturbed(t, p, limit):
            counts = list(exact(t, p, limit=limit).counts)
            if (t, p) == ((1, 1), 2):
                counts[1] += 1
            return SimpleNamespace(counts=counts)

        monkeypatch.setattr(oracle, "star_matrix_census", perturbed)
        result = verify.run("census-star", verify.Scale.of())
        assert result.counterexample == "matrix census at type (1, 1) p=2 b=1: got 4, want 3"


def _shifted(module, name, case=None):
    """A perturbation: every covered value module.name gives is one more, or
    only those of the named case."""
    def perturb(monkeypatch):
        exact = getattr(module, name)

        def perturbed(*args):
            value = exact(*args)
            if not isinstance(value, closedforms.FormulaResult):
                return value + ONE
            if value.covered and case in (None, str(value.case)):
                return value._replace(value=value.value + ONE)
            return value
        monkeypatch.setattr(module, name, perturbed)
    return perturb


def _case6_off_by_one(monkeypatch):
    # criterion 12's perturbation: rank-3 Case 6's first constant off by one.
    # Evaluated, the table no longer divides exactly, so the families that
    # evaluate it crash with a FormulaBug, not a mismatch; only the
    # substitution check compares the table itself.
    coeff, expo = closedforms.RANK3_TABLES[6][0]
    monkeypatch.setitem(closedforms.RANK3_TABLES, 6, closedforms.CaseTable((
        (closedforms.LinForm(coeff.coeffs, coeff.const + 1), expo),)
        + closedforms.RANK3_TABLES[6][1:]))


def _census_inner_counts_raised(census):
    """A perturbation: each count of the census but the first and last is one
    more, so the counts still read the same backwards."""
    def perturb(monkeypatch):
        exact = getattr(oracle, census)

        def perturbed(t, p, limit):
            counts = exact(t, p, limit=limit).counts
            return SimpleNamespace(
                counts=counts[:1] + tuple(c + 1 for c in counts[1:-1]) + counts[-1:])
        monkeypatch.setattr(oracle, census, perturbed)
    return perturb


def _rows_changed(change):
    """A perturbation: change(row) in place of every row _extend_row builds,
    on a fresh memo, so no row outlives the test."""
    def perturb(monkeypatch):
        extend = recurrence._extend_row
        monkeypatch.setattr(recurrence, "_extend_row",
                            lambda head_row, a: change(extend(head_row, a)))
        monkeypatch.setattr(recurrence, "_HIRONAKA_MEMO", recurrence.MemoTable())
    return perturb


def _mirror_broken(row):
    half = (len(row) - 1) // 2
    return row[:half + 1] + tuple(value + ONE for value in row[half + 1:])


def _computed_half_raised(row):
    # _extend_row computes b <= m // 2 and mirrors the rest; here the computed
    # half is one more before the same mirror
    m = len(row) - 1
    top = [value + ONE for value in row[:m // 2 + 1]]
    return tuple(top + top[:m - m // 2][::-1])


def _numerator_raised(side):
    """A perturbation: the series' numerator has one more in its constant."""
    def perturb(monkeypatch):
        numerator, factors = genfun._SERIES[side]
        monkeypatch.setitem(genfun._SERIES, side, (
            {**numerator, (0, 0, 0): numerator.get((0, 0, 0), 0) + 1}, factors))
    return perturb


# one perturbation of the route each verify family checks
PERTURBATIONS = {
    "any-rank-product": _shifted(closedforms, "anyrank_case1"),
    "boundary-agreement": _shifted(closedforms, "rank3_with_case", "rank3 Case 6"),
    "case6-substitution": _case6_off_by_one,
    "census-closure": _census_inner_counts_raised("subgroup_census"),
    "census-star": _census_inner_counts_raised("star_matrix_census"),
    "chain-totals": _shifted(closedforms, "rank4_total_ccl"),
    "closed-rank2": _shifted(closedforms, "rank2"),
    "closed-rank3": _shifted(closedforms, "rank3"),
    "closed-rank4-intervals": _shifted(closedforms, "rank4_partial"),
    "elementary-abelian": _shifted(closedforms, "gaussian_binomial"),
    "equal-parts-rank3": _shifted(closedforms, "rank3_mmm"),
    "equal-parts-rank4": _shifted(closedforms, "rank4_mmmm_b"),
    "equal-parts-rank4-total": _shifted(closedforms, "rank4_mmmm_total"),
    "nonnegative-coefficients": _rows_changed(
        lambda row: tuple(value - IntPoly((0, 1)) for value in row)),
    "recurrence-pair": _rows_changed(_mirror_broken),
    "series-full": _numerator_raised("full"),
    "series-split": _numerator_raised("strict_piece"),
    "series-staircase": _numerator_raised("staircase"),
    "symmetry": _rows_changed(_computed_half_raised),
}
PERTURBED_SCALE = verify.Scale.of(max_rank=3, max_part=3, primes=(2,), oracle_limit=64)
# the families a perturbation of their route cannot fail: symmetry compares
# each Hironaka row with its own mirror, so both sides read one stored row
PASSES_PERTURBED = {"symmetry"}


@pytest.mark.parametrize("name", sorted(verify.REGISTRY))
def test_every_family_fails_a_perturbation(monkeypatch, name):
    assert name in PERTURBATIONS, "no perturbation fails %s" % name
    PERTURBATIONS[name](monkeypatch)
    result = verify.run(name, PERTURBED_SCALE)
    if name in PASSES_PERTURBED:
        # the perturbation is live: Hironaka now disagrees with Stehling
        assert recurrence.count_hironaka((1, 1), 0) != recurrence.count_stehling((1, 1), 0)
        assert result.passed, result.counterexample
        return
    assert not result.passed
    # a mismatch on a query, not a crash or an empty family
    c = result.records[-1]
    assert result.counterexample == "%s at %s: got %s, want %s" % (
        c.route, verify.REGISTRY[name].where(*c.query), c.got, c.want)


@pytest.mark.parametrize("name", ["closed-rank3", "boundary-agreement", "equal-parts-rank3"])
def test_crash_names_the_probed_query(monkeypatch, name):
    # the first query Case 6 answers at this scale is (1, 1, 1) at b = 2
    _case6_off_by_one(monkeypatch)
    result = verify.run(name, PERTURBED_SCALE)
    assert result.counterexample == (
        "FormulaBug: closed form rank3 Case 6 did not divide exactly "
        "(remainder 2*p^2 + p - 2) at type (1, 1, 1) b=2")


@pytest.mark.parametrize("name, module, route, query", [
    ("census-closure", oracle, "subgroup_census", "type (1) p=2"),
    ("census-star", oracle, "star_matrix_census", "type (1) p=2"),
    ("chain-totals", closedforms, "rank4_total_ccl", "chain (1, 1, 1, 1)"),
    ("equal-parts-rank4-total", closedforms, "rank4_mmmm_total", "m=1"),
    ("case6-substitution", closedforms, "verify_case6_specializations",
     "cases 1-5 and 7-10"),
    ("series-full", genfun, "verify_F2", "truncation (8, 8, 8)"),
])
def test_crash_names_a_query_of_the_probed_shape(monkeypatch, name, module, route, query):
    # these entries probe a query of another shape than the one they compare:
    # a census (type, p) for each b, a total (key, parts) for its key alone
    def broken(*args, **kwargs):
        raise ZeroDivisionError("broken route")

    monkeypatch.setattr(module, route, broken)
    result = verify.run(name, PERTURBED_SCALE)
    assert result.counterexample == "ZeroDivisionError: broken route at " + query


# run_all's worker counts: none, one, two, and more than there are entries
WORKER_COUNTS = (0, 1, 2, len(verify.REGISTRY) + 2)
TINY_SCALE = verify.Scale.of(max_rank=2, max_part=2, primes=(2,), oracle_limit=16)
_TAKE = verify._take


def hold_parent(monkeypatch):
    """Keep the next run_all's own process off the queue until a worker has
    found it empty or every worker has exited, so the workers run every check
    they live to finish.  With no worker the process goes straight on."""
    parent = os.getpid()
    released, release = os.pipe()
    held = []

    def take(queue):
        if os.getpid() != parent:
            yield from _TAKE(queue)
            os.write(release, b"x")  # this worker found the queue empty
            return
        if not held:  # the first call comes after every fork
            held.append(True)
            os.close(release)
            assert readable_within(released), "no worker finished or exited in time"
            os.read(released, 1)
            os.close(released)
        yield from _TAKE(queue)

    monkeypatch.setattr(verify, "_take", take)


def readable_within(fd, seconds=60):
    """Whether fd can be read without blocking within the given time."""
    return bool(select.select([fd], [], [], seconds)[0])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    def test_same_report_at_every_worker_count(self, capsys, monkeypatch):
        # criterion 12's perturbation in the calling process, which the
        # workers inherit
        _case6_off_by_one(monkeypatch)
        scale = verify.Scale.of(max_rank=3, max_part=3, primes=(2,), oracle_limit=64)
        argv = ("verify", "--max-rank", "3", "--max-part", "3", "--primes", "2",
                "--oracle-limit", "64", "--json")
        results, outputs = [], []
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(verify, "worker_count", lambda n=workers: n)
            hold_parent(monkeypatch)
            results.append([r._replace(seconds=None) for r in verify.run_all(scale)])
            hold_parent(monkeypatch)
            outputs.append(run(capsys, *argv)[:2])
            assert_no_child_left()
        assert [r.check for r in results[0]] == sorted(verify.REGISTRY)
        assert all(r == results[0] for r in results[1:])
        assert all(o == outputs[0] for o in outputs[1:])
        assert outputs[0][0] == 1
        # with workers the calling process ran no check, so these names came
        # back on the workers' pipes
        failed = {r.check: r.counterexample for r in results[-1] if not r.passed}
        assert sorted(failed) == ["boundary-agreement", "case6-substitution",
                                  "closed-rank3", "equal-parts-rank3"], failed
        assert all("rank3 Case 6" in text for text in failed.values()), failed

    def test_dead_worker_fails_the_checks_it_took(self, capsys, monkeypatch):
        parent = os.getpid()
        check = verify.run

        def run_or_die(name, scale):
            if name == "case6-substitution" and os.getpid() != parent:
                os._exit(3)
            return check(name, scale)

        monkeypatch.setattr(verify, "run", run_or_die)
        monkeypatch.setattr(verify, "worker_count", lambda: 1)
        hold_parent(monkeypatch)
        results = verify.run_all(TINY_SCALE)
        assert_no_child_left()
        # the one worker took the first three checks and died on the third;
        # the calling process ran the rest once the worker was gone
        cause = "the worker that ran it died before reporting (exit status 3)"
        assert [(r.check, r.passed, r.counterexample) for r in results[:3]] == [
            (name, False, cause) for name in sorted(verify.REGISTRY)[:3]]
        assert all(r.passed for r in results[3:])
        assert [(r.check, r.family) for r in results] == [
            (name, family) for name, family, _ in TINY_FAMILIES]

        hold_parent(monkeypatch)
        code, out, _ = run(capsys, "verify")
        assert_no_child_left()
        assert code == 1
        assert "FAIL case6-substitution: %s" % cause in out.splitlines()

    def test_no_worker_outlives_a_raise(self, monkeypatch):
        parent = os.getpid()
        go, release = os.pipe()
        check = verify.run

        def raise_or_wait(name, scale):
            if os.getpid() == parent:
                # one release for every check a worker may still take
                os.write(release, b"x" * len(verify.REGISTRY))
                raise RuntimeError("raised in the calling process")
            if readable_within(go):  # a worker holds its check until the raise
                os.read(go, 1)
            return check(name, scale)

        monkeypatch.setattr(verify, "run", raise_or_wait)
        monkeypatch.setattr(verify, "worker_count", lambda: 2)
        try:
            with pytest.raises(RuntimeError, match="raised in the calling process"):
                verify.run_all(TINY_SCALE)
        finally:
            os.close(go)
            os.close(release)
        assert_no_child_left()

    def test_worker_count(self, monkeypatch):
        assert verify.worker_count() == len(os.sched_getaffinity(0)) - 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert verify.worker_count() == 0
        finally:
            stop.set()
            thread.join()
        monkeypatch.delattr(os, "fork")
        assert verify.worker_count() == 0


class TestToth:
    def test_default_scale_passes(self, capsys):
        code, out, _ = run(capsys, "toth", "--m-max", "2", "--chain-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "equal parts m=1: degree 4, leading 1, matches recurrence: yes"
        assert lines[1] == "equal parts m=2: degree 8, leading 1, matches recurrence: yes"
        assert lines[2] == "chains up to 2: 5 checked, all match"
        assert lines[3] == "m=1 total at p=2: 67"

    def test_mismatch_marks_entry(self, capsys, monkeypatch):
        closed = closedforms.rank4_mmmm_total
        monkeypatch.setattr(closedforms, "rank4_mmmm_total",
                            lambda m: closed(m) + ONE if m == 2 else closed(m))
        code, out, err = run(capsys, "toth", "--m-max", "2", "--chain-max", "1")
        assert code == 1
        assert out.splitlines()[:3] == [
            "equal parts m=1: degree 4, leading 1, matches recurrence: yes",
            "equal parts m=2: degree 8, leading 1, matches recurrence: NO",
            "chains up to 1: 1 checked, all match",
        ]
        assert "FAIL equal-parts-rank4-total: rank4_mmmm_total at m=2" in err

    def test_crash_before_first_comparison(self, capsys, monkeypatch):
        def broken(m):
            raise ZeroDivisionError("broken total")

        monkeypatch.setattr(closedforms, "rank4_mmmm_total", broken)
        code, out, err = run(capsys, "toth", "--m-max", "1", "--chain-max", "1")
        assert code == 1
        assert out.splitlines() == ["chains up to 1: 1 checked, all match"]
        assert "FAIL equal-parts-rank4-total: ZeroDivisionError: broken total" in err

    def test_crash_keeps_earlier_matches(self, capsys, monkeypatch):
        closed = closedforms.rank4_mmmm_total

        def broken(m):
            if m == 2:
                raise ZeroDivisionError("broken total")
            return closed(m)

        monkeypatch.setattr(closedforms, "rank4_mmmm_total", broken)
        code, out, err = run(capsys, "toth", "--m-max", "2", "--chain-max", "1")
        assert code == 1
        assert out.splitlines() == [
            "equal parts m=1: degree 4, leading 1, matches recurrence: yes",
            "chains up to 1: 1 checked, all match",
            "m=1 total at p=2: 67",
        ]
        assert "FAIL equal-parts-rank4-total: ZeroDivisionError: broken total" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "toth", "--m-max", "1", "--chain-max", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["equal_parts"][0]["total_at_2"] == 67
        assert data["chains"]["count"] == 1


BAD_INPUT = [
    ("verify", "--primes", "4"),
    ("verify", "--primes", "2,2"),
    ("verify", "--primes", ","),
    ("verify", "--max-rank", "0"),
    ("verify", "--max-part", "0"),
    ("verify", "--oracle-limit", "0"),
    ("toth", "--m-max", "0"),
    ("toth", "--chain-max", "0"),
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_before_any_check(capsys, monkeypatch, argv):
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "run", no_check)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("argv, module, name", [
    (("count", "--type", "1,2", "--b", "1", "--method", "recurrence"), cli, "count_hironaka"),
    (("count", "--type", "1,2", "--b", "1", "--method", "oracle", "--prime", "2"),
     oracle, "subgroup_census"),
    (("table", "--type", "1,2", "--prime", "3"), cli, "total_count"),
    (("verify",), verify, "run_all"),
    (("toth",), verify, "run"),
], ids=["count", "count-oracle", "table", "verify", "toth"])
def test_value_error_while_computing_is_not_a_usage_error(capsys, monkeypatch,
                                                          argv, module, name):
    # only a bad option or a query no route answers exits 2; a fault in the
    # counting code stays a traceback
    def broken(*args, **kwargs):
        raise ValueError("fault while computing")

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(ValueError, match="fault while computing"):
        main(list(argv))
    assert capsys.readouterr() == ("", "")


BAD_TOKENS = ("x", "", " ", "1.5", "2x", "-", "1e3")


@st.composite
def count_or_table_argv(draw):
    """argv of count or table with boundary types, order indexes and options."""
    command = draw(st.sampled_from(("count", "table")))
    if command == "count" and draw(st.integers(0, 7)) == 0:
        tokens = [str(draw(st.integers(1, 10 ** 6)))]
    else:
        tokens = draw(st.lists(st.integers(-2, 6).map(str), max_size=5))
        if draw(st.integers(0, 3)) == 0:
            tokens.insert(draw(st.integers(0, len(tokens))),
                          draw(st.sampled_from(BAD_TOKENS)))
    weight = sum(int(x) for x in tokens if x.isdigit())
    argv = [command, "--type=" + ",".join(tokens)]
    # half the draws take a prime, so that exit 0 with a value to check is common
    prime = draw(st.one_of(st.sampled_from(("2", "3")),
                           st.sampled_from((None, "-1", "0", "1", "4", "9", "true"))))
    if prime is not None:
        argv.append("--prime=" + prime)
    if command == "count":
        argv += ["--b=%d" % draw(st.integers(-3, weight + 3)),
                 "--method=" + draw(st.sampled_from(("auto", "recurrence", "closed",
                                                     "oracle"))),
                 "--oracle-limit=%d" % draw(st.sampled_from((0, 1, 64)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, deadline=None)
@given(count_or_table_argv())
def test_boundary_input_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse exits 2 on an option it cannot parse, such as --prime=true
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        return
    opts = dict(arg[2:].split("=", 1) for arg in argv[1:] if "=" in arg)
    if "prime" not in opts:
        return
    t = GroupType(int(x) for x in opts["type"].split(",") if x.strip())
    p = int(opts["prime"])
    assert p in (2, 3), argv
    if argv[0] == "count":
        got = (json.loads(out.getvalue())["value"] if "--json" in argv
               else int(out.getvalue().split()[-1]))
        assert got == count_hironaka(t, int(opts["b"])).eval_at(p), argv
        return
    if "--json" in argv:
        got = [row["value"] for row in json.loads(out.getvalue())["rows"]]
    else:
        got = [int(line.rsplit("= ", 1)[1]) for line in out.getvalue().splitlines()[:-1]]
    assert got == [count_hironaka(t, b).eval_at(p) for b in range(t.weight + 1)], argv


@pytest.mark.skipif(shutil.which("subcount") is None,
                    reason="console script not installed")
class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            ["subcount", "count", "--type", "1,2,3", "--b", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "p^3 + 2*p^2 + p + 1 (rank3 Case 2)\n"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "subcount.cli", "count",
         "--type", "1,1", "--b", "1", "--prime", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "p + 1 = 3\n"


def test_importing_the_cli_loads_no_process_pool():
    # run_all forks with os.fork alone; multiprocessing or concurrent.futures
    # would add about 2.5 MB to the resident set of every command
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, subcount.cli; print(sorted(set(sys.modules) & "
         "{'multiprocessing', 'concurrent.futures'}))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
