"""Command line interface: count, table, verify, toth.

Every command writes deterministic output: identical invocations produce
byte-identical stdout.  Timing information goes to stderr only.
"""

import argparse
import json
import sys
import time
from itertools import combinations_with_replacement

from . import closedforms, genfun, oracle
from .groups import GroupType, NegativePart, rank3_applicable_cases
from .polyring import IntPoly
from .recurrence import count_hironaka, count_stehling, total_count


def _parse_type(text):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError("type must be a comma-separated list of ints, got %r" % text)
    return GroupType(parts)


# ---------------------------------------------------------------------------
# closed-form resolution shared by count and table
# ---------------------------------------------------------------------------

def resolve_closed(t, b):
    """Best covering closed form for (t, b), or a miss."""
    t = GroupType(t)
    m = t.weight
    if not 0 <= b <= m:
        return closedforms.FormulaResult(IntPoly.zero(), None, True)
    rank = t.rank
    if rank == 2:
        return closedforms.rank2(t, b)
    if rank == 3:
        return closedforms.rank3(t, b)
    if rank == 4:
        parts = t.parts
        if parts[0] == parts[3]:
            return closedforms.rank4_mmmm_b(parts[0], b)
        result = closedforms.rank4_partial(t, b)
        if result.covered:
            return result
        return closedforms.anyrank_case1(t, b)
    return closedforms.anyrank_case1(t, b)


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

class VerifyReport:
    """Outcome of the verification battery, one record per check."""

    def __init__(self):
        self.records = []

    def add(self, check, family, passed, counterexample, seconds):
        self.records.append({
            "check": check,
            "family": family,
            "passed": passed,
            "counterexample": counterexample,
            "seconds": seconds,
        })

    @property
    def passed(self):
        return all(r["passed"] for r in self.records)

    def failures(self):
        return [r for r in self.records if not r["passed"]]

    def to_json(self):
        # timings are excluded so the JSON output is reproducible
        return {
            "checks": [
                {
                    "check": r["check"],
                    "family": r["family"],
                    "passed": r["passed"],
                    "counterexample": r["counterexample"],
                }
                for r in self.records
            ],
            "passed": self.passed,
        }

    def lines(self):
        out = []
        for r in self.records:
            if r["passed"]:
                out.append("PASS %s (%s)" % (r["check"], r["family"]))
            else:
                out.append("FAIL %s: %s" % (r["check"], r["counterexample"]))
        n = len(self.records)
        bad = len(self.failures())
        if bad:
            out.append("%d of %d checks failed" % (bad, n))
        else:
            out.append("all %d checks passed" % n)
        return out


def _types(max_rank, max_part, min_rank=1):
    out = []
    for rank in range(min_rank, max_rank + 1):
        out.extend(combinations_with_replacement(range(1, max_part + 1), rank))
    return out


def _census_family(cfg):
    fam = []
    for p in cfg.primes:
        for t in _types(cfg.max_rank, cfg.max_part):
            if (p ** sum(t) <= cfg.oracle_limit
                    and oracle.census_cost(t, p) <= oracle.CENSUS_COST_LIMIT):
                fam.append((t, p))
    return fam


def _check_any_rank_product(cfg):
    hi = max(4, cfg.max_rank)
    family = "ranks 2..%d with parts <= %d, covered order indexes" % (
        hi, min(3, cfg.max_part))
    for t in _types(hi, min(3, cfg.max_part), min_rank=2):
        m = sum(t)
        for b in range(0, m + 1):
            res = closedforms.anyrank_case1(t, b)
            if not res.covered:
                continue
            want = count_hironaka(t, b)
            if res.value != want:
                return family, "%s at type %s b=%d: got %s, want %s" % (
                    res.case, GroupType(t), b, res.value.text(), want.text())
    return family, None


def _check_boundary_agreement(cfg):
    family = "rank-3 types with parts <= %d, all overlapping cases" % cfg.max_part
    for t in _types(3, cfg.max_part, min_rank=3):
        m = sum(t)
        for b in range(0, m + 1):
            values = {}
            for case_no in rank3_applicable_cases(t, b):
                values[case_no] = closedforms.rank3_with_case(t, b, case_no).value
            if len(set(values.values())) > 1:
                detail = "; ".join(
                    "case %d -> %s" % (k, v.text()) for k, v in sorted(values.items()))
                return family, "type %s b=%d disagrees: %s" % (GroupType(t), b, detail)
    return family, None


def _check_case6_substitution(cfg):
    family = "case-6 table specialized to cases 1-5 and 7-10"
    bad = closedforms.verify_case6_specializations()
    if bad:
        return family, "rank3 Case %s: substitution does not reproduce the table" % (
            ", ".join(str(k) for k in bad))
    return family, None


def _check_census_closure(cfg):
    fam = _census_family(cfg)
    family = "cover census on %d (type, prime) pairs with order <= %d, cost <= %d" % (
        len(fam), cfg.oracle_limit, oracle.CENSUS_COST_LIMIT)
    for t, p in fam:
        result = oracle.subgroup_census(t, p, limit=cfg.oracle_limit)
        m = sum(t)
        for b in range(0, m + 1):
            want = count_hironaka(t, b).eval_at(p)
            if result.counts[b] != want:
                return family, "type %s p=%d b=%d: census %d, polynomial %d" % (
                    GroupType(t), p, b, result.counts[b], want)
    return family, None


def _check_census_star(cfg):
    limit = min(cfg.oracle_limit, 512)
    fam = [(t, p) for t, p in _census_family(cfg)
           if len(t) <= 4 and p ** sum(t) <= limit
           and oracle.star_census_cost(t, p) <= 200000]
    family = "matrix census vs cover census on %d pairs with order <= %d" % (
        len(fam), limit)
    for t, p in fam:
        star = oracle.star_matrix_census(t, p, limit=limit)
        closure = oracle.subgroup_census(t, p, limit=limit)
        if star.counts != closure.counts:
            return family, "type %s p=%d: matrix %s, closure %s" % (
                GroupType(t), p, list(star.counts), list(closure.counts))
    return family, None


def _check_chain_totals(cfg):
    hi = min(3, cfg.max_part)
    family = "chains 1 <= w <= x <= y <= z <= %d" % hi
    for chain in combinations_with_replacement(range(1, hi + 1), 4):
        w, x, y, z = chain
        got = closedforms.rank4_total_ccl(w, x, y, z)
        want = total_count(chain)
        if got != want:
            return family, "chain %s: sum %s, recurrence %s" % (
                chain, got.text(), want.text())
        lead, degree = closedforms.leading_term_ccl(w, x, y, z)
        if got.degree() != degree or got.leading_coeff() != lead:
            return family, "chain %s: leading term (%d, %d) vs closed (%d, %d)" % (
                chain, got.leading_coeff(), got.degree(), lead, degree)
        if any(c < 0 for c in got.coeffs):
            return family, "chain %s: negative coefficient in %s" % (chain, got.text())
    return family, None


def _check_closed_rank2(cfg):
    family = "rank-2 types with parts <= %d, every order index" % cfg.max_part
    for t in _types(2, cfg.max_part, min_rank=2):
        m = sum(t)
        for b in range(0, m + 1):
            res = closedforms.rank2(t, b)
            want = count_hironaka(t, b)
            if res.value != want:
                return family, "%s at type %s b=%d: got %s, want %s" % (
                    res.case, GroupType(t), b, res.value.text(), want.text())
    return family, None


def _check_closed_rank3(cfg):
    family = "rank-3 types with parts <= %d, every order index" % cfg.max_part
    for t in _types(3, cfg.max_part, min_rank=3):
        m = sum(t)
        for b in range(0, m + 1):
            res = closedforms.rank3(t, b)
            want = count_hironaka(t, b)
            if res.value != want:
                return family, "%s at type %s b=%d: got %s, want %s" % (
                    res.case, GroupType(t), b, res.value.text(), want.text())
    return family, None


def _check_closed_rank4_intervals(cfg):
    part = min(4, cfg.max_part)
    family = "rank-4 types with parts <= %d, covered order indexes" % part
    for t in _types(4, part, min_rank=4):
        m = sum(t)
        for b in range(0, m + 1):
            res = closedforms.rank4_partial(t, b)
            if not res.covered:
                continue
            want = count_hironaka(t, b)
            if res.value != want:
                return family, "%s at type %s b=%d: got %s, want %s" % (
                    res.case, GroupType(t), b, res.value.text(), want.text())
    return family, None


def _check_elementary_abelian(cfg):
    hi = max(6, cfg.max_rank)
    family = "elementary abelian types up to rank %d" % hi
    for d in range(0, hi + 1):
        t = (1,) * d
        for b in range(0, d + 1):
            got = oracle.gaussian_binomial(d, b)
            want = count_hironaka(t, b)
            if got != want:
                return family, "rank %d b=%d: binomial %s, recurrence %s" % (
                    d, b, got.text(), want.text())
    return family, None


def _check_equal_parts_rank3(cfg):
    hi = cfg.max_part
    family = "types (m, m, m) with m <= %d" % hi
    for m in range(1, hi + 1):
        for b in range(0, 3 * m + 1):
            res = closedforms.rank3_mmm(m, b)
            general = closedforms.rank3((m, m, m), b)
            want = count_hironaka((m, m, m), b)
            if res.value != want or general.value != want:
                return family, "%s at m=%d b=%d: got %s, want %s" % (
                    res.case, m, b, res.value.text(), want.text())
    return family, None


def _check_equal_parts_rank4(cfg):
    hi = min(3, cfg.max_part)
    family = "types (m, m, m, m) with m <= %d, every order index" % hi
    for m in range(1, hi + 1):
        for b in range(0, 4 * m + 1):
            res = closedforms.rank4_mmmm_b(m, b)
            want = count_hironaka((m,) * 4, b)
            if res.value != want:
                return family, "%s at m=%d b=%d: got %s, want %s" % (
                    res.case, m, b, res.value.text(), want.text())
    return family, None


def _check_equal_parts_rank4_total(cfg):
    hi = min(3, cfg.max_part)
    family = "total counts of (m, m, m, m) with m <= %d" % hi
    for m in range(1, hi + 1):
        got = closedforms.rank4_mmmm_total(m)
        want = total_count((m,) * 4)
        if got != want:
            return family, "m=%d: closed %s, recurrence %s" % (m, got.text(), want.text())
        if got.degree() != 4 * m or got.leading_coeff() != 1:
            return family, "m=%d: degree %d leading %d, expected degree %d leading 1" % (
                m, got.degree(), got.leading_coeff(), 4 * m)
    return family, None


def _check_recurrence_pair(cfg):
    family = "ranks up to %d with parts <= %d, order indexes -1..m+1" % (
        cfg.max_rank, cfg.max_part)
    for t in _types(cfg.max_rank, cfg.max_part):
        m = sum(t)
        for b in range(-1, m + 2):
            a = count_hironaka(t, b)
            s = count_stehling(t, b)
            if a != s:
                return family, "type %s b=%d: %s vs %s" % (
                    GroupType(t), b, a.text(), s.text())
    return family, None


def _check_nonnegative(cfg):
    family = "ranks up to %d with parts <= %d" % (cfg.max_rank, cfg.max_part)
    for t in _types(cfg.max_rank, cfg.max_part):
        m = sum(t)
        for b in range(0, m + 1):
            poly = count_hironaka(t, b)
            if any(c < 0 for c in poly.coeffs):
                return family, "type %s b=%d: negative coefficient in %s" % (
                    GroupType(t), b, poly.text())
    return family, None


def _check_symmetry(cfg):
    family = "ranks up to %d with parts <= %d" % (cfg.max_rank, cfg.max_part)
    for t in _types(cfg.max_rank, cfg.max_part):
        m = sum(t)
        for b in range(0, m + 1):
            if count_hironaka(t, b) != count_hironaka(t, m - b):
                return family, "type %s: order indexes %d and %d differ" % (
                    GroupType(t), b, m - b)
    return family, None


def _check_series_full(cfg):
    family = "full rank-2 series at truncation (6, 6, 6)"
    mism = genfun.verify_F2((6, 6, 6))
    if mism:
        first = mism[0]
        return family, "coefficient at %s: expected %s, got %s" % (
            first["monomial"], first["expected"], first["got"])
    return family, None


def _check_series_staircase(cfg):
    family = "four-factor product series at truncation (6, 6, 6)"
    mism = genfun.verify_g_product((6, 6, 6))
    if mism:
        first = mism[0]
        return family, "coefficient at %s: expected %s, got %s" % (
            first["monomial"], first["expected"], first["got"])
    return family, None


def _check_series_split(cfg):
    family = "sub-series readings at truncation (6, 6, 6)"
    report = genfun.verify_sub_series((6, 6, 6))
    if not report["ok"]:
        return family, "validated readings: %s; sum matches full: %s" % (
            report["validated"], report["sum_matches_full"])
    return family, None


CHECKS = [
    ("any-rank-product", _check_any_rank_product),
    ("boundary-agreement", _check_boundary_agreement),
    ("case6-substitution", _check_case6_substitution),
    ("census-closure", _check_census_closure),
    ("census-star", _check_census_star),
    ("chain-totals", _check_chain_totals),
    ("closed-rank2", _check_closed_rank2),
    ("closed-rank3", _check_closed_rank3),
    ("closed-rank4-intervals", _check_closed_rank4_intervals),
    ("elementary-abelian", _check_elementary_abelian),
    ("equal-parts-rank3", _check_equal_parts_rank3),
    ("equal-parts-rank4", _check_equal_parts_rank4),
    ("equal-parts-rank4-total", _check_equal_parts_rank4_total),
    ("nonnegative-coefficients", _check_nonnegative),
    ("recurrence-pair", _check_recurrence_pair),
    ("series-full", _check_series_full),
    ("series-split", _check_series_split),
    ("series-staircase", _check_series_staircase),
    ("symmetry", _check_symmetry),
]


class _VerifyConfig:
    def __init__(self, max_rank, max_part, primes, oracle_limit):
        self.max_rank = max_rank
        self.max_part = max_part
        self.primes = tuple(primes)
        self.oracle_limit = oracle_limit


def run_verify(max_rank=4, max_part=5, primes=(2, 3), oracle_limit=256):
    """Run every cross-check on families bounded by the arguments."""
    cfg = _VerifyConfig(max_rank, max_part, primes, oracle_limit)
    report = VerifyReport()
    for name, fn in sorted(CHECKS):
        start = time.monotonic()
        try:
            family, counterexample = fn(cfg)
        except Exception as exc:  # a check crashing is a failure, not an abort
            family, counterexample = "", "%s: %s" % (type(exc).__name__, exc)
        report.add(name, family, counterexample is None, counterexample,
                   time.monotonic() - start)
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _json_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=False)


def cmd_count(args):
    try:
        t = _parse_type(args.type)
    except (ValueError, NegativePart) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    b = args.b
    m = t.weight
    method = args.method
    case = None
    poly = None
    value = None
    if method == "oracle":
        if args.prime is None:
            print("error: --method oracle needs --prime", file=sys.stderr)
            return 2
        try:
            census = oracle.subgroup_census(t, args.prime, limit=args.oracle_limit)
        except (oracle.GroupTooLarge, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        value = census.counts[b] if 0 <= b <= m else 0
        used = "oracle"
    else:
        if method in ("auto", "closed"):
            result = resolve_closed(t, b)
            if result.covered:
                poly = result.value
                case = result.case
                used = "closed" if case is not None else "recurrence"
            elif method == "closed":
                print("error: no closed form covers type %s b=%d" % (t, b),
                      file=sys.stderr)
                return 2
            else:
                poly = count_hironaka(t, b)
                used = "recurrence"
        else:
            poly = count_hironaka(t, b)
            used = "recurrence"
        if args.prime is not None:
            try:
                oracle._check_prime(args.prime)
            except ValueError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 2
            value = poly.eval_at(args.prime)
    if args.json:
        print(_json_dump({
            "type": t.to_json(),
            "b": b,
            "method": used,
            "case": str(case) if case is not None else None,
            "poly": poly.to_json() if poly is not None else None,
            "prime": args.prime,
            "value": value,
        }))
        return 0
    if used == "oracle":
        print(value)
    elif args.prime is not None:
        print("%s = %d" % (poly.text(), value))
    elif case is not None:
        print("%s (%s)" % (poly.text(), case))
    elif used == "recurrence" and 0 <= b <= m:
        print("%s (recurrence)" % poly.text())
    else:
        print(poly.text())
    return 0


def cmd_table(args):
    try:
        t = _parse_type(args.type)
    except (ValueError, NegativePart) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.prime is not None:
        try:
            oracle._check_prime(args.prime)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    m = t.weight
    rows = []
    for b in range(0, m + 1):
        poly = count_hironaka(t, b)
        rows.append((b, poly))
    total = total_count(t)
    if args.json:
        print(_json_dump({
            "type": t.to_json(),
            "prime": args.prime,
            "rows": [
                {
                    "b": b,
                    "poly": poly.to_json(),
                    "value": poly.eval_at(args.prime) if args.prime else None,
                }
                for b, poly in rows
            ],
            "total_poly": total.to_json(),
            "total_value": total.eval_at(args.prime) if args.prime else None,
        }))
        return 0
    for b, poly in rows:
        if args.prime is not None:
            print("b=%d: %s = %d" % (b, poly.text(), poly.eval_at(args.prime)))
        else:
            print("b=%d: %s" % (b, poly.text()))
    if args.prime is not None:
        print("total: %s = %d" % (total.text(), total.eval_at(args.prime)))
    else:
        print("total: %s" % total.text())
    return 0


def cmd_verify(args):
    try:
        primes = tuple(int(x) for x in args.primes.split(",") if x.strip())
    except ValueError:
        print("error: --primes must be a comma-separated list of ints",
              file=sys.stderr)
        return 2
    report = run_verify(
        max_rank=args.max_rank,
        max_part=args.max_part,
        primes=primes,
        oracle_limit=args.oracle_limit,
    )
    if args.json:
        print(_json_dump(report.to_json()))
    else:
        for line in report.lines():
            print(line)
    for r in report.records:
        print("  %-28s %6.2fs" % (r["check"], r["seconds"]), file=sys.stderr)
    return 0 if report.passed else 1


def cmd_toth(args):
    ok = True
    equal_parts = []
    for m in range(1, args.m_max + 1):
        poly = closedforms.rank4_mmmm_total(m)
        rec = total_count((m,) * 4)
        entry = {
            "m": m,
            "degree": poly.degree(),
            "leading": poly.leading_coeff(),
            "matches_recurrence": poly == rec,
            "degree_ok": poly.degree() == 4 * m,
            "leading_ok": poly.leading_coeff() == 1,
            "total_at_2": poly.eval_at(2),
        }
        entry["ok"] = (entry["matches_recurrence"] and entry["degree_ok"]
                       and entry["leading_ok"])
        ok = ok and entry["ok"]
        equal_parts.append(entry)
    chains = []
    for chain in combinations_with_replacement(range(1, args.chain_max + 1), 4):
        w, x, y, z = chain
        poly = closedforms.rank4_total_ccl(w, x, y, z)
        rec = total_count(chain)
        lead, degree = closedforms.leading_term_ccl(w, x, y, z)
        entry_ok = (poly == rec and poly.degree() == degree
                    and poly.leading_coeff() == lead
                    and all(c >= 0 for c in poly.coeffs))
        ok = ok and entry_ok
        chains.append({"chain": list(chain), "ok": entry_ok})
    if args.json:
        print(_json_dump({
            "equal_parts": equal_parts,
            "chains": {
                "max": args.chain_max,
                "count": len(chains),
                "all_ok": all(c["ok"] for c in chains),
            },
            "passed": ok,
        }))
        return 0 if ok else 1
    for entry in equal_parts:
        print("equal parts m=%d: degree %d, leading %d, matches recurrence: %s"
              % (entry["m"], entry["degree"], entry["leading"],
                 "yes" if entry["ok"] else "NO"))
    print("chains up to %d: %d checked, %s" % (
        args.chain_max, len(chains),
        "all match" if all(c["ok"] for c in chains) else "MISMATCH"))
    if equal_parts:
        print("m=1 total at p=2: %d" % equal_parts[0]["total_at_2"])
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subcount",
        description="Exact subgroup counts of finite abelian p-groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count subgroups of one order")
    c.add_argument("--type", required=True, help="comma-separated parts, any order")
    c.add_argument("--b", required=True, type=int, help="order index")
    c.add_argument("--prime", type=int, default=None)
    c.add_argument("--method", choices=("auto", "recurrence", "closed", "oracle"),
                   default="auto")
    c.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_LIMIT)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_count)

    tbl = sub.add_parser("table", help="all counts for one type")
    tbl.add_argument("--type", required=True)
    tbl.add_argument("--prime", type=int, default=None)
    tbl.add_argument("--json", action="store_true")
    tbl.set_defaults(fn=cmd_table)

    v = sub.add_parser("verify", help="run the cross-check battery")
    v.add_argument("--max-rank", type=int, default=4)
    v.add_argument("--max-part", type=int, default=5)
    v.add_argument("--primes", default="2,3")
    v.add_argument("--oracle-limit", type=int, default=256)
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify)

    tt = sub.add_parser("toth", help="degree and leading-coefficient checks")
    tt.add_argument("--m-max", type=int, default=4)
    tt.add_argument("--chain-max", type=int, default=3)
    tt.add_argument("--json", action="store_true")
    tt.set_defaults(fn=cmd_toth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
