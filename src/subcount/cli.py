"""Command line interface: count, table, verify, toth.

Every command writes deterministic output: identical invocations produce
byte-identical stdout.  Timing information goes to stderr only.
"""

import argparse
import json
import sys
from itertools import groupby

from . import closedforms, oracle, verify
from .groups import GroupType
from .recurrence import count_hironaka, total_count


def _parse_type(text):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError("type must be a comma-separated list of ints, got %r" % text)
    return GroupType(parts)


def _parse_primes(text):
    try:
        primes = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError("--primes must be a comma-separated list of ints")
    if not primes:
        raise ValueError("--primes needs at least one prime")
    if len(set(primes)) < len(primes):
        raise ValueError("--primes repeats a prime: %s" % text)
    for p in primes:
        oracle._check_prime(p)
    return primes


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, JSON report, text lines) and prints
# nothing to stdout; main prints the report or the lines
# ---------------------------------------------------------------------------

class UsageError(Exception):
    """A request no command can answer as asked; unlike a ValueError, exits 2."""


def _poly_text(poly, prime):
    """poly as text, followed by its value at prime when one is given."""
    if prime is None:
        return poly.text()
    return "%s = %d" % (poly.text(), poly.eval_at(prime))


def cmd_count(args):
    t, b, prime = args.type, args.b, args.prime
    case = poly = None
    if args.method == "oracle":
        try:
            census = oracle.subgroup_census(t, prime, limit=args.oracle_limit)
        except oracle.CensusTooCostly as exc:
            # the matrix census has its own price; when it refuses too, the
            # cover census's refusal is the one reported
            try:
                census = oracle.star_matrix_census(t, prime, limit=args.oracle_limit)
            except oracle.GroupTooLarge:
                raise UsageError(exc) from None
        except oracle.GroupTooLarge as exc:
            raise UsageError(exc) from None
        value = census.counts[b] if 0 <= b <= t.weight else 0
        used, line = "oracle", str(value)
    else:
        result = closedforms.closed_form(t, b) if args.method != "recurrence" else None
        if result is not None and result.covered:
            poly, case, used = result.value, result.case, "closed"
        elif args.method == "closed":
            raise UsageError("no closed form covers type %s b=%d" % (t, b))
        else:
            poly, used = count_hironaka(t, b), "recurrence"
        value = poly.eval_at(prime) if prime is not None else None
        line = _poly_text(poly, prime)
        if prime is None and 0 <= b <= t.weight:
            # name the route that answered
            line += " (%s)" % (case if used == "closed" else used,)
    return 0, {
        "type": t.to_json(),
        "b": b,
        "method": used,
        "case": str(case) if case is not None else None,
        "poly": poly.to_json() if poly is not None else None,
        "prime": prime,
        "value": value,
    }, [line]


def cmd_table(args):
    t, prime = args.type, args.prime
    rows = [(b, count_hironaka(t, b)) for b in range(0, t.weight + 1)]
    total = total_count(t)
    lines = ["b=%d: %s" % (b, _poly_text(poly, prime)) for b, poly in rows]
    lines.append("total: " + _poly_text(total, prime))
    return 0, {
        "type": t.to_json(),
        "prime": prime,
        "rows": [{"b": b, "poly": poly.to_json(),
                  "value": poly.eval_at(prime) if prime is not None else None}
                 for b, poly in rows],
        "total_poly": total.to_json(),
        "total_value": total.eval_at(prime) if prime is not None else None,
    }, lines


def cmd_verify(args):
    results = verify.run_all(verify.Scale.of(args.max_rank, args.max_part, args.primes,
                                             args.oracle_limit))
    for r in results:
        print("  %-28s %6.2fs" % (r.check, r.seconds), file=sys.stderr)
    lines = ["PASS %s (%s)" % (r.check, r.family) if r.passed
             else "FAIL %s: %s" % (r.check, r.counterexample) for r in results]
    bad = sum(not r.passed for r in results)
    lines.append("%d of %d checks failed" % (bad, len(results)) if bad
                 else "all %d checks passed" % len(results))
    # timings are excluded so the JSON output is reproducible
    keys = ("check", "family", "passed", "counterexample", "compared")
    report = {"checks": [{k: getattr(r, k) for k in keys} for r in results],
              "passed": not bad}
    return 1 if bad else 0, report, lines


def _by_query(result):
    """Each query's comparisons of a registry run, with whether each one held."""
    for query, group in groupby(result.records, key=lambda c: c.query):
        group = list(group)
        yield query, group, [c.got == c.want for c in group]


def cmd_toth(args):
    scale = verify.Scale.of(m4_max=args.m_max, chain_max=args.chain_max)
    totals = verify.run("equal-parts-rank4-total", scale)
    chains = verify.run("chain-totals", scale)
    ok = totals.passed and chains.passed
    for r in (totals, chains):
        if not r.passed:
            print("FAIL %s: %s" % (r.check, r.counterexample), file=sys.stderr)
    equal_parts = []
    # each m compares its total, degree, leading coefficient and signs, in order
    for (m,), group, held in _by_query(totals):
        poly = group[0].got
        held += [False] * (4 - len(held))
        equal_parts.append({
            "m": m, "degree": poly.degree(), "leading": poly.leading_coeff(),
            "matches_recurrence": held[0], "degree_ok": held[1], "leading_ok": held[2],
            "total_at_2": poly.eval_at(2), "ok": all(held)})
    checked = len(list(_by_query(chains)))
    lines = ["equal parts m=%d: degree %d, leading %d, matches recurrence: %s"
             % (e["m"], e["degree"], e["leading"], "yes" if e["ok"] else "NO")
             for e in equal_parts]
    lines.append("chains up to %d: %d checked, %s" % (
        args.chain_max, checked, "all match" if chains.passed else "MISMATCH"))
    if equal_parts:
        lines.append("m=1 total at p=2: %d" % equal_parts[0]["total_at_2"])
    return 0 if ok else 1, {
        "equal_parts": equal_parts,
        "chains": {"max": args.chain_max, "count": checked, "all_ok": chains.passed},
        "passed": ok,
    }, lines


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
    c.set_defaults(fn=cmd_count, positive=("oracle_limit",))

    tbl = sub.add_parser("table", help="all counts for one type")
    tbl.add_argument("--type", required=True)
    tbl.add_argument("--prime", type=int, default=None)
    tbl.add_argument("--json", action="store_true")
    tbl.set_defaults(fn=cmd_table, positive=())

    scale = verify.Scale.of()
    v = sub.add_parser("verify", help="run the cross-check battery")
    v.add_argument("--max-rank", type=int, default=scale.max_rank)
    v.add_argument("--max-part", type=int, default=scale.max_part)
    v.add_argument("--primes", default=",".join(map(str, scale.primes)))
    v.add_argument("--oracle-limit", type=int, default=scale.oracle_limit)
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify, positive=("max_rank", "max_part", "oracle_limit"))

    tt = sub.add_parser("toth", help="degree and leading-coefficient checks")
    tt.add_argument("--m-max", type=int, default=4)
    tt.add_argument("--chain-max", type=int, default=3)
    tt.add_argument("--json", action="store_true")
    tt.set_defaults(fn=cmd_toth, positive=("m_max", "chain_max"))

    return parser


def _check_options(args):
    """Parse and check every option before any command starts its work."""
    try:
        if getattr(args, "type", None) is not None:
            args.type = _parse_type(args.type)
        if getattr(args, "prime", None) is not None:
            oracle._check_prime(args.prime)
        if args.command == "verify":
            args.primes = _parse_primes(args.primes)
        if getattr(args, "method", None) == "oracle" and args.prime is None:
            raise ValueError("--method oracle needs --prime")
        for name in args.positive:
            if getattr(args, name) < 1:
                raise ValueError("--%s must be at least 1, got %d" % (
                    name.replace("_", "-"), getattr(args, name)))
    except ValueError as exc:
        raise UsageError(exc) from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        code, report, lines = args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2) if args.json else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
