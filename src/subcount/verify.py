"""Verification registry: every cross-check as one entry, run by one runner.

An entry declares its family text, its queries at a ``Scale``, a probe that
compares a candidate route against a reference route on one query, and the
text of a comparison's query (and of a probed query, where the two differ).
``subcount verify``, ``subcount toth`` and the acceptance battery all run
these entries, each at its own scale.
``run_all`` runs the entries side by side in forked workers, one per usable
CPU beyond the calling process.
"""

import json
import os
import sys
import threading
import time
from collections import namedtuple
from itertools import combinations_with_replacement, groupby

from . import closedforms, genfun, oracle
from .closedforms import CaseId, rank3_applicable_cases
from .groups import GroupType
from .recurrence import count_hironaka, count_stehling, total_count

SERIES_BOUNDS = (8, 8, 8)

# route: the candidate's case or name; query: the arguments of the entry's where
Comparison = namedtuple("Comparison", "route query got want")
# family: a format string over the Scale s, the query count n, the series bounds
# and the oracle module; queries(s): a list; probe(s, *query): its comparisons;
# where(*comparison.query) and probed(*query): their texts, probed None where a
# probed query has a comparison's shape
Entry = namedtuple("Entry", "family queries probe where probed", defaults=(None,))
Result = namedtuple("Result", "check family passed counterexample compared seconds "
                               "records")


class Scale(namedtuple("Scale", "max_rank max_part primes oracle_limit m4_max chain_max")):
    """Family bounds of one run."""

    @classmethod
    def of(cls, max_rank=4, max_part=5, primes=(2, 3), oracle_limit=256, **bounds):
        """The bounds of ``subcount verify``; any of the other fields may be given."""
        derived = dict(m4_max=min(3, max_part), chain_max=min(3, max_part))
        derived.update(bounds)
        return cls(max_rank, max_part, tuple(primes), oracle_limit, **derived)

    # the bounds of single checks follow from the fields
    any_rank = property(lambda s: max(4, s.max_rank))
    any_part = property(lambda s: min(3, s.max_part))
    rank4_part = property(lambda s: min(4, s.max_part))
    elementary_rank = property(lambda s: max(6, s.max_rank))


def _types(max_rank, max_part, min_rank=1):
    # built once as GroupType, so no probe of the family re-checks the parts
    return [GroupType(t) for rank in range(min_rank, max_rank + 1)
            for t in combinations_with_replacement(range(1, max_part + 1), rank)]


def _queries(types, lo=0, hi=0):
    """Every (t, b) with b from lo to the weight of t plus hi, smallest first.

    Queries run by weight, then rank, then b, ties broken by parts, so the
    first mismatch the runner stops at is the smallest counterexample.
    """
    queries = []
    types = sorted(types, key=lambda t: (sum(t), len(t), t))
    for (weight, _), group in groupby(types, key=lambda t: (sum(t), len(t))):
        group = list(group)
        queries += [(t, b) for b in range(lo, weight + 1 + hi) for t in group]
    return queries


def _at_type(t, b):
    return "type %s b=%d" % (GroupType(t), b)


def _closed(family, queries, *routes, partial=False):
    """Closed forms vs count_hironaka; a partial catalog skips uncovered queries."""
    def probe(s, t, b):
        for route in routes:
            res = route(t, b)
            if res.covered or not partial:
                yield Comparison(res.case, (t, b), res.value, count_hironaka(t, b))
    return Entry(family, queries, probe, _at_type)


def _census(family, route, census):
    """The census of that name on oracle, at p, vs the recurrence polynomial at p."""
    def queries(s):
        return [(t, p) for p in s.primes for t in _types(s.max_rank, s.max_part)
                if oracle.admits(census, t, p, s.oracle_limit)]

    def probe(s, t, p):
        for b, got in enumerate(getattr(oracle, census)(t, p, limit=s.oracle_limit).counts):
            yield Comparison(route, (t, p, b), got, count_hironaka(t, b).eval_at(p))
    return Entry(family, queries, probe, lambda t, p, b: "type %s p=%d b=%d" % (
        GroupType(t), p, b), lambda t, p: "type %s p=%d" % (GroupType(t), p))


def _totals(family, route, queries, closed, leading, label):
    """A closed total vs total_count, then its degree, leading coefficient and signs."""
    def probe(s, key, parts):
        got = closed(key)
        coeff, degree = leading(key)
        yield Comparison(route, (key,), got, total_count(parts))
        yield Comparison("degree of " + route, (key,), got.degree(), degree)
        yield Comparison("leading coefficient of " + route, (key,),
                         got.leading_coeff(), coeff)
        yield Comparison("negative coefficients of " + route, (key,),
                         [c for c in got.coeffs if c < 0], [])
    return Entry(family, queries, probe, lambda key: label % (key,),
                 lambda key, parts: label % (key,))


def _library(family, route, where, verifier):
    """A library verifier, which returns what it found wrong; where() names its query."""
    return Entry(family, lambda s: [()],
                 lambda s: [Comparison(route, (), verifier(), [])], where)


def _truncation():
    # read when a check runs, so the texts follow a patched SERIES_BOUNDS
    return "truncation %s" % (SERIES_BOUNDS,)


def _overlapping_cases(s, t, b):
    cases = rank3_applicable_cases(t, b)
    if len(cases) < 2:
        return []
    want = closedforms.rank3_with_case(t, b, cases[0]).value
    return [Comparison("rank3 Case %d vs Case %d" % (k, cases[0]), (t, b),
                       closedforms.rank3_with_case(t, b, k).value, want)
            for k in cases[1:]]


# routes are looked up when a check runs, so a patched or traced function is compared
REGISTRY = {
    "any-rank-product": _closed(
        "ranks 2..{s.any_rank} with parts <= {s.any_part}, covered order indexes",
        lambda s: _queries(_types(s.any_rank, s.any_part, 2)),
        lambda t, b: closedforms.anyrank_case1(t, b), partial=True),
    "boundary-agreement": Entry(
        "rank-3 types with parts <= {s.max_part}, all overlapping cases",
        lambda s: _queries(_types(3, s.max_part, 3)), _overlapping_cases, _at_type),
    "case6-substitution": _library(
        "case-6 table specialized to cases 1-5 and 7-10",
        "rank3 Case 6 substituted", lambda: "cases 1-5 and 7-10", lambda: [
            str(CaseId("rank3", k)) for k in closedforms.verify_case6_specializations()]),
    "census-closure": _census(
        "cover census on {n} (type, prime) pairs with order <= {s.oracle_limit}, "
        "cost <= {oracle.CENSUS_COST_LIMIT}", "cover census", "subgroup_census"),
    "census-star": _census(
        "matrix census vs recurrence at p on {n} pairs with order <= {s.oracle_limit}, "
        "work <= {oracle.STAR_COST_LIMIT}", "matrix census", "star_matrix_census"),
    "chain-totals": _totals(
        "chains 1 <= w <= x <= y <= z <= {s.chain_max}", "rank4_total_ccl",
        lambda s: [(c, c) for c in combinations_with_replacement(
            range(1, s.chain_max + 1), 4)],
        lambda c: closedforms.rank4_total_ccl(*c),
        lambda c: closedforms.leading_term_ccl(*c), "chain %s"),
    "closed-rank2": _closed(
        "rank-2 types with parts <= {s.max_part}, every order index",
        lambda s: _queries(_types(2, s.max_part, 2)),
        lambda t, b: closedforms.rank2(t, b)),
    "closed-rank3": _closed(
        "rank-3 types with parts <= {s.max_part}, every order index",
        lambda s: _queries(_types(3, s.max_part, 3)),
        lambda t, b: closedforms.rank3(t, b)),
    "closed-rank4-intervals": _closed(
        "rank-4 types with parts <= {s.rank4_part}, covered order indexes",
        lambda s: _queries(_types(4, s.rank4_part, 4)),
        lambda t, b: closedforms.rank4_partial(t, b), partial=True),
    "elementary-abelian": Entry(
        "elementary abelian types up to rank {s.elementary_rank}",
        lambda s: _queries([(1,) * d for d in range(s.elementary_rank + 1)]),
        lambda s, t, b: [Comparison("gaussian_binomial", (t, b),
                                    closedforms.gaussian_binomial(len(t), b),
                                    count_hironaka(t, b))], _at_type),
    "equal-parts-rank3": _closed(
        "types (m, m, m) with m <= {s.max_part}",
        lambda s: _queries([(m,) * 3 for m in range(1, s.max_part + 1)]),
        lambda t, b: closedforms.rank3_mmm(t[0], b),
        lambda t, b: closedforms.rank3(t, b)),
    "equal-parts-rank4": _closed(
        "types (m, m, m, m) with m <= {s.m4_max}, every order index",
        lambda s: _queries([(m,) * 4 for m in range(1, s.m4_max + 1)]),
        lambda t, b: closedforms.rank4_mmmm_b(t[0], b)),
    "equal-parts-rank4-total": _totals(
        "total counts of (m, m, m, m) with m <= {s.m4_max}", "rank4_mmmm_total",
        lambda s: [(m, (m,) * 4) for m in range(1, s.m4_max + 1)],
        lambda m: closedforms.rank4_mmmm_total(m), lambda m: (1, 4 * m), "m=%d"),
    "nonnegative-coefficients": Entry(
        "ranks up to {s.max_rank} with parts <= {s.max_part}",
        lambda s: _queries(_types(s.max_rank, s.max_part)),
        lambda s, t, b: [Comparison("negative coefficients of count_hironaka", (t, b), [
            c for c in count_hironaka(t, b).coeffs if c < 0], [])], _at_type),
    "recurrence-pair": Entry(
        "ranks up to {s.max_rank} with parts <= {s.max_part}, order indexes -1..m+1",
        lambda s: _queries(_types(s.max_rank, s.max_part), -1, 1),
        lambda s, t, b: [Comparison("count_hironaka vs count_stehling", (t, b),
                                    count_hironaka(t, b), count_stehling(t, b))],
        _at_type),
    "series-full": _library(
        "full rank-2 series at truncation {bounds}", "verify_F2 mismatches",
        _truncation, lambda: genfun.verify_F2(SERIES_BOUNDS)[:1]),
    "series-split": _library(
        "sub-series pieces at truncation {bounds}", "verify_sub_series mismatches",
        _truncation, lambda: genfun.verify_sub_series(SERIES_BOUNDS)[:1]),
    "series-staircase": _library(
        "four-factor product series at truncation {bounds}",
        "verify_g_product mismatches", _truncation,
        lambda: genfun.verify_g_product(SERIES_BOUNDS)[:1]),
    # _extend_row computes half of each Hironaka row and mirrors it, so both
    # sides here are one stored IntPoly and this compares it with itself
    # (count_stehling folds b to min(b, m - b) the same way).  The evidence
    # of duality independent of the recurrences is CensusResult's check that
    # every census reads the same backwards.
    "symmetry": Entry(
        "ranks up to {s.max_rank} with parts <= {s.max_part}",
        lambda s: _queries(_types(s.max_rank, s.max_part)),
        lambda s, t, b: [Comparison("count_hironaka vs its mirror m-b", (t, b),
                                    count_hironaka(t, b), count_hironaka(t, sum(t) - b))],
        _at_type),
}


def _family(entry, scale, queries):
    return entry.family.format(s=scale, n=len(queries), bounds=SERIES_BOUNDS,
                               oracle=oracle)


def _compare(entry, scale, queries, records):
    """Probe the queries in order, recording each comparison; the text of the
    first mismatch or crash, or None."""
    for q in queries:
        try:
            for c in entry.probe(scale, *q):
                records.append(c)
                if c.got != c.want:
                    return "%s at %s: got %s, want %s" % (
                        c.route, entry.where(*c.query), c.got, c.want)
        except Exception as exc:
            return "%s: %s at %s" % (type(exc).__name__, exc,
                                     (entry.probed or entry.where)(*q))
    return None


def run(name, scale):
    """Run one entry up to its first mismatch.

    The queries are built once, and the family text counts them.  A crash in a
    probe is a failure that names the probed query, not an abort, and so is an
    entry that compared nothing.
    """
    entry = REGISTRY[name]
    start = time.monotonic()
    queries = entry.queries(scale)
    family = _family(entry, scale, queries)
    records = []
    counterexample = _compare(entry, scale, queries, records)
    if counterexample is None and not records:
        counterexample = "no comparison made: the family is empty"
    return Result(name, family, counterexample is None, counterexample, len(records),
                  time.monotonic() - start, records)


def worker_count():
    """How many forked workers help ``run_all``: one per usable CPU beyond this
    process, and none without ``os.fork`` or while other threads are alive,
    since a fork copies only the calling thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus - 1


def _take(queue):
    """Registry indices read one at a time from the queue pipe, until it is empty."""
    while True:
        index = os.read(queue, 1)
        if not index:
            return
        yield index[0]


def _work(names, scale, queue, reply):
    """A forked worker: run the checks it takes, send their fields as one JSON
    document, and exit without returning into the caller's stack."""
    status = 1
    try:
        done = [(i, run(names[i], scale)[:-1]) for i in _take(queue)]
        with os.fdopen(reply, "w") as out:
            json.dump(done, out)
        status = 0
    except Exception:
        # the caller sees only the exit status, so the traceback goes to stderr
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


def run_all(scale):
    """Every entry in name order, without the per-comparison records.

    The entries form one work queue, a pipe holding their indices, which this
    process drains together with ``worker_count()`` forked workers.  Results
    merge in name order, so the report is the same whichever process ran a
    check, and each ``seconds`` is that check's own time.  The checks a worker
    took fail if it dies before reporting.  Every worker is reaped before this
    returns or raises.
    """
    names = sorted(REGISTRY)
    queue, feed = os.pipe()
    # one byte an index, written whole before any fork, so no write can block
    os.write(feed, bytes(range(len(names))))
    os.close(feed)
    workers = {}  # pid: read end of the worker's result pipe
    reports, statuses, results = {}, {}, {}
    try:
        for _ in range(min(worker_count(), len(names) - 1)):
            reply, send = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the workers so far share the queue
                os.close(reply)
                os.close(send)
                break
            if not pid:
                _work(names, scale, queue, send)
            os.close(send)
            workers[pid] = reply
        results.update((i, run(names[i], scale)._replace(records=None))
                       for i in _take(queue))
        for pid, reply in workers.items():
            with os.fdopen(reply, closefd=False) as doc:
                reports[pid] = doc.read()
    finally:
        # after a raise, the tasks left are dropped, so each worker stops
        # after the check it is running
        for _ in _take(queue):
            pass
        os.close(queue)
        for pid, reply in workers.items():
            os.close(reply)
            statuses[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, code in statuses.items():
        if not code:
            results.update((i, Result(*fields, None)) for i, fields in json.loads(reports[pid]))
    cause = "the worker that ran it died before reporting (%s)" % "; ".join(sorted(
        "exit status %d" % code if code > 0 else "signal %d" % -code
        for code in statuses.values() if code))
    for i, name in enumerate(names):
        if i not in results:
            entry = REGISTRY[name]
            results[i] = Result(name, _family(entry, scale, entry.queries(scale)), False,
                                cause, 0, 0.0, None)
    return [results[i] for i in range(len(names))]
