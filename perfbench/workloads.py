"""Seeded inputs, reference answers and ops for the three workloads.

Each workload's ``setup(sc, seed)`` takes the freshly imported ``subcount``
package, builds its inputs from the seed, computes every reference answer by
another route, and returns the list of ops a round runs.  The program sees
only the generated inputs.

Calls into subcount use only names in ``subcount.__all__`` and
``subcount.cli.main`` argv, looked up on the package when the op runs so the
tracer's wrappers see them.  No call selects a census backend.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout


class Op:
    """One timed call: ``call()`` runs the program, ``check`` judges its output.

    ``check(output, expected, notes)`` returns True when the output is right;
    it may add counts to ``notes``.  ``expected`` is the reference computed in
    set-up, kept on the op so a self-test can corrupt it.
    """

    __slots__ = ("kind", "label", "call", "expected", "check")

    def __init__(self, kind, label, call, expected, check):
        self.kind = kind
        self.label = label
        self.call = call
        self.expected = expected
        self.check = check


def _equal(output, expected, notes):
    return output == expected


# ---------------------------------------------------------------------------
# census: subgroup_census on a stratified draw from the criterion-3 pool
# ---------------------------------------------------------------------------

# the criterion-3 pool on the pure census path: every type of order at most
# 2^10 (p=2) or 3^7 (p=3) whose exact cost, total subgroups times group order,
# fits the cap
POOL_WEIGHT_BOUND = {2: 10, 3: 7}
POOL_COST_CAP = {2: 150_000, 3: 60_000}

# Admission by predicted element visits: order * sum_H |H|, where the sum
# runs over all subgroups H.  The closure census scans every element as a
# candidate generator for each subgroup and touches cosets of size |H|, so
# this predicts its work from the reference counts alone, before any census
# runs.  Types above the cap never enter a draw.
VISIT_CAP = 1_000_000
# Members below this many visits are sampled one of each run of five
# adjacent members; the heavier strata are taken whole, because they set the
# round time and the latency percentiles.  Every light member is faster than
# every heavy one, so the light count fixes where the median falls: with six
# light ops and 32 heavy ones it falls in the middle of four heavy types of
# nearly equal time ((1,1,1,1) at p=3, (3,4), (1,1,5) and (8) at p=2), not at
# the edge of a gap between types, where it would jump with the op noise.
LIGHT_VISITS = 30_000
LIGHT_STRATUM = 5


def _partitions_up_to(bound):
    found = []

    def rec(rest, max_part, acc):
        if acc:
            found.append(tuple(acc))
        for part in range(1, min(rest, max_part) + 1):
            rec(rest - part, part, acc + [part])

    rec(bound, bound, [])
    return sorted(set(found))


def census_pool(sc):
    """Admitted pool members as (visits, prime, parts, reference counts)."""
    memo = sc.MemoTable()
    pool = []
    for p, bound in sorted(POOL_WEIGHT_BOUND.items()):
        for parts in _partitions_up_to(bound):
            t = sc.GroupType(parts)
            counts = tuple(sc.count_hironaka(t, b, memo).eval_at(p)
                           for b in range(t.weight + 1))
            order = p ** t.weight
            if sum(counts) * order > POOL_COST_CAP[p]:
                continue
            visits = order * sum(c * p ** b for b, c in enumerate(counts))
            if visits <= VISIT_CAP:
                pool.append((visits, p, t.parts, counts))
    pool.sort()
    return pool


def census_draw(pool, rng):
    """Every heavy member plus one of each stratum of light members."""
    light = [m for m in pool if m[0] < LIGHT_VISITS]
    drawn = [m for m in pool if m[0] >= LIGHT_VISITS]
    for i in range(0, len(light), LIGHT_STRATUM):
        drawn.append(rng.choice(light[i:i + LIGHT_STRATUM]))
    rng.shuffle(drawn)
    return drawn


def census_setup(sc, seed):
    rng = random.Random("census-%d" % seed)
    ops = []
    for _, p, parts, counts in census_draw(census_pool(sc), rng):
        shown = list(parts)
        rng.shuffle(shown)  # the API canonicalizes part order
        ops.append(Op("census", "%s@%d" % (tuple(shown), p),
                      _census_call(sc, shown, p), counts, _equal))
    return ops


def _census_call(sc, parts, p):
    return lambda: sc.subgroup_census(parts, p).counts


# ---------------------------------------------------------------------------
# verify: the CLI cross-check battery, in process
# ---------------------------------------------------------------------------

ORACLE_LIMIT = 128


def verify_setup(sc, seed):
    import subcount.cli as cli

    primes = [2, 3]
    random.Random("verify-%d" % seed).shuffle(primes)
    argv = ["verify", "--json", "--oracle-limit", str(ORACLE_LIMIT),
            "--primes", ",".join(str(p) for p in primes)]

    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue()

    # every round must print the same bytes; the first round sets them
    first = []

    def check(output, expected, notes):
        code, text = output
        report = json.loads(text)
        checks = report["checks"]
        notes["cli.verify.checks"] += len(checks)
        notes["cli.verify.failed"] += sum(not c["passed"] for c in checks)
        if not first:
            first.append(text)
        return (code == 0 and report["passed"] is expected
                and all(c["passed"] for c in checks) and text == first[0])

    return [Op("verify", " ".join(argv), call, True, check)]


# ---------------------------------------------------------------------------
# algebra: recurrence tables, closed-form catalogs and series, no census
# ---------------------------------------------------------------------------

# The op kinds are sized so that their costs do not overlap, and counted so
# that the median op falls in the middle of the eight rank3 rows and the tail
# op (ten ops beyond it) in the middle of the eight rank-4 tables.  A
# percentile then reads one kind of op whatever the seed draws.

# cold `table` queries: (rank, weight) of each slot; parts are drawn within
# 30% of weight/rank, which holds the memo size within a few percent
TABLE_SHAPES = [(4, 56)] * 8 + [(3, 90)] * 5

# closed-form row queries: (function, rank, weight - or the choices of m for
# the equal-part families, which take m - and slots)
CLOSED_SLOTS = [
    ("rank2", 2, 30, 5),
    ("anyrank_case1", 6, 30, 5),
    ("rank3_mmm", 3, (6, 7, 8), 5),
    ("rank4_partial", 4, 16, 5),
    ("rank3", 3, 30, 8),
    ("rank4_mmmm_b", 4, (5, 6, 7), 4),
]
PARTIAL_FAMILIES = {"rank4_partial", "anyrank_case1"}

SERIES_BOUNDS = (12, 12, 12)


def composition(rng, rank, weight, spread=0.3):
    """Parts summing to weight, each within spread of weight/rank."""
    mean = weight / rank
    lo = max(1, int(mean * (1 - spread)))
    hi = int(mean * (1 + spread))
    while True:
        parts = [rng.randint(lo, hi) for _ in range(rank - 1)]
        last = weight - sum(parts)
        if lo <= last <= hi:
            return tuple(parts + [last])


def _table_call(sc, t):
    def call():
        hironaka, stehling = sc.MemoTable(), sc.MemoTable()
        rows = tuple(sc.count_hironaka(t, b, hironaka) for b in range(t.weight + 1))
        total = sc.total_count(t, hironaka)
        cross = tuple(sc.count_stehling(t, b, stehling) for b in range(t.weight + 1))
        return rows, total, cross
    return call


def _table_check(output, expected, notes):
    rows, total, cross = output
    ref_rows, ref_total = expected
    return rows == ref_rows and cross == ref_rows and total == ref_total


def _closed_call(sc, name, arg, weight):
    return lambda: [getattr(sc, name)(arg, b) for b in range(weight + 1)]


def _closed_check(partial):
    def check(output, expected, notes):
        covered = [r for r in output if r.covered]
        if not covered or (not partial and len(covered) != len(output)):
            return False
        return all(r.value == want for r, want in zip(output, expected) if r.covered)
    return check


def _series_call(sc, name):
    return lambda: getattr(sc, name)(SERIES_BOUNDS)


def _series_check(output, expected, notes):
    if isinstance(output, dict):  # verify_sub_series reports a dict
        return output["ok"] is expected and output["sum_mismatches"] == []
    return output == [] and expected


def algebra_setup(sc, seed):
    rng = random.Random("algebra-%d" % seed)
    ops = []
    for rank, weight in TABLE_SHAPES:
        t = sc.GroupType(composition(rng, rank, weight))
        memo = sc.MemoTable()
        rows = tuple(sc.count_stehling(t, b, memo) for b in range(weight + 1))
        ops.append(Op("table", str(t), _table_call(sc, t), (rows, sum(rows)),
                      _table_check))
    memo = sc.MemoTable()
    for name, rank, size, slots in CLOSED_SLOTS:
        for _ in range(slots):
            if isinstance(size, tuple):
                arg = rng.choice(size)
                t = sc.GroupType((arg,) * rank)
            else:
                t = arg = sc.GroupType(composition(rng, rank, size))
            ref = tuple(sc.count_hironaka(t, b, memo) for b in range(t.weight + 1))
            ops.append(Op("closed", "%s%s" % (name, t),
                          _closed_call(sc, name, arg, t.weight), ref,
                          _closed_check(name in PARTIAL_FAMILIES)))
    for name in ("verify_F2", "verify_g_product", "verify_sub_series"):
        ops.append(Op("series", "%s%s" % (name, SERIES_BOUNDS),
                      _series_call(sc, name), True, _series_check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "census": census_setup,
    "verify": verify_setup,
    "algebra": algebra_setup,
}
