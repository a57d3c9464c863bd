"""Self-test of the benchmark's own gates; takes a few seconds.

    python3 perfbench/selftest.py

Checks that a corrupted reference and a raising op are each counted as a
failed op, that a wrap target which has disappeared is reported as a missing
layer instead of crashing the traced round, that the census draw's predicted
cost matches across seeds, that the speed gauge takes its own probes out of
a window and rescales the rest, and that the benchmark's sources use no
private subcount name and pass no backend argument.
"""

import random
import re
from pathlib import Path

import speed
import workloads
from run import fresh_import, run_round
from tracer import TARGETS, Counts, Tracer

HERE = Path(__file__).resolve().parent


def _raise():
    raise RuntimeError("raised on purpose")


def check_corrupted_reference(sc):
    ops = sorted(workloads.census_setup(sc, 1), key=lambda op: sum(op.expected))[:8]
    _, failures = run_round(ops, Counts())
    assert failures == [], failures
    bad = list(ops[0].expected)
    bad[-1] += 1
    ops[0].expected = tuple(bad)
    ops[1].call = _raise
    _, failures = run_round(ops, Counts())
    assert failures == ["census %s: wrong output" % ops[0].label,
                        "census %s: RuntimeError: raised on purpose" % ops[1].label], failures

    table = next(op for op in workloads.algebra_setup(sc, 1) if op.kind == "table")
    rows, total = table.expected
    table.expected = (rows, total + 1)
    _, failures = run_round([table], Counts())
    assert len(failures) == 1, failures


def check_missing_layer(sc):
    ops = [op for op in workloads.algebra_setup(sc, 2) if op.kind == "closed"][:4]
    tracer = Tracer(TARGETS + [("oracle.gone", "subcount.oracle", "no_such_census", None)])
    first = tracer.round_start()
    tracer.install()
    try:
        _, failures = run_round(ops, tracer.counts, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.round_metrics(first)
    assert failures == [], failures
    assert tracer.missing == ["oracle.gone (subcount.oracle.no_such_census)"], tracer.missing
    assert metrics["oracle.gone.calls"] == 0
    assert metrics["closedforms.calls"] > 0 and metrics["polyring.mul.calls"] > 0
    assert not hasattr(sc.subgroup_census, "__wrapped__"), "uninstall left a wrapper"


def check_census_draw(sc):
    pool = workloads.census_pool(sc)
    assert all(visits <= workloads.VISIT_CAP for visits, *_ in pool)
    sums = []
    for seed in range(1, 11):
        drawn = workloads.census_draw(pool, random.Random("census-%d" % seed))
        sums.append(sum(m[0] for m in drawn))
    spread = (max(sums) - min(sums)) / min(sums)
    assert spread < 0.01, (spread, sums)


def check_speed_gauge():
    gauge = speed.SpeedGauge()
    # probes of nominal length at 1, 2 and 3 s, then three at half speed
    gauge.starts = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    gauge.times = [speed.NOMINAL_S] * 3 + [2 * speed.NOMINAL_S] * 3
    gauge._cum = [0.0] + [sum(gauge.times[:i + 1]) for i in range(6)]
    assert abs(gauge.own_time(0.5, 3.5) - (3.0 - 3 * speed.NOMINAL_S)) < 1e-12
    assert abs(gauge.rescale(1.5, 1.9) - 0.4) < 1e-12
    assert abs(gauge.rescale(10.5, 10.9) - 0.2) < 1e-12
    # the real probe does the same work every time
    assert speed.probe() == speed.probe()


def check_public_api_only():
    for path in sorted(HERE.glob("*.py")):
        if path.name == "selftest.py":
            continue
        text = path.read_text()
        assert "backend=" not in text, path
        assert not re.search(r"\bsc\._[^_]|subcount\.\w+\._[^_]|import _\w", text), path


def main():
    sc = fresh_import()
    check_corrupted_reference(sc)
    check_missing_layer(sc)
    check_census_draw(sc)
    check_speed_gauge()
    check_public_api_only()
    print("selftest: ok")


if __name__ == "__main__":
    main()
