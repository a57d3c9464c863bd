"""subcount benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload census --seed 1 --seconds 36 --trace 0

Each run imports subcount from ``src/`` of the checkout that holds this file,
builds the workload's inputs and reference answers from the seed (set-up,
repeated and reported as its median), then runs rounds over the input set
until the next round would overrun ``--seconds``.  Every op's output is
checked against its reference.  With ``--trace 0`` a speed gauge
(speed.py) runs beside the work, and every set-up and op time is reported at
its reference speed.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` - the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/README.md for the metrics and workloads.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedGauge
from tracer import Counts, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up repeats at least this often, and until this much time has passed.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50


def fresh_import():
    """Import subcount (and its CLI) from the checkout, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "subcount" or n.startswith("subcount.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sc = importlib.import_module("subcount")
    importlib.import_module("subcount.cli")
    if src not in Path(sc.__file__).resolve().parents:
        raise ImportError("subcount imported from %s, not from %s" % (sc.__file__, src))
    return sc


def setup(workload, seed):
    """Repeat set-up; return the last package, its ops and each set-up's window."""
    windows = []
    begin = perf_counter()
    while len(windows) < SETUP_REPEATS or (perf_counter() - begin < SETUP_MIN_S
                                           and len(windows) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        sc = fresh_import()
        ops = WORKLOADS[workload](sc, seed)
        windows.append((t0, perf_counter()))
        # free the earlier copy now, so the repeats do not raise peak_rss_mb
        gc.collect()
    return sc, ops, windows


def run_round(ops, notes, tracer=None):
    """Run every op once; return (op windows (start, end), failures)."""
    gc.collect()
    windows = []
    failures = []
    for op in ops:
        span = tracer.begin_op(op.kind) if tracer else None
        t0 = perf_counter()
        try:
            output = op.call()
            error = None
        except Exception as exc:  # a raising op is a failed op, not an abort
            output, error = None, exc
        t1 = perf_counter()
        if tracer:
            tracer.end_op(span, t0, t1)
        windows.append((t0, t1))
        if error is None:
            try:
                ok = op.check(output, op.expected, notes)
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            reason = "%s: %s" % (type(error).__name__, error) if error else "wrong output"
            failures.append("%s %s: %s" % (op.kind, op.label, reason))
    return windows, failures


def measure(ops, seconds, tracer=None):
    """Closed loop over rounds until the next one would overrun ``seconds``.

    Returns each round's op windows, by kind of round.  With a tracer, plain
    and traced rounds alternate, starting plain.
    """
    rounds = {"plain": [], "traced": []}
    layer_rounds, failures = [], []
    longest = 0.0
    attempted = 0
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(rounds["traced"]) < len(rounds["plain"])
        if traced:
            first = tracer.round_start()
            tracer.install()
            try:
                windows, bad = run_round(ops, tracer.counts, tracer)
            finally:
                tracer.uninstall()
            layer_rounds.append(tracer.round_metrics(first))
        else:
            windows, bad = run_round(ops, Counts())
        rounds["traced" if traced else "plain"].append(windows)
        attempted += len(ops)
        failures.extend(bad)
        longest = max(longest, windows[-1][1] - windows[0][0])
        done = tracer is None or rounds["traced"]
        if done and perf_counter() - begin + longest > seconds:
            break
    return rounds, layer_rounds, attempted, failures


def tail_percentile(per_round):
    """Highest percentile with at least ten of a round's ops beyond it."""
    if per_round <= 10:
        return 100.0
    return 100.0 * (per_round - 10) / per_round


def nearest_rank(values, pct):
    ordered = sorted(values)
    k = max(1, math.ceil(len(ordered) * pct / 100.0 - 1e-9))
    return ordered[k - 1]


def commit_id():
    """HEAD of the checkout's git directory, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(sc):
    backend = getattr(sc, "census_backend", None)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "census_backend": backend() if callable(backend) else "absent",
        "commit": commit_id(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="subcount benchmark")
    parser.add_argument("--workload", required=True, choices=("census", "verify", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Traced runs report layer times, which have no bound; their probes
    # would land inside the spans, so only untraced runs use the gauge.
    gauge = None if args.trace else SpeedGauge()
    if gauge:
        gauge.start()
    try:
        sc, ops, setup_windows = setup(args.workload, args.seed)
    except ImportError as exc:
        if gauge:
            gauge.stop()
        print("error: cannot import subcount from the checkout: %s" % exc, file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    rounds, layer_rounds, attempted, failures = measure(ops, args.seconds, tracer)
    if gauge:
        gauge.stop()
    for line in failures[:20]:
        print("FAILED %s" % line, file=sys.stderr)

    def raw(t0, t1):
        return t1 - t0

    timed = gauge.rescale if gauge else raw
    round_latencies = [[timed(*w) for w in r] for r in rounds["plain"]]
    latencies = [t for r in round_latencies for t in r]
    round_s = {kind: [sum(timed(*w) for w in r) for r in rounds[kind]] for kind in rounds}
    raw_round_s = [sum(raw(*w) for w in r) for r in rounds["plain"]]
    setup_times = [timed(*w) for w in setup_windows]
    pct = tail_percentile(len(ops))
    plain_wall = statistics.median(round_s["plain"])
    if args.trace:
        metrics = {
            name: statistics.median(r[name] for r in layer_rounds)
            for name in layer_rounds[0]
        }
        metrics["tracing.overhead_s"] = statistics.median(round_s["traced"]) - plain_wall
        metrics["error_rate"] = len(failures) / attempted
    else:
        metrics = {
            "wall_s": plain_wall,
            "setup_s": statistics.median(setup_times),
            # per round, then the median over rounds: pooled, a rank that
            # falls between two op types reads the extreme copy of one of them
            "op_p50_ms": 1000.0 * statistics.median(
                statistics.median(r) for r in round_latencies),
            "op_tail_ms": 1000.0 * statistics.median(
                nearest_rank(r, pct) for r in round_latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(units) ^ set(metrics)))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(sc),
        "ops_per_round": len(ops),
        "round_s": round_s,
        "raw_round_s": raw_round_s,
        "speed_gauge": gauge.summary() if gauge else None,
        "op_latencies_s": round_latencies,
        "op_count": len(latencies),
        "op_tail_percentile": pct,
        "setup_s_each": setup_times,
        "raw_setup_s_each": [raw(*w) for w in setup_windows],
        "missing_layers": tracer.missing if tracer else [],
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (out_dir / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(out_dir / ("spans-%s.csv.gz" % args.workload))

    print("# environment %s" % json.dumps(record["environment"], sort_keys=True))
    print("# %d ops per round, %d plain and %d traced rounds, %d ops;"
          " op_tail_ms is the median over rounds of p%.2f"
          % (len(ops), len(rounds["plain"]), len(rounds["traced"]), len(latencies), pct))
    if gauge:
        g = record["speed_gauge"]
        print("# speed gauge: %d probes, median %.4f s (nominal %.4f s), range %.4f-%.4f s;"
              " raw median round %.4f s" % (g["probes"], g["median_s"], g["nominal_s"],
                                            g["min_s"], g["max_s"],
                                            statistics.median(raw_round_s)))
    for m in record["missing_layers"]:
        print("# missing layer: %s" % m)
    for name in sorted(metrics):
        print("# %-34s %.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
