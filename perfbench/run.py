"""weakhopf benchmark: one workload, checked against the oracle, as JSON.

    python3 perfbench/run.py --workload pool-sparse --seed 1 --seconds 60 --trace 0

Workloads (see BENCHMARK.json for why each one exists):

* ``pool-sparse``  50 small sparse instances, each run through the theorem
  suites, the weak Hopf classification, the rigidity suites (normal
  antipodes) and the repcat suites (dimension at most 6);
* ``adcross-s3a3`` the command-line path on the dimension-18 adjoint crossed
  product: ``construct``, ``report``, then ``dual`` twice.

Each pass runs in a worker process, started one at a time and awaited,
that imports ``weakhopf`` from ``src/`` next to this directory and calls it
in process, single-threaded, one item at a time.  There are at least two
workers, and more while the next would end within ``--seconds``; each
item's fastest run counts.  With ``--trace 1`` untraced and traced workers
alternate and the result holds per-layer metrics instead of end-to-end
ones.  The last line of stdout is the result object; per-theorem coverage
counts and, when traced, every span go to ``.perfbench-out/`` at the
repository root.  See README.md beside this file.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

MODULES = ("exactlin", "core", "antipode", "rigidity", "repcat", "constructions", "serialize", "cli")
WORKLOADS = ("pool-sparse", "adcross-s3a3")

# Each worker repeats set-up at least this many times, and until this much
# time has gone, so that the median is steady even when one set-up is short.
SETUP_MIN_REPS = 2
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPS = 8

# Every item runs in at least this many worker processes and its fastest run
# counts.  On a shared host the same pass can take 20% longer in one process
# than in the next, and a slower process never makes the code faster.
MIN_PASSES = 2
WORKER_TIMEOUT = 150

END_TO_END = {
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "report_s": "s",
    "checks_run": "count",
    "verdict_ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "exactlin.elim.calls": "count",
    "exactlin.elim.self_s": "s",
    "exactlin.elim.entries": "count",
    "exactlin.elim.nnz": "count",
    "exactlin.elim.density": "ratio",
    "exactlin.solve_affine.calls": "count",
    "exactlin.solve_affine.self_s": "s",
    "exactlin.solve_affine.entries": "count",
    "exactlin.solve_affine.nnz": "count",
    "exactlin.matrix.new": "count",
    "core.mul.calls": "count",
    "core.delta.calls": "count",
    "core.t2_mul.calls": "count",
    "core.violations.self_s": "s",
    "core.decide_axioms.calls": "count",
    "core.decide_axioms.self_s": "s",
    "core.structural_suite.self_s": "s",
    "antipode.solve.calls": "count",
    "antipode.solve.self_s": "s",
    "antipode.classify.self_s": "s",
    "antipode.suite.self_s": "s",
    "antipode.convolve.calls": "count",
    "rigidity.sqcap.self_s": "s",
    "rigidity.verify.self_s": "s",
    "rigidity.intertwiners.self_s": "s",
    "repcat.coherence.self_s": "s",
    "repcat.unit.self_s": "s",
    "repcat.unit_suite.self_s": "s",
    "constructions.adcross.self_s": "s",
    "serialize.parse.self_s": "s",
    "serialize.emit.self_s": "s",
    "cli.construct.self_s": "s",
    "cli.report.self_s": "s",
    "cli.dual.self_s": "s",
    "bench.item.self_s": "s",
    "suite.checks_skipped": "count",
    "trace.overhead_s": "s",
}


def import_weakhopf():
    """Fresh import of the package under ``src/``; returns its modules."""
    for name in [m for m in sys.modules if m == "weakhopf" or m.startswith("weakhopf.")]:
        del sys.modules[name]
    modules = {m: importlib.import_module("weakhopf." + m) for m in MODULES}
    for mod in modules.values():
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            raise ImportError("%s was not loaded from %s" % (mod.__name__, SRC))
    return argparse.Namespace(**modules)


def setup(workload, seed):
    """Import plus input generation, repeated; returns (wh, work, times)."""
    times = []
    while True:
        start = perf_counter()
        wh = import_weakhopf()
        items = workloads.sparse_pool(wh, seed) if workload == "pool-sparse" else None
        times.append(perf_counter() - start)
        enough = len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_SECONDS
        if enough or len(times) >= SETUP_MAX_REPS:
            return wh, items, times


def run_pass(wh, workload, items, tracer=None):
    if workload == "adcross-s3a3":
        return workloads.cli_pass(wh, OUT, tracer)
    return workloads.pool_pass(wh, items, tracer)


def traced_pass(wh, workload, items):
    tracer = tracing.Tracer()
    patches = tracing.instrument(wh, tracer)
    try:
        result = run_pass(wh, workload, items, tracer)
    finally:
        patches.restore()
    return result, tracer


def worker(args, tag):
    """One pass in this process; prints its measurements as JSON."""
    sys.path.insert(0, SRC)
    wh, items, setup_times = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        result, tracer = traced_pass(wh, args.workload, items)
    else:
        result = run_pass(wh, args.workload, items)
    payload = {
        "setup_times": setup_times,
        "wall": result.wall,
        "item_times": result.item_times,
        "report_times": result.report_times,
        "attempted": result.attempted,
        "failed": result.failed,
        "checks_run": result.checks_run,
        "checks_skipped": result.checks_skipped,
        "coverage": dict(sorted(result.coverage.items())),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        payload["self_s"] = tracer.self_times()
        payload["counts"] = tracer.span_counts()
        write_output("%s-worker%d-spans.json" % (tag, args.worker), tracer.spans)
    print(json.dumps(payload))
    return 0


def spawn(args, index, trace):
    """Run one worker process to completion and return its measurements."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--worker", str(index),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("worker %d exited with code %d" % (index, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best_per_item(runs, field):
    """Each item's fastest time over the workers, in item order."""
    return [min(ts) for ts in zip(*(r[field] for r in runs))]


def end_to_end(runs):
    times = best_per_item(runs, "item_times")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Percentiles in steps of 2.5; each reported percentile is the mean of a
    # band around it (37.5-62.5 for p50, 80-97.5 for p90), so that no single
    # item's slow run decides the value.  With the four commands of
    # adcross-s3a3 the p50 band stays between the two middle commands.
    cuts = statistics.quantiles(times, n=40, method="inclusive")
    return {
        "wall_s": sum(times),
        "verdict_p50_s": statistics.mean(cuts[14:25]),
        "verdict_p90_s": statistics.mean(cuts[31:39]),
        "report_s": sum(best_per_item(runs, "report_times")),
        "checks_run": min(r["checks_run"] for r in runs),
        "verdict_ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "setup_s": statistics.median(t for r in runs for t in r["setup_times"]),
    }


def per_layer(plain, traced):
    """Counts from the first traced worker; times averaged over traced workers."""
    counts = traced[0]["counts"]
    selfs = {}
    for r in traced:
        for name, secs in r["self_s"].items():
            selfs[name] = selfs.get(name, 0.0) + secs / len(traced)
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = selfs.get(name[: -len(".self_s")], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    elim = tracing.ELIM
    entries = counts.get(elim + ".entries", 0)
    metrics[elim + ".density"] = counts.get(elim + ".nnz", 0) / entries if entries else 0.0
    metrics["suite.checks_skipped"] = traced[0]["checks_skipped"]
    metrics["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
        r["wall"] for r in plain
    )
    return metrics


def write_output(name, payload):
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    if not os.path.isfile(os.path.join(SRC, "weakhopf", "__init__.py")):
        sys.stderr.write("no weakhopf sources under %s\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.worker is not None:
        return worker(args, tag)

    plain, traced = [], []
    min_rounds = 1 if args.trace else MIN_PASSES
    start = perf_counter()
    while True:
        round_start = perf_counter()
        plain.append(spawn(args, len(plain) + len(traced), 0))
        if args.trace:
            traced.append(spawn(args, len(plain) + len(traced), 1))
        now = perf_counter()
        if len(plain) >= min_rounds and now - start + (now - round_start) > args.seconds:
            break

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    write_output(tag + ".json", {"workers": len(runs), "coverage": runs[0]["coverage"]})
    if args.trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(plain), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
