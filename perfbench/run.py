"""Benchmark entry point; run it from the root of the repository:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 27 --trace 0

It imports ymalpha from ./src, builds the workload's inputs from the seed,
fills the program's caches, runs one warm-up operation and then runs whole
operations for about --seconds of wall time, checking each against its
oracles.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 runs every operation twice, untraced and traced, and reports the
per-layer metrics and the tracing overhead.  See README.md.
"""

import time

T0 = time.perf_counter()        # set-up is timed from the script's first line

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"      # one thread, pinned before numpy loads

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path.cwd() / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("quadrature", "flow", "gauge", "zprobe")
CHILD_SETUPS = 2                # fresh processes whose set-up is also timed


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print its set-up time, exit")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Put ./src first on the path and check that ymalpha comes from it."""
    pkg = SRC / "ymalpha"
    if not (pkg / "__init__.py").is_file():
        fail("no %s: run from the root of a ymalpha checkout" % pkg)
    sys.path.insert(0, str(SRC))
    import ymalpha
    if Path(ymalpha.__file__).resolve().parent != pkg.resolve():
        fail("ymalpha was imported from %s, not %s" % (ymalpha.__file__, pkg))


def child_setup_s(args):
    """Set-up time of the same workload and seed in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_plain(args):
    import measure
    import workloads
    w = workloads.make(args.workload, args.seed)
    setups = [time.perf_counter() - T0]
    loop = measure.Loop()
    loop.wall = measure.timed_loop(
        lambda i: measure.run_op(w.op, w.inputs[i % len(w.inputs)], loop),
        args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [child_setup_s(args) for _ in range(CHILD_SETUPS)]
    metrics = {
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_s": (loop.op_p50_s(), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {"op_s": loop.durations, "setup_samples_s": setups,
              "wall_s": loop.wall}
    return loop.attempted, loop.failed, True, metrics, detail


def run_traced(args):
    import measure
    import tracing
    import workloads
    tracer = tracing.Tracer()
    tracer.install()                  # set-up spans give the chart build time
    try:
        w = workloads.make(args.workload, args.seed)
    finally:
        tracer.uninstall()
    n_setup = len(tracer.spans)
    tracer.counts.clear()
    plain, traced = measure.Loop(), measure.Loop()

    def pair(i):
        inp = w.inputs[i % len(w.inputs)]
        measure.run_op(w.op, inp, plain)
        tracer.install()
        try:
            measure.run_op(w.op, inp, traced)
        finally:
            tracer.uninstall()

    measure.timed_loop(pair, args.seconds)
    n_ops = max(len(traced.durations), 1)
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    metrics, self_sum = tracing.layer_metrics(spans, selfs, tracer.counts,
                                              n_ops, n_setup)
    metrics["coulomb.chart_build_s"] = (sum(
        (t for sp, t in zip(spans[:n_setup], selfs)
         if sp[0] == "coulomb.BasicChart"), 0.0), "s")
    op_wall = sum(traced.durations)
    metrics["trace.op_wall_s"] = (op_wall / n_ops, "s/op")
    metrics["trace.layer_self_s"] = (self_sum / n_ops, "s/op")
    metrics["trace.ops_per_s"] = (len(traced.durations) / op_wall
                                  if op_wall > 0 else 0.0, "1/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (op_wall / sum(plain.durations) - 1.0)
        if plain.durations else float("nan"), "%")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / ("trace-%s-seed%d.csv" % (args.workload, args.seed)), T0)
    detail = {"inclusive_s": tracing.inclusive_times(spans[n_setup:]),
              "traced_op_s": traced.durations, "plain_op_s": plain.durations}
    ok = self_sum <= op_wall
    if not ok:
        print("layer self times %.6f s exceed the traced wall time %.6f s"
              % (self_sum, op_wall), file=sys.stderr)
    return (plain.attempted + traced.attempted, plain.failed + traced.failed,
            ok, metrics, detail)


def main(argv=None):
    args = parse(argv)
    import_program()
    if args.setup_only:
        import workloads
        workloads.make(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    run = run_traced if args.trace else run_plain
    attempted, failed, ok, metrics, detail = run(args)
    metrics = dict(sorted(metrics.items()))
    for name, (value, unit) in metrics.items():
        print("%-26s %.6g %s" % (name, value, unit))
    print("operations attempted %d, failed %d" % (attempted, failed))
    result = {"correct": bool(ok and failed == 0), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(dict(result, detail=detail), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
