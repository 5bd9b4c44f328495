"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure     # noqa: E402
import run         # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = {"ops_per_s", "op_p50_s", "setup_s", "peak_rss_mb"}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time ---------------------------------------------------------------

def test_self_time_nested_spans():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("b", 3.0, 6.0, 0),          # overlaps a: union [1, 6]
             ("c", 2.0, 3.0, 1),          # grandchild of root
             ("d", 9.5, 12.0, 0)]         # runs past root's end: clipped
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 2.5])


def test_self_times_sum_to_root_duration():
    spans = [("r", 0.0, 8.0, -1), ("x", 1.0, 3.0, 0), ("y", 3.0, 7.0, 0),
             ("z", 4.0, 5.0, 2), ("r2", 9.0, 10.0, -1)]
    assert sum(tracing.self_times(spans)) == pytest.approx(9.0)


def test_tracer_records_parents_and_restores_originals():
    from ymalpha import coulomb, quat, variational
    orig = quat.bracket
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quat.bracket is not orig
        assert coulomb.bracket is quat.bracket      # from-imported name
        assert variational.bracket is quat.bracket
        traced_outer = tracer.span("outer", lambda: quat.bracket(
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        out = traced_outer()
    finally:
        tracer.uninstall()
    assert quat.bracket is orig and coulomb.bracket is orig
    assert list(out) == [0.0, 0.0, 2.0]
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("quat.bracket", 0)]


# -- median and operation counts --------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_operation_counts_and_median():
    clock = FakeClock()
    loop = measure.Loop()
    durations = {"a": 1.0, "b": 4.0, "c": 2.0, "miss": 1.0, "crash": 1.0}

    def op(inp):
        clock.t += durations[inp]
        if inp == "miss":
            return ["oracle missed"]
        if inp == "crash":
            raise RuntimeError("boom")
        return []

    inputs = ["a", "miss", "b", "crash", "c"]
    loop.wall = measure.timed_loop(
        lambda i: measure.run_op(op, inputs[i % 5], loop, clock), 10.0, clock)
    assert loop.attempted == 6          # ends at 10 s, the sixth op's end
    assert loop.failed == 2             # one miss and one crash
    assert loop.completed == 4
    assert loop.durations == [1.0, 4.0, 2.0, 1.0]   # passed ops only
    assert loop.wall == 10.0
    assert loop.ops_per_s() == pytest.approx(0.4)
    assert loop.op_p50_s() == 1.5       # mean of the middle pair
    loop.durations.pop()
    assert loop.op_p50_s() == 2.0       # the middle one of three


def test_loop_runs_at_least_one_op():
    clock = FakeClock()
    loop = measure.Loop()

    def op(inp):
        clock.t += 10.0
        return []
    measure.timed_loop(lambda i: measure.run_op(op, None, loop, clock),
                       0.001, clock)
    assert loop.attempted == 1


def test_loop_stops_at_the_op_end_nearest_the_deadline():
    clock = FakeClock()

    def op(inp):
        clock.t += 10.0
        return []
    for seconds, n in ((24.0, 2), (26.0, 3), (30.0, 3)):
        loop = measure.Loop()
        loop.wall = measure.timed_loop(
            lambda i: measure.run_op(op, None, loop, clock), seconds, clock)
        assert (loop.attempted, loop.wall) == (n, 10.0 * n)


# -- metric names -------------------------------------------------------------

def test_metric_names():
    s = spec()
    e2e = {m["name"] for m in s["end_to_end"]}
    per_layer = {m["name"] for m in s["per_layer"]}
    assert e2e == END_TO_END
    assert per_layer == set(tracing.METRIC_NAMES)
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    names += [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n) and len(n) <= 64, n
    assert {w["name"] for w in s["workloads"]} == set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


# -- smoke runs ---------------------------------------------------------------

@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_operation_per_workload(name):
    w = workloads.make(name, seed=5)
    assert w.op(w.inputs[0]) == []


def test_traced_run_reports_every_layer(capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    assert run.main(["--workload", "quadrature", "--seed", "2",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.METRIC_NAMES)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < m["trace.layer_self_s"] <= m["trace.op_wall_s"]
    assert m["sphere.leggauss_calls"] > 0 and m["coulomb.projections"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
