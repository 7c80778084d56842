"""The benchmark's own tiny-scale tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
from harness import Calibrator, TimedTarget, normalise, tail_percentile
from repro.bench.runner import OpTarget
from workloads import WORKLOADS, make_plan

ROOT = os.path.dirname(run.HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _bench(workload, trace=False, seconds=0.05):
    plan = make_plan(workload, seed=3, scale="tiny")
    bench = run.Bench(plan, seconds, trace, None)
    if plan.epoch:
        bench.run_epochs()
    else:
        bench.run_stationary()
    return bench


@pytest.fixture(scope="module")
def timed():
    return {w: _bench(w) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: _bench(w, trace=True) for w in WORKLOADS}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(timed, workload):
    bench = timed[workload]
    metrics = bench.end_to_end()
    for name in E2E:
        assert metrics[name]["value"] > 0, name
    assert metrics["fail_ratio"]["value"] == 0
    assert not bench.problems
    assert bench.attempted > 0 and bench.wrong == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(traced, workload):
    metrics = traced[workload].per_layer()
    assert set(PER_LAYER) <= set(metrics)
    assert metrics["perf.sim_ns_per_op"]["value"] > 0
    assert metrics["perf.events_per_op"]["value"] > 0
    assert metrics["trace.overhead"]["value"] > 0


def test_names_and_units_are_well_formed(timed, traced):
    names = [w["name"] for w in SPEC["workloads"]] + E2E + PER_LAYER
    for bench in timed.values():
        names += list(bench.end_to_end())
    for bench in traced.values():
        names += list(bench.per_layer())
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and len(m["unit"]) <= 16, m


class _Echo(OpTarget):
    name = "echo"
    supports_scan = True

    def __init__(self):
        self.result = object()

    def get(self, key):
        return self.result

    def get_many(self, keys):
        return self.result

    def put(self, key, value):
        return self.result

    def put_many(self, items):
        return self.result

    def scan(self, key, count):
        return self.result

    def scan_many(self, starts, count):
        return self.result


def test_timing_wrapper_passes_results_through_unchanged():
    inner = _Echo()
    ticks = iter(range(0, 1000, 10))
    tt = TimedTarget(inner, clock=lambda: next(ticks))
    calls = [
        ("read", lambda: tt.get(1)),
        ("read", lambda: tt.get_many([1, 2])),
        ("write", lambda: tt.put(1, 1)),
        ("write", lambda: tt.put_many([(1, 1)])),
        ("scan", lambda: tt.scan(1, 3)),
        ("scan", lambda: tt.scan_many([1, 2, 3], 3)),
    ]
    for _kind, call in calls:
        assert call() is inner.result
    assert [k for k, _n, _ns in tt.calls] == [k for k, _ in calls]
    assert [n for _k, n, _ns in tt.calls] == [1, 2, 1, 1, 1, 3]
    assert all(ns == 10 for _k, _n, ns in tt.calls)
    assert all(a is inner.result for a in tt.answers)


def test_timed_target_answers_equal_the_bare_store():
    from repro.bench.runner import execute_ops
    from workloads import build_target

    plan = make_plan("batch-rw", seed=5, scale="tiny")
    bare, wrapped = build_target(plan), build_target(plan)
    tt = TimedTarget(wrapped.adapter)
    execute_ops(tt, plan.slices[0], wrapped.perf, batch_size=plan.batch_size)
    assert tt.answers == plan.expected[0]
    execute_ops(bare.adapter, plan.slices[0], bare.perf, batch_size=plan.batch_size)
    assert bare.perf.counters == wrapped.perf.counters


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_layer_shares_sum_within_tolerance(traced, workload):
    bench = traced[workload]
    shares = bench.layer_shares()
    assert shares and all(s >= 0 for s in shares.values())
    assert abs(1.0 - sum(shares.values())) <= run.LAYER_SUM_TOLERANCE


def test_normalisation_and_tail_rules():
    from harness import REF_CALIB_OPS_S

    assert normalise(2.0, REF_CALIB_OPS_S) == 2.0
    assert normalise(2.0, REF_CALIB_OPS_S / 2) == 1.0
    assert tail_percentile(2048, 99.9) == 99.5
    assert tail_percentile(320, 99.0) == 95.0
    assert tail_percentile(5, 99.0) == 50.0
    readings = iter([1.0, 2.0, 4.0])
    cal = Calibrator(kernel=lambda: next(readings))
    out, raw, speed = cal.around(lambda: "x")
    assert out == "x" and raw >= 0 and speed == pytest.approx(2 ** 0.5)
    _, _, speed = cal.around(lambda: None)
    assert speed == pytest.approx(8 ** 0.5)


def test_main_prints_one_json_result_line(capsys):
    code = run.main(
        ["--workload", "batch-rw", "--seed", "2", "--seconds", "0.05",
         "--trace", "0", "--scale", "tiny"]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(E2E)


def test_engine_run_leaves_no_process_behind(capsys):
    import multiprocessing
    from multiprocessing import resource_tracker

    code = run.main(
        ["--workload", "engine-rw", "--seed", "1", "--seconds", "0.05",
         "--trace", "0", "--scale", "tiny"]
    )
    capsys.readouterr()
    assert code == 0
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_exits_nonzero_without_the_system_under_test(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsb-a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
