"""Tests for the benchmark harness (runner, metrics, report)."""

import os

import pytest

from repro import BPlusTree, CCEH, PerfContext, ViperStore
from repro.bench import (
    BenchResult,
    IndexAdapter,
    OP_HANDLERS,
    StoreAdapter,
    execute_ops,
    format_table,
    measure_build,
    thread_scaling,
)
from repro.errors import UnsupportedOperationError
from repro.concurrency import LOCK_FREE
from repro.perf import LogHistogram, Profiler
from repro.workloads import YCSB_A, READ_ONLY, generate_operations
from repro.workloads.ycsb import OpKind, Operation


def small_store():
    perf = PerfContext()
    store = ViperStore(BPlusTree(perf=perf), perf)
    store.bulk_load([(i, i) for i in range(0, 2000, 2)])
    return store, perf


class TestRunners:
    def test_store_run_counts_everything(self):
        store, perf = small_store()
        ops = generate_operations(READ_ONLY, 500, list(range(0, 2000, 2)), seed=1)
        result = execute_ops(StoreAdapter(store), ops, perf)
        assert len(result.latency) == 500
        assert result.latency.mean() > 0
        assert result.bytes_per_op > 0

    def test_store_run_mixed(self):
        store, perf = small_store()
        loaded = list(range(0, 2000, 2))
        inserts = list(range(1, 2000, 2))
        ops = generate_operations(YCSB_A, 400, loaded, inserts, seed=2)
        result = execute_ops(StoreAdapter(store), ops, perf)
        assert len(result.latency) == 400

    def test_index_run_scan(self):
        perf = PerfContext()
        index = BPlusTree(perf=perf)
        index.bulk_load([(i, i) for i in range(100)])
        ops = [Operation(OpKind.SCAN, 10, 5), Operation(OpKind.READ, 50)]
        result = execute_ops(IndexAdapter(index), ops, perf)
        assert len(result.latency) == 2

    def test_rmw_costs_more_than_read(self):
        store, perf = small_store()
        read = [Operation(OpKind.READ, 100)] * 50
        rmw = [Operation(OpKind.RMW, 100)] * 50
        read_lat = execute_ops(StoreAdapter(store), read, perf).latency
        rmw_lat = execute_ops(StoreAdapter(store), rmw, perf).latency
        assert rmw_lat.mean() > read_lat.mean()

    def test_measure_build(self):
        perf = PerfContext()
        index = BPlusTree(perf=perf)
        ns = measure_build(
            lambda: index.bulk_load([(i, i) for i in range(1000)]), perf
        )
        assert ns > 0


class TestUnifiedExecutor:
    """Bare indexes and the store go through one dispatch loop."""

    def test_every_op_kind_has_a_handler(self):
        assert set(OP_HANDLERS) == set(OpKind)

    def test_rmw_on_absent_key_writes_the_key_not_none(self):
        store, perf = small_store()
        absent = 3001  # odd keys were never loaded
        execute_ops(StoreAdapter(store), [Operation(OpKind.RMW, absent)], perf)
        assert store.get(absent) == absent  # previously persisted None

    def test_rmw_on_present_key_preserves_the_stored_value(self):
        store, perf = small_store()
        store.put(100, "precious")
        execute_ops(StoreAdapter(store), [Operation(OpKind.RMW, 100)], perf)
        assert store.get(100) == "precious"

    def test_scan_on_hash_index_raises_unsupported(self):
        perf = PerfContext()
        index = CCEH(perf=perf)
        for k in range(100):
            index.insert(k, k)
        ops = [Operation(OpKind.SCAN, 10, 5)]
        # Bare index: used to die with AttributeError (no .scan on CCEH).
        with pytest.raises(UnsupportedOperationError):
            execute_ops(IndexAdapter(index), ops, perf)
        # Same contract through the store path.
        store = ViperStore(CCEH(perf=perf), perf)
        store.bulk_load([(i, i) for i in range(100)])
        with pytest.raises(UnsupportedOperationError):
            execute_ops(StoreAdapter(store), ops, perf)

    def test_per_kind_latency_breakdown(self):
        store, perf = small_store()
        loaded = list(range(0, 2000, 2))
        inserts = list(range(1, 2000, 2))
        ops = generate_operations(YCSB_A, 400, loaded, inserts, seed=5)
        result = execute_ops(StoreAdapter(store), ops, perf)
        assert set(result.by_kind) == {op.kind for op in ops}
        assert sum(len(h) for h in result.by_kind.values()) == len(
            result.latency
        )
        summary = result.kind_summary()
        assert {row[0] for row in summary} == {
            kind.value for kind in result.by_kind
        }
        assert all(row[2] > 0 for row in summary)

    def test_adapters_expose_capabilities(self):
        perf = PerfContext()
        sorted_target = IndexAdapter(BPlusTree(perf=perf))
        hash_target = IndexAdapter(CCEH(perf=perf))
        assert sorted_target.supports_scan
        assert not hash_target.supports_scan
        store, _ = small_store()
        assert StoreAdapter(store).supports_scan

    def test_executor_feeds_profiler(self):
        store, perf = small_store()
        profiler = Profiler(perf)
        ops = [Operation(OpKind.READ, 100), Operation(OpKind.UPDATE, 100)]
        result = execute_ops(StoreAdapter(store), ops, perf, profiler)
        assert profiler.op_count == 2
        assert profiler.total_time_ns() == pytest.approx(result.latency.total)
        labels = {p.label for p in profiler.worst()}
        assert labels == {"read", "update"}

    def test_store_and_index_paths_share_semantics(self):
        # Identical op stream through both targets: both count every op.
        ops = [Operation(OpKind.READ, 10), Operation(OpKind.INSERT, 11)]
        perf = PerfContext()
        index = BPlusTree(perf=perf)
        index.bulk_load([(i, i) for i in range(0, 100, 2)])
        idx_lat = execute_ops(IndexAdapter(index), ops, perf).latency
        store, perf2 = small_store()
        store_lat = execute_ops(StoreAdapter(store), ops, perf2).latency
        assert len(idx_lat) == len(store_lat) == 2
        assert index.get(11) == 11
        assert store.get(11) == 11


class TestThreadScaling:
    """The simulator's projection, as Figs 12 and 14 call it."""

    def test_rows_shape(self):
        rows = thread_scaling(500.0, 900.0, 700.0, (1, 8, 32))
        assert [r["threads"] for r in rows] == [1, 8, 32]
        assert rows[0]["slowdown"] == 1.0
        # Read-only: no latch wait, retry or retrain stall to charge.
        for r in rows:
            assert r["latch_wait_share"] == r["retrain_stall_share"] == 0.0
            assert r["retries"] == r["retrain_stalls"] == 0
        # GIL-bound threads never beat the single-thread rate.
        assert rows[0]["gil_thread_mops"] == pytest.approx(2.0)
        assert max(r["gil_thread_mops"] for r in rows) == pytest.approx(2.0)

    def test_saturation_monotonic(self):
        # 4,000 bytes per 500 ns op is 8 GB/s a thread: the default
        # 25 GB/s pool saturates between 2 and 4 threads.
        rows = thread_scaling(
            500.0, 900.0, 4000.0, (1, 2, 4, 8, 16), concurrency=LOCK_FREE
        )
        slowdowns = [r["slowdown"] for r in rows]
        assert slowdowns == sorted(slowdowns)
        assert slowdowns[1] == 1.0 < slowdowns[2]
        tputs = [r["throughput_mops"] for r in rows]
        # Linear below saturation...
        assert tputs[1] == pytest.approx(2 * tputs[0], rel=0.01)
        # ...then flat at the pool's rate, 25 GB/s / 4,000 B = 6.25 Mops/s.
        for t in tputs[2:]:
            assert t == pytest.approx(25.0 / 4000.0 * 1e3, rel=0.01)
        assert tputs[-1] < tputs[-2] * 1.05


class TestBenchResult:
    def test_from_histogram(self):
        hist = LogHistogram()
        for v in (100.0, 200.0, 300.0):
            hist.record(v)
        result = BenchResult.from_histogram("X", "w", hist, 64.0, note="hi")
        assert result.ops == 3
        assert result.mean_ns == pytest.approx(200.0)
        assert result.throughput_mops == pytest.approx(5.0)  # 200 ns/op
        assert result.extra["note"] == "hi"
        assert len(result.row()) == 4


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header/rows consistently padded

    def test_write_result_creates_file(self, tmp_path, monkeypatch):
        import repro.bench.report as report

        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        path = report.write_result("unit_test", "hello table")
        assert os.path.exists(path)
        with open(path) as f:
            assert "hello table" in f.read()


class TestFormatBars:
    def test_scales_to_peak(self):
        from repro.bench import format_bars

        text = format_bars([("a", 10), ("b", 5)], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_title_and_unit(self):
        from repro.bench import format_bars

        text = format_bars([("x", 2.5)], title="T", unit=" Mops")
        assert text.splitlines()[0] == "T"
        assert "2.5 Mops" in text

    def test_rejects_empty_and_nonpositive(self):
        import pytest as _pytest

        from repro.bench import format_bars

        with _pytest.raises(ValueError):
            format_bars([])
        with _pytest.raises(ValueError):
            format_bars([("a", 0)])
