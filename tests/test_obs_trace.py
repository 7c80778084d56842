"""Lifecycle tracing: emission contracts, sampling, exporter round-trips.

A :class:`Tracer` counts every event exactly in the
``repro_trace_events_total`` counter of its registry and records each
sampled one as an event span in its span recorder.
"""

import random

import pytest

from repro import registry
from repro.bench.runner import IndexAdapter, execute_ops
from repro.obs import (
    EventType,
    Tracer,
    event_counts,
    read_spans_jsonl,
    trace_summary,
    write_spans_jsonl,
)
from repro.perf import PerfContext
from repro.workloads.datasets import DATASETS
from repro.workloads.ycsb import (
    OpKind,
    READ_ONLY,
    WRITE_ONLY,
    WorkloadSpec,
    generate_operations,
    split_load_and_inserts,
)

#: Indexes whose write path refits models, so a write-heavy run must
#: produce RETRAIN events that match their internal retrain counter.
RETRAINING = [
    s.cli_name
    for s in registry.specs()
    if s.category in ("learned-updatable", "extension")
]
#: Updatable indexes without a model to retrain; they must still emit
#: *some* lifecycle event (splits, flushes, allocations) under writes.
STRUCTURAL = [
    s.cli_name
    for s in registry.specs()
    if s.category in ("traditional", "hash")
]


def _records(tracer, etype=None):
    """The tracer's sampled event spans (of one type, if given)."""
    return [
        s
        for s in tracer.spans.spans
        if s.kind == "event" and etype in (None, s.attrs["etype"])
    ]


def _write_heavy_run(cli_name: str, n_load=1_000, n_ops=3_000, rate=1.0):
    spec = registry.resolve(cli_name)
    perf = PerfContext()
    tracer = Tracer(rate=rate, seed=7)
    perf.tracer = tracer
    index = spec.build(perf)
    keys = DATASETS["ycsb"](n_load * 5, seed=3)
    load, insert_pool = split_load_and_inserts(keys, 0.2, seed=3)
    index.bulk_load([(k, k) for k in load])
    ops = generate_operations(WRITE_ONLY, n_ops, load, insert_pool, seed=3)
    execute_ops(IndexAdapter(index), ops, perf)
    return index, tracer


class TestTracerBasics:
    def test_emit_and_count(self):
        tracer = Tracer()
        perf = PerfContext()
        perf.tracer = tracer
        perf.trace(EventType.RETRAIN, index="X", keys=10)
        perf.trace(EventType.RETRAIN, index="X", keys=20)
        perf.trace(EventType.LEAF_SPLIT, index="X")
        assert tracer.count(EventType.RETRAIN) == 2
        assert tracer.count(EventType.LEAF_SPLIT) == 1
        assert tracer.count(EventType.BUFFER_FLUSH) == 0
        assert sum(event_counts(tracer.metrics).values()) == 3
        records = _records(tracer)
        assert [e.attrs["etype"] for e in records] == [
            EventType.RETRAIN,
            EventType.RETRAIN,
            EventType.LEAF_SPLIT,
        ]
        assert [e.name for e in records] == [
            "event:retrain", "event:retrain", "event:leaf_split"
        ]
        assert [e.span_id for e in records] == ["t-1", "t-2", "t-3"]
        assert [e.attrs["keys"] for e in records] == [10, 20, 0]
        assert all(e.kind == "event" and e.clock == "wall" for e in records)

    def test_no_tracer_is_noop(self):
        perf = PerfContext()
        perf.trace(EventType.RETRAIN, index="X")  # must not raise

    def test_timestamps_use_simulated_clock(self):
        from repro.perf.events import Event

        perf = PerfContext()
        perf.tracer = Tracer()
        perf.charge(Event.DRAM_HOP, 10)
        perf.trace(EventType.RETRAIN)
        (record,) = _records(perf.tracer)
        assert record.attrs["sim_ts_ns"] == pytest.approx(perf.elapsed_ns())

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(rate=1.5)
        with pytest.raises(ValueError):
            Tracer(rate=-0.1)


class TestSampling:
    def test_counts_exact_under_sampling(self):
        tracer = Tracer(rate=0.25, seed=11)
        for _ in range(4_000):
            tracer.emit(EventType.NODE_ALLOC, 0.0)
        assert tracer.count(EventType.NODE_ALLOC) == 4_000
        sampled = len(_records(tracer, EventType.NODE_ALLOC))
        assert sampled == len(tracer.spans.spans)
        # Honours the rate: a binomial(4000, 0.25) stays well inside this.
        assert 700 < sampled < 1_300

    def test_rate_zero_counts_but_keeps_nothing(self):
        tracer = Tracer(rate=0.0)
        for _ in range(100):
            tracer.emit(EventType.RETRAIN, 0.0)
        assert tracer.count(EventType.RETRAIN) == 100
        assert tracer.spans.spans == []

    def test_sampling_deterministic_for_seed(self):
        def run(seed):
            tracer = Tracer(rate=0.5, seed=seed)
            for i in range(500):
                tracer.emit(EventType.RETRAIN, float(i))
            return [e.attrs["sim_ts_ns"] for e in _records(tracer)]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_index_counters_exact_even_when_sampled(self):
        index, tracer = _write_heavy_run("alex", rate=0.1)
        assert tracer.count(EventType.RETRAIN) == index.stats().retrain_count
        assert len(_records(tracer)) < sum(event_counts(tracer.metrics).values())


class TestEveryIndexEmits:
    @pytest.mark.parametrize("cli_name", RETRAINING)
    def test_retraining_indexes_emit_retrain(self, cli_name):
        index, tracer = _write_heavy_run(cli_name)
        stats = index.stats()
        assert stats.retrain_count > 0, "write-heavy run must trigger retrains"
        assert tracer.count(EventType.RETRAIN) == stats.retrain_count

    @pytest.mark.parametrize("cli_name", STRUCTURAL)
    def test_structural_indexes_emit_lifecycle_events(self, cli_name):
        _, tracer = _write_heavy_run(cli_name)
        assert sum(event_counts(tracer.metrics).values()) > 0

    def test_composed_split_counter_matches_trace(self):
        index, tracer = _write_heavy_run("alex")
        assert (
            tracer.count(EventType.LEAF_SPLIT)
            == index.stats().extra["leaf_splits"]
        )


class TestAcceptance100k:
    """The PR's acceptance run: 100k mixed YCSB ops at sampling 1.0."""

    MIXED = WorkloadSpec("mixed-rw", read=0.6, insert=0.4)

    @pytest.mark.parametrize("cli_name", ["alex", "pgm"])
    def test_trace_counts_match_internal_counters(self, cli_name, tmp_path):
        spec = registry.resolve(cli_name)
        perf = PerfContext()
        tracer = Tracer(rate=1.0)
        perf.tracer = tracer
        path = str(tmp_path / "trace.jsonl")
        index = spec.build(perf)
        keys = DATASETS["ycsb"](120_000, seed=42)
        load, insert_pool = split_load_and_inserts(keys, 0.25, seed=42)
        index.bulk_load([(k, k) for k in load])
        ops = generate_operations(
            self.MIXED, 100_000, load, insert_pool, seed=42
        )
        execute_ops(IndexAdapter(index), ops, perf)
        # The ``repro report --trace-out`` format: the event spans.
        write_spans_jsonl(_records(tracer), path)

        stats = index.stats()
        events = [e.attrs for e in read_spans_jsonl(path)]
        retrains = sum(
            1
            for e in events
            if e["etype"] == EventType.RETRAIN and e["index"] == index.name
        )
        splits = sum(
            1
            for e in events
            if e["etype"] == EventType.LEAF_SPLIT and e["index"] == index.name
        )
        assert stats.retrain_count > 0
        assert retrains == stats.retrain_count
        assert retrains == tracer.count(EventType.RETRAIN)
        expected_splits = stats.extra.get("leaf_splits", 0)
        assert splits == expected_splits
        assert splits == tracer.count(EventType.LEAF_SPLIT)


class TestExportRoundTrip:
    def _events(self):
        tracer = Tracer()
        tracer.emit(EventType.RETRAIN, 10.0, index="A", keys=5, cost_ns=3.5)
        tracer.emit(
            EventType.LEAF_SPLIT,
            20.5,
            index="A",
            leaf=3,
            key_lo=1,
            key_hi=99,
            keys=7,
            count=2,
            reason="model_refit_split",
        )
        tracer.emit(EventType.BUFFER_FLUSH, 30.0, index="A", keys=12)
        return _records(tracer)

    def test_jsonl_round_trip_identical_records(self, tmp_path):
        events = self._events()
        path = str(tmp_path / "t.jsonl")
        assert write_spans_jsonl(events, path) == 3
        parsed = read_spans_jsonl(path)
        assert parsed == events
        split = parsed[1].attrs
        assert (split["leaf"], split["key_lo"], split["key_hi"]) == (3, 1, 99)
        assert (split["count"], split["reason"]) == (2, "model_refit_split")

    def test_round_trip_summary_identical(self, tmp_path):
        events = self._events()
        path = str(tmp_path / "t.jsonl")
        write_spans_jsonl(events, path)
        summary = trace_summary(read_spans_jsonl(path))
        assert summary == trace_summary(events)
        assert summary[EventType.RETRAIN] == {
            "events": 1, "keys": 5, "count": 1, "cost_ns": 3.5,
            "by_index": {"A": 1},
        }


class TestStoreEvents:
    def test_pmem_page_alloc_traced(self):
        from repro.store.pmem import PMemDevice

        perf = PerfContext()
        tracer = Tracer()
        perf.tracer = tracer
        device = PMemDevice(slots_per_page=4, perf=perf)
        device.allocate_page()
        device.allocate_slots(9)
        allocs = _records(tracer, EventType.NODE_ALLOC)
        assert [a.attrs["count"] for a in allocs] == [1, 3]


class TestRunnerIntegration:
    def test_metrics_and_progress_wiring(self, tmp_path):
        import io

        from repro.obs import ProgressReporter
        from repro.traditional.btree import BPlusTree

        perf = PerfContext()
        index = BPlusTree(perf=perf)
        index.bulk_load([(i, i) for i in range(0, 2_000, 2)])
        rng = random.Random(0)
        keys = [rng.randrange(0, 2_000) for _ in range(500)]
        ops = generate_operations(
            READ_ONLY, 500, keys, None, seed=0
        )
        stream = io.StringIO()
        progress = ProgressReporter(total=500, every=100, stream=stream)
        result = execute_ops(IndexAdapter(index), ops, perf, progress=progress)
        hist = result.metrics.histogram(
            "repro_op_latency_ns", target=index.name, kind="read"
        )
        assert hist is result.by_kind[OpKind.READ]
        assert hist.count == len(result.latency) == 500
        # The histogram's count is the op count: no counter repeats it.
        families = {name for name, *_ in result.metrics.collect()}
        assert families == {"repro_bytes_total", "repro_op_latency_ns"}
        out = stream.getvalue()
        assert "ops:" in out and "done" in out

    def test_progress_prints_the_final_count_once(self):
        import io

        from repro.obs import ProgressReporter

        stream = io.StringIO()
        progress = ProgressReporter(total=500, every=100, stream=stream)
        for done in range(100, 501, 100):
            progress.maybe(done, PerfContext())
        progress.finish(500, PerfContext())
        lines = stream.getvalue().splitlines()
        assert [line.split()[1] for line in lines] == [
            "100/500", "200/500", "300/500", "400/500", "500/500"
        ]
        assert lines[-1].endswith(" done")
