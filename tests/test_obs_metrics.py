"""Histogram backend, metrics registry, Prometheus export, profiler batching."""

import math
import random

import pytest

from repro.obs import Counter, Gauge, MetricsRegistry, Tracer, prometheus_text
from repro.obs.trace import EventType
from repro.perf import LogHistogram, PerfContext
from repro.perf.breakdown import Profiler
from repro.perf.events import Event


def _exact_nearest_rank(samples, q):
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


class TestLogHistogram:
    def test_bucket_roundtrip(self):
        for value in (1e-9, 0.5, 1.0, 3.7, 1024.0, 1e12):
            b = LogHistogram.bucket_of(value)
            upper = LogHistogram.bucket_upper(b)
            assert value <= upper <= value * (1.0 + LogHistogram.RELATIVE_ERROR)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999, 1.0])
    def test_quantile_error_bound_random(self, q):
        rng = random.Random(17)
        samples = [rng.lognormvariate(6.0, 2.0) for _ in range(5_000)]
        hist = LogHistogram()
        for s in samples:
            hist.record(s)
        exact = _exact_nearest_rank(samples, q)
        reported = hist.quantile(q)
        assert exact <= reported <= exact * (1.0 + LogHistogram.RELATIVE_ERROR)

    def test_all_equal_samples(self):
        hist = LogHistogram()
        hist.record(42.0, n=1_000)
        # All mass in one bucket; clamping to [min, max] makes it exact.
        for q in (0.01, 0.5, 0.999, 1.0):
            assert hist.quantile(q) == 42.0
        assert hist.mean() == 42.0
        assert hist.min() == hist.max() == 42.0

    def test_single_value(self):
        hist = LogHistogram()
        hist.record(3.25)
        assert hist.quantile(0.5) == 3.25
        assert len(hist) == 1

    def test_zero_and_negative_values_counted(self):
        hist = LogHistogram()
        hist.record(0.0)
        hist.record(-1.0)
        hist.record(10.0)
        assert hist.count == 3
        # Rank 1 and 2 land in the zero bucket; its edge clamps to min.
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == 10.0

    def test_max_is_exact(self):
        hist = LogHistogram()
        for v in (1.0, 77.3, 12.5):
            hist.record(v)
        assert hist.quantile(1.0) == 77.3
        assert hist.max() == 77.3

    def test_merge_equals_combined_recording(self):
        rng = random.Random(3)
        xs = [rng.uniform(1, 1e6) for _ in range(800)]
        ys = [rng.uniform(1, 1e6) for _ in range(700)]
        a, b, both = LogHistogram(), LogHistogram(), LogHistogram()
        for x in xs:
            a.record(x)
            both.record(x)
        for y in ys:
            b.record(y)
            both.record(y)
        a.merge(b)
        assert a.count == both.count
        assert a.total == pytest.approx(both.total)
        for q in (0.5, 0.99, 1.0):
            assert a.quantile(q) == both.quantile(q)

    def test_weighted_record_equals_repeated_records(self):
        rng = random.Random(11)
        weighted, repeated = LogHistogram(), LogHistogram()
        for _ in range(300):
            value, n = rng.lognormvariate(6.0, 2.0), rng.randrange(1, 1025)
            weighted.record(value, n)
            for _ in range(n):
                repeated.record(value)
        assert weighted.count == repeated.count
        assert list(weighted.buckets()) == list(repeated.buckets())
        assert weighted.min() == repeated.min()
        assert weighted.max() == repeated.max()
        for q in (0.001, 0.5, 0.9, 0.99, 0.999, 1.0):
            assert weighted.quantile(q) == repeated.quantile(q)
        assert weighted.total == pytest.approx(repeated.total, rel=1e-12)

    def test_buckets_iterate_ascending(self):
        hist = LogHistogram()
        for v in (100.0, 1.0, 50.0, 1.0):
            hist.record(v)
        edges = [edge for edge, _ in hist.buckets()]
        assert edges == sorted(edges)
        assert sum(n for _, n in hist.buckets()) == 4

    def test_empty_raises(self):
        hist = LogHistogram()
        with pytest.raises(ValueError):
            hist.quantile(0.5)
        with pytest.raises(ValueError):
            hist.mean()

    def test_bad_quantile_rejected(self):
        hist = LogHistogram()
        hist.record(1.0)
        for q in (0.0, -0.5, 1.01):
            with pytest.raises(ValueError):
                hist.quantile(q)


class TestMetricsRegistry:
    def test_counter_identity_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", kind="read").inc(3)
        reg.counter("ops_total", kind="insert").inc(5)
        # Same (name, labels) -> same instrument.
        assert reg.counter("ops_total", kind="read").value == 3
        assert reg.counter("ops_total", kind="insert").value == 5
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("x_total", a="1", b="2").inc()
        assert reg.counter("x_total", b="2", a="1").value == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")
        with pytest.raises(ValueError):
            reg.histogram("thing")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_name", **{"bad-label": "x"})

    def test_counter_monotone(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(4)
        g.inc(1)
        assert g.value == 7

    def test_collect_yields_every_series(self):
        reg = MetricsRegistry()
        reg.counter("a_total", k="1")
        reg.gauge("b")
        reg.histogram("c_ns", k="2").record(5.0)
        rows = list(reg.collect())
        assert len(rows) == 3
        kinds = {name: kind for name, kind, _, _ in rows}
        assert kinds == {"a_total": "counter", "b": "gauge", "c_ns": "histogram"}


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_bytes_total", target="alex", kind="read").inc(42)
        reg.gauge("repro_leaves").set(7.0)
        text = prometheus_text(reg)
        assert "# TYPE repro_bytes_total counter" in text
        assert 'repro_bytes_total{kind="read",target="alex"} 42.0' in text
        assert "repro_leaves 7.0" in text

    def test_histogram_rendered_as_summary(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_op_latency_ns", kind="read")
        for v in (100.0, 200.0, 300.0):
            hist.record(v)
        text = prometheus_text(reg)
        assert "# TYPE repro_op_latency_ns summary" in text
        assert 'quantile="0.5"' in text
        assert 'quantile="0.999"' in text
        assert 'repro_op_latency_ns_sum{kind="read"} 600.0' in text
        assert 'repro_op_latency_ns_count{kind="read"} 3' in text

    def test_tracer_counts_exported(self):
        tracer = Tracer(rate=0.0)  # counts survive even with keep-nothing
        for _ in range(9):
            tracer.emit(EventType.RETRAIN, 0.0)
        text = prometheus_text(tracer.metrics)
        assert 'repro_trace_events_total{event="retrain"} 9.0' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", path='a"b\\c').inc()
        text = prometheus_text(reg)
        assert 'path="a\\"b\\\\c"' in text

    def test_help_lines_precede_type_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_trace_events_total", event="retrain").inc()
        reg.histogram("repro_op_latency_ns", kind="read").record(5.0)
        reg.counter("repro_custom_total").inc()
        text = prometheus_text(reg)
        lines = text.splitlines()
        for family in ("repro_trace_events_total", "repro_op_latency_ns"):
            help_i = lines.index(
                next(l for l in lines if l.startswith(f"# HELP {family} "))
            )
            assert lines[help_i + 1].startswith(f"# TYPE {family} ")
        # Unknown families still get a HELP line (generic text).
        assert "# HELP repro_custom_total repro metric" in text

    def test_tracer_section_has_help_and_escaped_labels(self):
        tracer = Tracer(rate=0.0)
        tracer.emit('odd"event\\', 0.0)
        text = prometheus_text(tracer.metrics)
        # The exported value is the exact count, not the sampled one.
        assert "# HELP repro_trace_events_total " in text
        assert "before sampling" in text
        assert "# TYPE repro_trace_events_total counter" in text
        assert 'event="odd\\"event\\\\"' in text

    def test_help_emitted_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("repro_bytes_total", kind="read").inc()
        reg.counter("repro_bytes_total", kind="write").inc()
        text = prometheus_text(reg)
        assert text.count("# HELP repro_bytes_total") == 1
        assert text.count("# TYPE repro_bytes_total") == 1



class TestProfilerBatchedOps:
    """Satellite 2: batched measurements split across the run length."""

    def _measured(self, perf, hops, compares):
        mark = perf.begin()
        perf.charge(Event.DRAM_HOP, hops)
        perf.charge(Event.COMPARE, compares)
        return perf.end(mark)

    def test_ops_split_amortises_heap_and_count(self):
        perf = PerfContext()
        profiler = Profiler(perf)
        measured = self._measured(perf, hops=80, compares=160)
        profiler.record_measured("put", measured, ops=8)
        assert profiler.op_count == 8
        # Aggregate attribution stays exact...
        assert profiler.total.dram_hop == 80
        assert profiler.total.compare == 160
        # ...while the worst-op entry is per-operation.
        worst = profiler.worst(1)[0]
        assert worst.time_ns == pytest.approx(measured.time_ns / 8)
        assert worst.counters.dram_hop == pytest.approx(10)
        assert worst.counters.compare == pytest.approx(20)

    def test_batched_run_comparable_to_scalar_ops(self):
        perf = PerfContext()
        profiler = Profiler(perf)
        for _ in range(4):
            profiler.record_measured("get", self._measured(perf, 10, 5))
        big = self._measured(perf, 40, 20)
        profiler.record_measured("get_many", big, ops=4)
        assert profiler.op_count == 8
        times = sorted(p.time_ns for p in profiler.worst())
        # The amortised batch entries sit at the same per-op scale as the
        # scalar entries instead of one 4x outlier.
        assert max(times) <= min(times) * 1.01

    def test_mean_time_uses_per_op_units(self):
        perf = PerfContext()
        profiler = Profiler(perf)
        measured = self._measured(perf, 100, 0)
        profiler.record_measured("batch", measured, ops=10)
        assert profiler.mean_time_ns() == pytest.approx(measured.time_ns / 10)
