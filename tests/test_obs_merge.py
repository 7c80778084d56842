"""Observability merges must be drain-order independent.

``drain_obs`` folds each worker's ``{metrics, spans}`` payload into the
parent's instances in whatever order the workers reply.  That order is
scheduling noise, so the merged state — counts, rendered metrics, span
summaries — must be identical however the payloads are permuted.  (Record *lists* may be ordered differently;
every aggregate view must not be.)
"""

import itertools

import pytest

from repro.concurrency import parallel_sharded_index
from repro.obs import (
    EventType,
    MetricsRegistry,
    SpanRecorder,
    Tracer,
    event_counts,
    prometheus_text,
    summarize_spans,
    trace_summary,
)
from repro.registry import specs
from repro.workloads import uniform_keys


def _merge(payloads):
    """Replicate drain_obs's merge into fresh parent-side instances."""
    metrics = MetricsRegistry()
    spans = SpanRecorder(rate=1.0, seed=0, prefix="p")
    for p in payloads:
        metrics.merge_from(p["metrics"])
        spans.absorb(p["spans"])
    return metrics, spans


def _state(metrics, spans):
    """Every aggregate view a caller can observe after the merge."""
    return (
        event_counts(metrics),
        trace_summary(spans.spans),
        prometheus_text(metrics),
        sorted(s.span_id for s in spans.spans),
        summarize_spans(spans.spans),
    )


@pytest.fixture(scope="module")
def worker_payloads():
    """Real per-worker obs payloads from a traced 3-worker run."""
    spec = next(s for s in specs() if s.name == "PGM")
    keys = uniform_keys(600, seed=11)
    engine = parallel_sharded_index(
        spec, 3, trace_rate=1.0, span_rate=1.0, seed=7
    )
    try:
        engine.bulk_load([(k, k) for k in keys[:500]])
        engine.get_many(keys)
        engine.insert_many([(k, k) for k in keys[500:]])
        payloads = engine._broadcast(("obs",))
    finally:
        engine.close()
    assert len(payloads) == 3
    return payloads


def test_payloads_carry_every_obs_channel(worker_payloads):
    for p in worker_payloads:
        assert set(p) == {"metrics", "spans"}
        assert p["spans"]
        names = {name for name, _k, _l, _i in p["metrics"].collect()}
        assert "repro_worker_cmd_wall_ns" in names
    # Lifecycle events fire on retrain thresholds, so not every worker
    # necessarily saw one — but the run as a whole must have.
    assert any(event_counts(p["metrics"]) for p in worker_payloads)


def test_every_drain_order_yields_identical_state(worker_payloads):
    reference = _state(*_merge(worker_payloads))
    for perm in itertools.permutations(worker_payloads):
        assert _state(*_merge(perm)) == reference


def test_merged_counts_are_the_sum_of_the_parts(worker_payloads):
    metrics, spans = _merge(worker_payloads)
    merged = event_counts(metrics)
    assert merged
    for etype, n in merged.items():
        assert n == sum(
            event_counts(p["metrics"]).get(etype, 0) for p in worker_payloads
        )
    assert len(spans.spans) == sum(len(p["spans"]) for p in worker_payloads)


def test_span_ids_stay_unique_across_workers(worker_payloads):
    _, spans = _merge(worker_payloads)
    ids = [s.span_id for s in spans.spans]
    assert len(ids) == len(set(ids))
    prefixes = {i.split("-", 1)[0] for i in ids}
    assert prefixes == {"w0", "w1", "w2"}


def test_synthetic_tracer_absorb_commutes():
    def tracer_metrics(emits):
        tracer = Tracer(rate=0.0)
        for etype in emits:
            tracer.emit(etype, 0.0)
        return tracer.metrics

    a = tracer_metrics([EventType.RETRAIN] * 3 + [EventType.LATCH_WAIT])
    b = tracer_metrics([EventType.RETRAIN] * 2)
    ab, ba = MetricsRegistry(), MetricsRegistry()
    ab.merge_from(a)
    ab.merge_from(b)
    ba.merge_from(b)
    ba.merge_from(a)
    assert event_counts(ab) == event_counts(ba) == {
        "retrain": 5, "latch_wait": 1
    }


def test_synthetic_metrics_merge_commutes():
    def registry(n):
        reg = MetricsRegistry()
        reg.counter("repro_trace_events_total", event="retrain").inc(n + 1)
        reg.histogram("repro_worker_cmd_wall_ns", worker=str(n)).record(1e6 * n + 1)
        return reg

    ab, ba = MetricsRegistry(), MetricsRegistry()
    ab.merge_from(registry(0))
    ab.merge_from(registry(1))
    ba.merge_from(registry(1))
    ba.merge_from(registry(0))
    assert prometheus_text(ab) == prometheus_text(ba)
