"""Structural observability: lifecycle tracing, spans, metrics, exporters.

The simulated-hardware substrate (:mod:`repro.perf`) answers "how much
did it cost"; this package answers "what happened and when":

* :mod:`repro.obs.trace` — typed lifecycle events (retrains, splits,
  flushes, allocations, GC) on the simulated clock.  A seeded
  :class:`Tracer` attached to a ``PerfContext`` counts each one exactly
  in a metric counter and records the sampled ones as event spans.
* :mod:`repro.obs.spans` — causal span trees (request -> batch -> shard
  -> worker -> event) with cross-process ids, for the parallel engine
  and the discrete-event simulator.
* :mod:`repro.obs.health` — per-worker reply books (commands, busy wall
  time, last reply), stall detection, and flight-recorder postmortems
  for the parallel engine.
* :mod:`repro.obs.attribution` — tail-latency decomposition of span
  trees (queue / serialize / skew / struct / work).
* :mod:`repro.obs.metrics` — counters, gauges, and log-bucketed
  histograms with Prometheus-style label sets.
* :mod:`repro.obs.export` — JSONL span files (a lifecycle trace is the
  event spans), Chrome trace-event JSON, and Prometheus text.
* :mod:`repro.obs.progress` — live progress lines for long runs, plus
  the :class:`EngineTopView` worker-health live view.
* :mod:`repro.obs.regress` — the ``BENCH_*.json`` cross-PR diff tool
  (``python -m repro.obs.regress``).

See ``docs/observability.md`` for the event taxonomy and usage.
"""

from repro.obs.trace import EventType, Tracer, event_counts
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.spans import (
    Span,
    SpanRecorder,
    children_index,
    roots,
    subtree_events,
    summarize_spans,
    walk,
)
from repro.obs.health import FlightEntry, HealthMonitor, WorkerHealth, format_flight
from repro.obs.attribution import (
    AttributionResult,
    RequestAttribution,
    attribute_request,
    attribute_spans,
)
from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    read_spans_jsonl,
    trace_summary,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.progress import EngineTopView, ProgressReporter

__all__ = [
    "EventType",
    "Tracer",
    "event_counts",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "children_index",
    "roots",
    "subtree_events",
    "summarize_spans",
    "walk",
    "FlightEntry",
    "HealthMonitor",
    "WorkerHealth",
    "format_flight",
    "AttributionResult",
    "RequestAttribution",
    "attribute_request",
    "attribute_spans",
    "chrome_trace_events",
    "prometheus_text",
    "read_spans_jsonl",
    "trace_summary",
    "write_chrome_trace",
    "write_spans_jsonl",
    "EngineTopView",
    "ProgressReporter",
]
