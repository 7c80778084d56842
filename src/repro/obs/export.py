"""Exporters: JSONL span files, Chrome trace JSON, Prometheus text.

Formats:

* **JSONL spans** — one :class:`~repro.obs.spans.Span` per line;
  round-trips through :func:`write_spans_jsonl` / :func:`read_spans_jsonl`.
  A lifecycle trace is the event-kind spans of a run written this way,
  and :func:`trace_summary` aggregates them per event type.
* **Chrome trace-event JSON** — :func:`write_chrome_trace` renders a
  span list as a ``chrome://tracing`` / Perfetto-loadable timeline, one
  process row per engine process, one thread lane per worker.
* **Prometheus text** — ``# HELP``/``# TYPE`` headers, counters/gauges
  verbatim (the tracer's exact lifecycle counts are the
  ``repro_trace_events_total{event=...}`` counter family), histograms
  rendered as summaries (``quantile`` labels plus ``_sum``/``_count``);
  label values are escaped.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.spans import Span, children_index, roots
from repro.perf.histogram import LogHistogram


def trace_summary(spans: Iterable[Span]) -> Dict[str, dict]:
    """Aggregate the event-kind spans per event type: count, keys, cost,
    indexes (other kinds are skipped).

    Computed from the *records* (not the exact counters), so a summary
    of spans written to JSONL and a summary of the parsed file are
    identical — the round-trip contract the tests pin.
    """
    out: Dict[str, dict] = {}
    for span in spans:
        if span.kind != "event":
            continue
        attrs = span.attrs
        agg = out.get(attrs["etype"])
        if agg is None:
            agg = out[attrs["etype"]] = {
                "events": 0,
                "keys": 0,
                "count": 0,
                "cost_ns": 0.0,
                "by_index": {},
            }
        agg["events"] += 1
        agg["keys"] += attrs["keys"]
        agg["count"] += attrs["count"]
        agg["cost_ns"] += attrs["cost_ns"]
        by_index = agg["by_index"]
        by_index[attrs["index"]] = by_index.get(attrs["index"], 0) + 1
    return out


# ------------------------------------------------------------ JSONL spans


def write_spans_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write ``spans`` to ``path`` as JSONL; returns the span count."""
    n = 0
    with open(path, "w") as fp:
        for span in spans:
            fp.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
            n += 1
    return n


def read_spans_jsonl(path: str) -> List[Span]:
    """Parse a JSONL span file back into :class:`Span` records."""
    spans: List[Span] = []
    with open(path) as fp:
        for line in fp:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# ------------------------------------------------------ Chrome trace-event


def _span_pid(span: Span) -> int:
    """Process row: parent/simulator = 0, worker ``w<k>`` = k + 1."""
    prefix = span.span_id.split("-", 1)[0]
    if prefix.startswith("w") and prefix[1:].isdigit():
        return int(prefix[1:]) + 1
    return 0


def _span_tid(span: Span) -> int:
    """Thread lane inside the process row: request/batch work on lane 0,
    shard shipments on a per-worker lane so skew is visible at a glance."""
    if span.kind == "shard" and span.worker >= 0:
        return 1 + span.worker
    if span.kind in ("request", "batch") and span.worker >= 0:
        return 1 + span.worker  # sim ops: one lane per simulated thread
    return 0


def _align(spans: List[Span]) -> Dict[str, float]:
    """Per-span timestamp shifts nesting children into their parents.

    On Linux every process shares ``CLOCK_MONOTONIC``, so shifts are 0;
    on platforms where per-process ``perf_counter`` epochs differ, a
    child subtree starting outside its parent is slid to the parent's
    start so the rendered tree still nests.
    """
    index = children_index(spans)
    shift: Dict[str, float] = {}

    def visit(span: Span, offset: float) -> None:
        shift[span.span_id] = offset
        start = span.start_ns + offset
        end = span.end_ns + offset
        for child in index.get(span.span_id, ()):
            child_off = offset
            if child.start_ns + offset < start or child.start_ns + offset > end:
                child_off = offset + (start - child.start_ns)
            visit(child, child_off)

    for root in roots(spans):
        visit(root, 0.0)
    return shift


def chrome_trace_events(spans: Iterable[Span], align: bool = True) -> dict:
    """Render spans as a Chrome trace-event document (dict, JSON-ready).

    Interval spans become ``"X"`` complete events; event-kind spans
    become ``"i"`` instants.  Open the written file in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    spans = list(spans)
    shift = _align(spans) if align else {}
    events: List[dict] = []
    procs: Dict[int, str] = {}
    for span in spans:
        offset = shift.get(span.span_id, 0.0)
        pid = _span_pid(span)
        procs.setdefault(
            pid, "parent" if pid == 0 else f"worker {pid - 1}"
        )
        record = {
            "name": span.name,
            "cat": span.kind,
            "pid": pid,
            "tid": _span_tid(span),
            "ts": (span.start_ns + offset) / 1e3,  # trace-event ts is us
            "args": dict(
                span.attrs,
                span_id=span.span_id,
                parent_id=span.parent_id,
                clock=span.clock,
            ),
        }
        if span.kind == "event":
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        else:
            record["ph"] = "X"
            record["dur"] = span.dur_ns / 1e3
        events.append(record)
    for pid, label in sorted(procs.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: str) -> int:
    """Write spans to ``path`` as Chrome trace JSON; returns event count."""
    doc = chrome_trace_events(spans)
    with open(path, "w") as fp:
        json.dump(doc, fp)
    return len(doc["traceEvents"])


# ------------------------------------------------- Prometheus exposition

#: Quantiles a histogram family exposes in the text format.
SUMMARY_QUANTILES = (0.5, 0.99, 0.999)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


#: ``# HELP`` text for the metric families the library itself emits.
HELP_TEXT: Dict[str, str] = {
    "repro_op_latency_ns": "Simulated per-operation latency (ns).",
    "repro_trace_events_total": (
        "Lifecycle events emitted, by event type (the exact count, "
        "before sampling)."
    ),
    "repro_worker_cmd_wall_ns": "Worker-side wall time per command (ns).",
}

_GENERIC_HELP = "repro metric (no description registered)."


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry's metrics as Prometheus text."""
    lines: List[str] = []
    seen_types = set()
    for name, kind, labels, instrument in registry.collect():
        if name not in seen_types:
            seen_types.add(name)
            prom_kind = "summary" if kind == "histogram" else kind
            lines.append(f"# HELP {name} {HELP_TEXT.get(name, _GENERIC_HELP)}")
            lines.append(f"# TYPE {name} {prom_kind}")
        if isinstance(instrument, (Counter, Gauge)):
            lines.append(f"{name}{_labels_text(labels)} {_fmt(instrument.value)}")
        elif isinstance(instrument, LogHistogram):
            for q in SUMMARY_QUANTILES:
                labelled = dict(labels, quantile=str(q))
                value = instrument.quantile(q) if len(instrument) else "NaN"
                lines.append(f"{name}{_labels_text(labelled)} {_fmt(value)}")
            lines.append(
                f"{name}_sum{_labels_text(labels)} {_fmt(instrument.total)}"
            )
            lines.append(f"{name}_count{_labels_text(labels)} {instrument.count}")
    return "\n".join(lines) + ("\n" if lines else "")
