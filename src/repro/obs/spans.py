"""Causal span tracing: request -> batch -> shard -> worker -> event.

The tracer counts which lifecycle events fired; this module records
"*whose* request paid for them".  A :class:`Span` is a named
interval with an explicit parent, so one logical request through the
process-parallel serving engine becomes a tree:

* **request** — one public API call on the engine (``get_many``,
  ``insert_many``, ``scan_many``, ``bulk_load``, a scalar ``get``...).
* **batch** — one shipped chunk of the request (the engine macro-chunks
  large batches at the shared-memory segment capacity).
* **shard** — one worker shipment inside a chunk, measured parent-side
  from send to reply (transport + queueing + worker time).
* **worker** — the command execution inside the worker process,
  measured worker-side (ships back through ``drain_obs``).
* **event** — a sampled structural lifecycle event (RETRAIN,
  LATCH_WAIT, NODE_ALLOC...), recorded by a
  :class:`~repro.obs.trace.Tracer` under the recorder's
  :attr:`~SpanRecorder.current` span (the worker span being served).

Sampling is **head-based** and reuses the Tracer's seed discipline:
the decision is made once per request from a seeded
``random.Random`` — either the whole tree is recorded or none of it —
and :attr:`SpanRecorder.requests` counts every request exactly at any
rate, so span counts can be pinned against untraced counters.

Span ids are deterministic ``"<prefix>-<seq>"`` strings; each process
uses its own prefix (engine ``p``, tracer ``t``, worker ``w3``,
simulator ``sim``),
so ids stay globally unique after a cross-process
:meth:`SpanRecorder.absorb` without any coordination.

Wall timestamps come from ``time.perf_counter()``.  On Linux that is
``CLOCK_MONOTONIC``, which is shared across processes, so parent and
worker spans nest naturally; exporters re-align children into their
parents when a platform's per-process epochs disagree
(:func:`repro.obs.export.chrome_trace_events`).
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: The span taxonomy, outermost first (see module docstring); the
#: engine's supervisor adds ``recovery`` episodes beside the requests.
SPAN_KINDS = ("request", "batch", "shard", "worker", "recovery", "event")


def _now_ns() -> float:
    return time.perf_counter() * 1e9


@dataclass
class Span:
    """One named interval in a request's causal tree."""

    #: Globally unique id, ``"<process prefix>-<seq>"``.
    span_id: str
    #: Parent span id; ``None`` for request roots (and for event spans
    #: whose emitting command was not part of a sampled request).
    parent_id: Optional[str]
    #: Human-readable name, e.g. ``"request:get_many"``, ``"shard:1"``.
    name: str
    #: One of :data:`SPAN_KINDS`.
    kind: str
    #: Start timestamp in nanoseconds (wall or simulated per ``clock``).
    start_ns: float
    #: Duration in nanoseconds (0 for point events).
    dur_ns: float = 0.0
    #: ``"wall"`` (perf_counter) or ``"sim"`` (the simulated clock).
    clock: str = "wall"
    #: Worker process that executed this span (-1 = the parent process).
    worker: int = -1
    #: Free-form payload (op counts, sim costs, event reasons...).
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.dur_ns

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(**d)


class SpanRecorder:
    """Collector of :class:`Span` records with head-based sampling.

    Parameters
    ----------
    rate:
        Probability a *request* (span-tree root) is recorded; children
        inherit the root's decision.  1.0 records everything, 0.0
        records nothing but still counts requests exactly.
    seed:
        Seed for the sampling RNG (same discipline as
        :class:`~repro.obs.trace.Tracer`: deterministic per seed).
    prefix:
        Id prefix for spans allocated by this recorder; must be unique
        per process (the parallel engine uses ``p`` parent-side and
        ``w<id>`` per worker).
    worker:
        Default ``Span.worker`` for spans this recorder creates.
    """

    def __init__(
        self,
        rate: float = 1.0,
        seed: int = 0,
        prefix: str = "p",
        worker: int = -1,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.prefix = prefix
        self.worker = worker
        self._rng = random.Random(seed)
        self._seq = 0
        #: Exact number of requests offered to :meth:`sample` (pre-sampling).
        self.requests = 0
        #: Number of requests that passed sampling.
        self.sampled_requests = 0
        #: Finished spans, in completion order (absorbed spans appended).
        self.spans: List[Span] = []
        #: The span a tracer's event spans attach under (worker-side:
        #: the command currently being served).
        self.current: Optional[Span] = None

    # -- allocation ----------------------------------------------------

    def next_id(self) -> str:
        self._seq += 1
        return f"{self.prefix}-{self._seq}"

    def sample(self) -> bool:
        """One head-based sampling decision; counts the request exactly."""
        self.requests += 1
        rate = self.rate
        if rate < 1.0 and (rate <= 0.0 or self._rng.random() >= rate):
            return False
        self.sampled_requests += 1
        return True

    def start(
        self,
        name: str,
        kind: str,
        parent: Optional[str] = None,
        worker: Optional[int] = None,
        **attrs,
    ) -> Span:
        """Open a span now; it is recorded when :meth:`finish` is called."""
        return Span(
            span_id=self.next_id(),
            parent_id=parent,
            name=name,
            kind=kind,
            start_ns=_now_ns(),
            worker=self.worker if worker is None else worker,
            attrs=dict(attrs),
        )

    def finish(self, span: Span, **attrs) -> Span:
        """Close ``span`` (duration = now - start) and record it."""
        span.dur_ns = max(0.0, _now_ns() - span.start_ns)
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        return span

    def add(self, span: Span) -> None:
        """Record a pre-built span (simulator spans carry their own clock)."""
        self.spans.append(span)

    # -- merging -------------------------------------------------------

    def absorb(self, spans: Iterable[Span]) -> int:
        """Fold another recorder's spans in (cross-process merge).

        Ids are globally unique by prefix, so no re-sequencing is
        needed — parent/child links across the process boundary stay
        valid.  Returns the number of spans absorbed.
        """
        n = 0
        for span in spans:
            self.spans.append(span)
            n += 1
        return n

    def __len__(self) -> int:
        return len(self.spans)


# ------------------------------------------------------------ tree tools


def children_index(spans: Iterable[Span]) -> Dict[Optional[str], List[Span]]:
    """``parent_id -> [children]`` in recorded order (roots under ``None``)."""
    index: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    return index


def roots(spans: Iterable[Span]) -> List[Span]:
    """Tree roots: request spans, plus non-event spans whose parent is
    missing from the list (a partial trace still renders)."""
    spans = list(spans)
    known = {s.span_id for s in spans}
    return [
        s
        for s in spans
        if s.kind == "request"
        or (s.kind != "event" and (s.parent_id is None or s.parent_id not in known))
    ]


def walk(
    span: Span, index: Dict[Optional[str], List[Span]]
) -> Iterable[Span]:
    """Yield ``span`` and every descendant, depth-first."""
    yield span
    for child in index.get(span.span_id, ()):  # pragma: no branch
        yield from walk(child, index)


def subtree_events(
    span: Span, index: Dict[Optional[str], List[Span]]
) -> List[Span]:
    """Every event-kind span reachable from ``span``."""
    return [s for s in walk(span, index) if s.kind == "event"]


def summarize_spans(spans: Iterable[Span]) -> Dict[Tuple[str, str], dict]:
    """Per-``(kind, clock)`` ``{"spans": n, "dur_ns": total}``; event
    entries add per-type counts under ``"events"``.  Wall and simulated
    spans never share an entry: their durations are on different clocks."""
    out: Dict[Tuple[str, str], dict] = {}
    for span in spans:
        agg = out.get((span.kind, span.clock))
        if agg is None:
            agg = out[(span.kind, span.clock)] = {"spans": 0, "dur_ns": 0.0}
            if span.kind == "event":
                agg["events"] = {}
        agg["spans"] += 1
        agg["dur_ns"] += span.dur_ns
        if span.kind == "event":
            etype = span.attrs["etype"]
            agg["events"][etype] = agg["events"].get(etype, 0) + 1
    return out
