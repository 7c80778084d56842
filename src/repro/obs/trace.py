"""Structured lifecycle-event tracing for index internals.

The paper's structural claims — *which* dimension drives cost — hinge on
events that end-of-run aggregates flatten away: when retrains fire, how
splits cascade, where a buffer flush lands.  The tracer captures those
moments on the simulated clock.

Wiring: a :class:`Tracer` is attached to a
:class:`~repro.perf.context.PerfContext` (``perf.tracer = tracer``), and
every instrumentation site calls ``perf.trace(EventType.X, ...)`` — a
no-op attribute check when no tracer is attached, so the cost with
tracing off is negligible and no index needs new plumbing.

Sampling: ``Tracer(rate=0.01)`` records ~1% of events (as event spans)
but **counts all of them** (in a metric counter) —
``tracer.count(EventType.RETRAIN)`` is always exact, which is what lets
tests pin trace counts against the indexes' own internal counters even
when records are sampled down.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.spans import Span, SpanRecorder, _now_ns


class EventType:
    """Lifecycle event taxonomy (see ``docs/observability.md``)."""

    #: A node/leaf/level was refit over its live keys.
    RETRAIN = "retrain"
    #: One leaf/node/segment became two or more.
    LEAF_SPLIT = "leaf_split"
    #: A leaf was removed and its fence forgotten (delete emptied it).
    LEAF_MERGE = "leaf_merge"
    #: Staged writes (delta chain, LSM buffer, leaf buffer) were folded
    #: into their base structure.
    BUFFER_FLUSH = "buffer_flush"
    #: Structural memory was allocated (nodes, pages, directory doubling).
    NODE_ALLOC = "node_alloc"
    #: A refit model was rejected (error above threshold / insert
    #: pressure) and the node split instead of expanding.
    FIT_REJECT = "fit_reject"
    #: A simulated thread waited for a latch held by another thread
    #: (``cost_ns`` carries the wait; emitted by the concurrency
    #: simulator, :mod:`repro.concurrency.sim`).
    LATCH_WAIT = "latch_wait"
    #: A simulated thread stalled behind a blocking retrain (XIndex /
    #: FINEdex style); ``cost_ns`` carries the stall.
    RETRAIN_STALL = "retrain_stall"
    #: A parallel-engine worker (or simulated worker) died/timed out and
    #: a respawn was started; ``leaf`` is the worker id, ``reason`` is
    #: ``"died"``/``"timeout"``, ``cost_ns`` the projected rebuild cost
    #: when emitted by the simulator's failure model.
    WORKER_RESTART = "worker_restart"
    #: The respawned worker finished rebuild + replay and resumed
    #: serving; ``cost_ns`` carries the measured recovery wall ns.
    WORKER_RECOVERED = "worker_recovered"
    #: A worker exhausted its restart budget and its shard left service
    #: (``degraded="partial"``); ``leaf`` is the worker id.
    WORKER_DOWN = "worker_down"

    ALL = (
        RETRAIN,
        LEAF_SPLIT,
        LEAF_MERGE,
        BUFFER_FLUSH,
        NODE_ALLOC,
        FIT_REJECT,
        LATCH_WAIT,
        RETRAIN_STALL,
        WORKER_RESTART,
        WORKER_RECOVERED,
        WORKER_DOWN,
    )


#: The metric family holding every event type's exact emission count.
EVENTS_TOTAL = "repro_trace_events_total"


def event_counts(metrics: MetricsRegistry) -> Dict[str, int]:
    """Exact per-type emission counts held in ``metrics``."""
    return {
        labels["event"]: int(counter.value)
        for name, _kind, labels, counter in metrics.collect()
        if name == EVENTS_TOTAL
    }


class Tracer:
    """Seeded lifecycle-event sampler that writes into two stores.

    Every emission increments the exact
    ``repro_trace_events_total{event=<etype>}`` counter in ``metrics``;
    an emission that passes ``rate`` is also recorded once, as an
    event-kind :class:`~repro.obs.spans.Span` named ``event:<etype>``,
    in ``spans``.  The tracer itself stores nothing.

    Parameters
    ----------
    rate:
        Sampling rate in [0, 1]; 1.0 records every event.
    seed:
        Seed for the sampling RNG — sampling decisions are deterministic.
    metrics:
        Registry the exact counts go to (a fresh one when omitted).
    spans:
        Recorder the sampled event spans go to (a fresh one when
        omitted).  An event attaches under the recorder's
        :attr:`~repro.obs.spans.SpanRecorder.current` span unless the
        emitter passes an explicit ``parent``.
    """

    def __init__(
        self,
        rate: float = 1.0,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanRecorder(prefix="t")

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        # Counters are cached per event type; a new registry (a worker
        # starting fresh after a drain) invalidates the cache.
        self._metrics = registry
        self._counters: Dict[str, Counter] = {}

    def emit(
        self,
        etype: str,
        ts_ns: float,
        parent: Optional[Span] = None,
        clock: str = "wall",
        index: str = "",
        leaf: int = -1,
        key_lo: Optional[int] = None,
        key_hi: Optional[int] = None,
        reason: str = "",
        keys: int = 0,
        count: int = 1,
        cost_ns: float = 0.0,
    ) -> None:
        """Count the event; record it as an event span if it is sampled.

        Called via :meth:`repro.perf.context.PerfContext.trace` (and by
        the concurrency simulator directly, with its op span as
        ``parent`` and ``clock="sim"``).  ``ts_ns`` is the simulated
        timestamp; a ``"sim"`` span starts there, a ``"wall"`` span at
        the current wall time.  The count is incremented *before* the
        sampling decision so it stays exact at any rate.

        The record's attrs: ``index`` (emitting index/store), ``leaf``
        (leaf/node/level position, -1 when not applicable),
        ``key_lo``/``key_hi`` (key range covered), ``reason`` (why it
        fired: "leaf_full", "lsm_carry", ...), ``keys`` (live keys
        involved), ``count`` (structural multiplicity: leaves produced,
        pages allocated, ...) and ``cost_ns`` (simulated cost of the
        emitting operation), plus ``etype`` and ``sim_ts_ns``.
        """
        counter = self._counters.get(etype)
        if counter is None:
            counter = self._counters[etype] = self._metrics.counter(
                EVENTS_TOTAL, event=etype
            )
        counter.inc()
        rate = self.rate
        if rate < 1.0 and (rate <= 0.0 or self._rng.random() >= rate):
            return
        spans = self.spans
        if parent is None:
            parent = spans.current
        spans.add(
            Span(
                span_id=spans.next_id(),
                parent_id=None if parent is None else parent.span_id,
                name=f"event:{etype}",
                kind="event",
                start_ns=ts_ns if clock == "sim" else _now_ns(),
                clock=clock,
                worker=spans.worker if parent is None else parent.worker,
                attrs={
                    "etype": etype,
                    "sim_ts_ns": ts_ns,
                    "index": index,
                    "leaf": leaf,
                    "key_lo": key_lo,
                    "key_hi": key_hi,
                    "reason": reason,
                    "keys": keys,
                    "count": count,
                    "cost_ns": cost_ns,
                },
            )
        )

    def count(self, etype: str) -> int:
        """Exact number of ``etype`` emissions (independent of sampling)."""
        return event_counts(self._metrics).get(etype, 0)
