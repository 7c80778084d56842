"""Per-operation cost breakdown: where do the nanoseconds go?

The paper's analyses constantly attribute performance to specific event
classes ("each level ... causes a cache miss", "much movement of stored
data").  :class:`Profiler` makes that attribution a library feature: wrap
any operation stream, and get (a) the aggregate time split by event kind
and (b) the worst individual operations with their event signatures — the
tool for answering "what is in my p99.9?".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import mul
from typing import Callable, List, Optional, Tuple

from repro.perf.context import PerfContext
from repro.perf.events import Counters, Event


@dataclass
class OpProfile:
    """One profiled operation."""

    label: str
    time_ns: float
    counters: Counters
    #: The :class:`Event` id contributing the most simulated time to
    #: this op (``Event.NAMES[dominant]`` spells it).
    dominant: int


class Profiler:
    """Collects per-operation costs and attributes them to event kinds.

    >>> profiler = Profiler(perf)
    >>> for key in probes:
    ...     with profiler.operation(f"get {key}"):
    ...         index.get(key)
    >>> profiler.time_by_event()      # {'dram_hop': ..., ...}
    >>> profiler.worst(3)             # the 3 costliest ops, with events
    """

    def __init__(self, perf: PerfContext, keep_worst: int = 16):
        self.perf = perf
        self.keep_worst = keep_worst
        self.total = Counters()
        self.op_count = 0
        self._heap: List[Tuple[float, int, OpProfile]] = []
        self._seq = 0

    # -- recording ------------------------------------------------------

    class _OpContext:
        def __init__(self, profiler: "Profiler", label: str):
            self.profiler = profiler
            self.label = label

        def __enter__(self):
            self.mark = self.profiler.perf.begin()
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                measured = self.profiler.perf.end(self.mark)
                self.profiler._record(
                    self.label, measured.time_ns, measured.counters
                )
            return False

    def operation(self, label: str = "") -> "_OpContext":
        """Context manager measuring one operation."""
        return self._OpContext(self, label)

    def run(self, label: str, fn: Callable[[], object]) -> object:
        """Measure ``fn()`` as one operation and return its result."""
        with self.operation(label):
            return fn()

    def record_measured(self, label: str, measured, ops: int = 1) -> None:
        """Attribute an already-measured :class:`~repro.perf.context.Operation`.

        This is how the benchmark executor feeds the profiler: it brackets
        each operation itself (for latency recording) and hands the same
        measurement here, so one pass yields both percentiles and the
        event breakdown.

        ``ops > 1`` attributes a batched measurement (one ``get_many`` /
        ``put_many`` call covering a run of workload operations): the
        coarse charge is split evenly across the run, so ``op_count`` and
        the worst-op heap stay in per-operation units instead of one
        batch landing in a single bucket.
        """
        self._record(label, measured.time_ns, measured.counters, ops)

    def _record(
        self, label: str, time_ns: float, counters: Counters, ops: int = 1
    ) -> None:
        self.total.add(counters)
        self.op_count += ops
        if ops > 1:
            time_ns /= ops
            counters = Counters([count / ops for count in counters.counts])
        profile = OpProfile(label, time_ns, counters, self._dominant_of(counters))
        self._seq += 1
        entry = (time_ns, self._seq, profile)
        if len(self._heap) < self.keep_worst:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    # -- reporting ----------------------------------------------------------

    def _dominant_of(self, counters: Counters) -> int:
        """The first event id with the largest simulated time."""
        ns = list(map(mul, counters.counts, self.perf.cost_model.weights()))
        return ns.index(max(ns))

    def time_by_event(self) -> dict:
        """Aggregate simulated nanoseconds attributed to each event kind."""
        return {
            name: count * weight
            for name, count, weight in zip(
                Event.NAMES, self.total.counts, self.perf.cost_model.weights()
            )
            if count
        }

    def total_time_ns(self) -> float:
        return self.perf.cost_model.time_ns(self.total.counts)

    def mean_time_ns(self) -> float:
        if self.op_count == 0:
            raise ValueError("no operations profiled")
        return self.total_time_ns() / self.op_count

    def worst(self, k: Optional[int] = None) -> List[OpProfile]:
        """The costliest operations, most expensive first."""
        entries = sorted(self._heap, reverse=True)
        if k is not None:
            entries = entries[:k]
        return [profile for _, _, profile in entries]

    def explain(self, top_events: int = 3) -> str:
        """A human-readable summary of where the time went."""
        if self.op_count == 0:
            return "no operations profiled"
        by_event = sorted(
            self.time_by_event().items(), key=lambda kv: -kv[1]
        )[:top_events]
        total = self.total_time_ns()
        parts = [
            f"{name}: {ns / total:.0%} ({ns / self.op_count:.0f} ns/op)"
            for name, ns in by_event
        ]
        lines = [
            f"{self.op_count} ops, {self.mean_time_ns():.0f} ns/op mean",
            "time split: " + ", ".join(parts),
        ]
        worst = self.worst(1)
        if worst:
            w = worst[0]
            lines.append(
                f"worst op: {w.label or '(unlabelled)'} at {w.time_ns:.0f} ns, "
                f"dominated by {Event.NAMES[w.dominant]}"
            )
        return "\n".join(lines)
