"""The perf context: where indexes charge events and ops are measured."""

from __future__ import annotations

from operator import sub
from typing import List, Optional

from repro.perf.cost_model import CostModel, bytes_touched
from repro.perf.events import Counters


class Operation:
    """Measurement of a single operation: event delta, time, bytes."""

    __slots__ = ("counters", "time_ns", "bytes")

    def __init__(self, counters: Counters, time_ns: float, nbytes: int):
        self.counters = counters
        self.time_ns = time_ns
        self.bytes = nbytes

    def __repr__(self) -> str:
        return f"Operation(time_ns={self.time_ns:.1f}, bytes={self.bytes})"


class PerfContext:
    """Shared event ledger + simulated clock for one experiment.

    Indexes receive a ``PerfContext`` at construction and call
    :meth:`charge` on their hot paths.  Benchmark runners bracket each
    operation with :meth:`begin` / :meth:`end` to obtain per-operation
    simulated latencies, from which throughput and tail percentiles are
    computed.
    """

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()
        self.counters = Counters()
        #: Optional lifecycle-event tracer (see :mod:`repro.obs.trace`).
        #: ``None`` by default so instrumented code pays one attribute
        #: load and a falsy check when tracing is off.
        self.tracer = None

    # -- charging -----------------------------------------------------

    def charge(self, event: int, n: int = 1) -> None:
        """Record ``n`` occurrences of ``event`` (an :class:`Event` id)."""
        self.counters.counts[event] += n

    # -- lifecycle tracing --------------------------------------------

    def trace(self, etype: str, **fields) -> None:
        """Emit a lifecycle event to the attached tracer, if any.

        Instrumentation sites call this unconditionally; with no tracer
        attached it is a no-op.  The event is timestamped with the
        simulated clock (:meth:`elapsed_ns`) at emission.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(etype, self.elapsed_ns(), **fields)

    # -- measurement --------------------------------------------------

    def begin(self) -> List[int]:
        """Snapshot the ledger; pass the result to :meth:`end`."""
        return self.counters.counts[:]

    def end(self, mark: List[int]) -> Operation:
        """Finish a measurement started at ``mark``."""
        delta = Counters(map(sub, self.counters.counts, mark))
        counts = delta.counts
        return Operation(delta, self.cost_model.time_ns(counts), bytes_touched(counts))

    def elapsed_ns(self) -> float:
        """Total simulated time accumulated since construction/reset."""
        return self.cost_model.time_ns(self.counters.counts)

    def total_bytes(self) -> int:
        return bytes_touched(self.counters.counts)

    def reset(self) -> None:
        self.counters = Counters()


#: A context used by indexes constructed without an explicit one.  It still
#: counts (so standalone usage works), but experiments should always pass
#: their own context to keep measurements isolated.
DEFAULT_CONTEXT = PerfContext()
