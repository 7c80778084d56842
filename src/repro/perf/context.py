"""The perf context: where indexes charge events and ops are measured."""

from __future__ import annotations

from typing import Optional

from repro.perf.cost_model import CostModel, bytes_touched
from repro.perf.events import Counters, Event

#: Keys per cache line (8-byte keys, 64-byte lines); probes that jump
#: further than two lines from the previous probe are charged as cache
#: misses rather than sequential accesses.
PROBE_LOCALITY_KEYS = 16


def charge_probe(perf: "PerfContext", distance: int) -> None:
    """Charge one search probe at ``distance`` keys from the previous one.

    Binary-search probes over a wide span land on unrelated cache lines
    (a miss each); within a couple of lines they are effectively
    sequential.  This is what makes an unbounded prediction error
    expensive in the tail: the first log2(error/16) probes of the
    correction search all miss.
    """
    if distance > PROBE_LOCALITY_KEYS or distance < -PROBE_LOCALITY_KEYS:
        perf.charge(Event.DRAM_HOP)
    else:
        perf.charge(Event.DRAM_SEQ)


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
        self._mark: Optional[Counters] = None
        #: Optional lifecycle-event tracer (see :mod:`repro.obs.trace`).
        #: ``None`` by default so instrumented code pays one attribute
        #: load and a falsy check when tracing is off.
        self.tracer = None

    # -- charging -----------------------------------------------------

    def charge(self, event: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``event`` (an :class:`Event` name)."""
        setattr(self.counters, event, getattr(self.counters, event) + n)

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

    def begin(self) -> Counters:
        """Snapshot the ledger; pass the result to :meth:`end`."""
        return self.counters.copy()

    def end(self, mark: Counters) -> Operation:
        """Finish a measurement started at ``mark``."""
        delta = self.counters.delta(mark)
        return Operation(delta, self.cost_model.time_ns(delta), bytes_touched(delta))

    def elapsed_ns(self) -> float:
        """Total simulated time accumulated since construction/reset."""
        return self.cost_model.time_ns(self.counters)

    def total_bytes(self) -> int:
        return bytes_touched(self.counters)

    def reset(self) -> None:
        self.counters = Counters()


#: A context used by indexes constructed without an explicit one.  It still
#: counts (so standalone usage works), but experiments should always pass
#: their own context to keep measurements isolated.
DEFAULT_CONTEXT = PerfContext()
