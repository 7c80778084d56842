"""Deterministic performance simulation substrate.

The paper measures C++ indexes on Optane PMem hardware; CPython wall-clock
neither matches those absolute numbers nor preserves the relative costs the
paper's conclusions rest on (cache misses per pointer hop, NVM vs. DRAM
latency, bandwidth saturation).  Instead, every index in this repository
*charges* abstract hardware events (node hops, comparisons, model
evaluations, key moves, NVM block accesses) into a :class:`PerfContext`,
and a calibrated :class:`CostModel` converts event counts into simulated
nanoseconds.  Throughput and tail latency in every benchmark are derived
from this simulated clock, which is deterministic and size-independent.
"""

from repro.perf.events import Event, Counters
from repro.perf.cost_model import CostModel
from repro.perf.context import PerfContext, Operation
from repro.perf.histogram import LogHistogram
from repro.perf.bandwidth import BandwidthModel
from repro.perf.breakdown import OpProfile, Profiler

__all__ = [
    "Event",
    "Counters",
    "CostModel",
    "PerfContext",
    "Operation",
    "LogHistogram",
    "BandwidthModel",
    "Profiler",
    "OpProfile",
]
