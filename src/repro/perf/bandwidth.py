"""Memory-bandwidth contention model for the multi-threaded figures.

The paper's multi-thread results (Figs 12 and 14) are shaped by one socket's
finite memory bandwidth: "ALEX has already saturated the memory bandwidth
with 24 threads ... which led to the competition of NVM bandwidth".  We model
a shared bandwidth pool: each thread independently demands
``bytes_per_op / base_latency`` of bandwidth; once aggregate demand exceeds
the pool, every access slows by the oversubscription ratio.  The
simulator (:mod:`repro.concurrency.sim`) scales its service times by that
ratio; queueing on latches and retrains is its own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BandwidthModel:
    """One socket's memory subsystem.

    ``peak_gbps`` defaults to an *effective* single-socket budget of
    ~25 GB/s for the store's mixed traffic: random 256-byte Optane reads
    sustain only ~2.3 GB/s per DIMM (~14 GB/s for six DIMMs; Yang et
    al., FAST'20), blended with the DRAM share of each operation.  This
    is the pool the paper reports ALEX exhausting at 24 threads.
    """

    peak_gbps: float = 25.0

    def demand_gbps(self, threads: int, bytes_per_op: float, base_ns: float) -> float:
        """Aggregate bandwidth demanded by ``threads`` unthrottled threads."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if base_ns <= 0:
            raise ValueError("base_ns must be positive")
        per_thread = bytes_per_op / base_ns  # bytes/ns == GB/s
        return threads * per_thread

    def slowdown(self, threads: int, bytes_per_op: float, base_ns: float) -> float:
        """Multiplicative per-op slowdown; >= 1, monotonic in ``threads``."""
        demand = self.demand_gbps(threads, bytes_per_op, base_ns)
        if demand <= self.peak_gbps:
            return 1.0
        return demand / self.peak_gbps
