"""Benchmark result records."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.histogram import LogHistogram


@dataclass
class BenchResult:
    """One (index, workload) measurement in simulated time."""

    index: str
    workload: str
    ops: int
    throughput_mops: float
    mean_ns: float
    p50_ns: float
    p99_ns: float
    p999_ns: float
    bytes_per_op: float = 0.0
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_histogram(
        cls,
        index: str,
        workload: str,
        latency: LogHistogram,
        bytes_per_op: float = 0.0,
        **extra,
    ) -> "BenchResult":
        mean = latency.mean()
        return cls(
            index=index,
            workload=workload,
            ops=len(latency),
            throughput_mops=1e3 / mean,
            mean_ns=mean,
            p50_ns=latency.quantile(0.5),
            p99_ns=latency.quantile(0.99),
            p999_ns=latency.quantile(0.999),
            bytes_per_op=bytes_per_op,
            extra=dict(extra),
        )

    def row(self) -> list:
        """Default table row used by the figure benches."""
        return [
            self.index,
            f"{self.throughput_mops:.2f}",
            f"{self.p50_ns / 1000:.2f}",
            f"{self.p999_ns / 1000:.2f}",
        ]
