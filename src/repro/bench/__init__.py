"""Benchmark harness: drive indexes/stores with workloads, report results.

* :mod:`repro.bench.runner` — the unified operation executor: an
  ``OpKind``-dispatched loop over an :class:`~repro.bench.runner.OpTarget`
  adapter (bare index or Viper store) that records per-kind latency
  histograms into a metrics registry, plus build/recovery measurement
  and the multi-thread scaling model.
* :mod:`repro.bench.metrics` — result records (throughput, tail latency).
* :mod:`repro.bench.report` — fixed-width table rendering and result-file
  output used by every ``benchmarks/bench_*`` module.
"""

from repro.bench.metrics import BenchResult
from repro.bench.runner import (
    ExecutionResult,
    IndexAdapter,
    OP_HANDLERS,
    OpTarget,
    StoreAdapter,
    execute_ops,
    measure_build,
    thread_scaling,
)
from repro.bench.report import format_bars, format_table, write_result

__all__ = [
    "BenchResult",
    "ExecutionResult",
    "IndexAdapter",
    "OP_HANDLERS",
    "OpTarget",
    "StoreAdapter",
    "execute_ops",
    "measure_build",
    "thread_scaling",
    "format_table",
    "format_bars",
    "write_result",
]
