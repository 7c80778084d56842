"""Timing core of the benchmark: host-drift calibration, timed calls, stats.

Host-drift normalisation
------------------------
On a small shared host the CPU speed drifts on a timescale of seconds,
so raw wall-clock numbers from two runs of identical code disagree by
more than any regression worth catching.  The benchmark therefore runs
each workload as a sequence of short timed *passes* and runs a fixed
pure-Python reference kernel (:func:`calib_speed`: a loop storing into a
1024-entry dict) before and after every pass.  A pass's wall time is
rescaled by the kernel speed measured around it, relative to the fixed
constant :data:`REF_CALIB_OPS_S`::

    normalised_time = raw_time * calib_speed / REF_CALIB_OPS_S

so a pass that ran while the host was slow (low kernel speed) is scaled
down, and one that ran while it was fast is scaled up.  A run reports
the median over its passes; the raw value and the kernel speed are
printed beside every normalised one.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import OpTarget

#: Iterations of the reference kernel (about 10 ms on a 2-core cloud VM).
#: One run per reading: a best-of-several reading filters out the stalls
#: the workload suffers too, and then over-corrects for frequency drift
#: that a memory-bound workload only partly follows.
CALIB_ITERS = 100_000
#: Reference kernel speed (iterations/s) that normalised timings are
#: expressed against.  A fixed constant: changing it rescales every
#: normalised time of every commit alike.
REF_CALIB_OPS_S = 1.0e7

#: Percentile ladder the tail metric picks from: the highest rung, up to
#: the workload's cap, that keeps at least ``TAIL_MIN_BEYOND`` samples
#: beyond it.
TAIL_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10


def calib_speed(iters: int = CALIB_ITERS) -> float:
    """Reference-kernel speed in iterations per second.

    Kept deliberately plain: an interpreter loop doing dict stores, the
    same mix of bytecode dispatch and hashing the index code runs.  A
    mixed interpreter+numpy kernel tracked the drift less well.
    """
    d: Dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(iters):
        d[i & 1023] = i
    return iters / (time.perf_counter() - t0)


class Calibrator:
    """Runs the reference kernel around timed work and keeps every reading."""

    def __init__(self, kernel: Callable[[], float] = calib_speed) -> None:
        self.kernel = kernel
        self.readings: List[float] = []
        self._last: Optional[float] = None

    def read(self) -> float:
        speed = self.kernel()
        self.readings.append(speed)
        self._last = speed
        return speed

    def around(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``fn`` between two kernel readings, with the GC paused.

        Returns ``(result, raw_seconds, kernel_speed)``; the speed is the
        geometric mean of the readings before and after ``fn``.  The
        reading after one piece of work doubles as the reading before the
        next, unless :meth:`forget` was called in between.
        """
        before = self._last if self._last is not None else self.read()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = fn()
            raw = time.perf_counter() - t0
        finally:
            gc.enable()
        after = self.read()
        return out, raw, math.sqrt(before * after)

    def forget(self) -> None:
        """Drop the carried-over reading (untimed work ran since)."""
        self._last = None


def normalise(raw_seconds: float, speed: float) -> float:
    """Rescale a wall time measured at kernel ``speed`` to the reference."""
    return raw_seconds * speed / REF_CALIB_OPS_S


# ------------------------------------------------------------ wrapper


class TimedTarget(OpTarget):
    """Times every call into the wrapped target and keeps its answer.

    The executor drives this adapter exactly as it would the inner one.
    Each call's wall time, op count, and return value are appended to
    :attr:`calls` / :attr:`answers` and the value is passed through
    unchanged, so answers are checked after the pass, outside the timed
    call.  With ``engine`` set, each call also records the deltas of the
    engine's public per-worker ``busy_ns`` and ``worker_ops`` counters.
    """

    def __init__(self, inner: OpTarget, engine=None, clock=time.perf_counter_ns):
        self.inner = inner
        self.name = inner.name
        self.supports_scan = inner.supports_scan
        self.engine = engine
        self.clock = clock
        #: ``(kind, ops, ns)`` per call, in call order.
        self.calls: List[Tuple[str, int, int]] = []
        self.answers: List[object] = []
        #: ``(call_ns, busy_ns_deltas, worker_ops_deltas)`` per call.
        self.engine_calls: List[Tuple[int, List[float], List[int]]] = []

    def _timed(self, kind: str, ops: int, fn, *args):
        engine = self.engine
        if engine is not None:
            busy0 = list(engine.busy_ns)
            wops0 = list(engine.worker_ops)
        clock = self.clock
        t0 = clock()
        out = fn(*args)
        dt = clock() - t0
        self.calls.append((kind, ops, dt))
        self.answers.append(out)
        if engine is not None:
            self.engine_calls.append(
                (
                    dt,
                    [b - a for a, b in zip(busy0, engine.busy_ns)],
                    [b - a for a, b in zip(wops0, engine.worker_ops)],
                )
            )
        return out

    def get(self, key):
        return self._timed("read", 1, self.inner.get, key)

    def get_many(self, keys):
        return self._timed("read", len(keys), self.inner.get_many, keys)

    def put(self, key, value):
        return self._timed("write", 1, self.inner.put, key, value)

    def put_many(self, items):
        return self._timed("write", len(items), self.inner.put_many, items)

    def scan(self, key, count):
        return self._timed("scan", 1, self.inner.scan, key, count)

    def scan_many(self, starts, count):
        return self._timed(
            "scan", len(starts), self.inner.scan_many, starts, count
        )


# ------------------------------------------------------------ statistics


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int, cap: float) -> float:
    """Highest ladder percentile <= ``cap`` keeping >= 10 samples beyond it
    (the median when even that is out of reach)."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            best = p
    return best


# ------------------------------------------------------------ host


def _proc_steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 else None


def _proc_kb(path: str, field: str) -> int:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemoryProbe:
    """Peak resident memory of this process plus its worker processes.

    This process contributes its exact high-water mark (``VmHWM``).  Live
    children are sampled by proportional set size (``Pss``), which splits
    the pages a forked worker still shares with its parent instead of
    counting them once per process; the largest sample is kept.
    """

    def __init__(self) -> None:
        self.children_peak_kb = 0

    def sample_children(self) -> None:
        total = sum(
            _proc_kb(f"/proc/{p.pid}/smaps_rollup", "Pss")
            for p in multiprocessing.active_children()
        )
        self.children_peak_kb = max(self.children_peak_kb, total)

    def peak_mb(self) -> float:
        own = _proc_kb(f"/proc/{os.getpid()}/status", "VmHWM")
        return (own + self.children_peak_kb) / 1024.0


class HostProbe:
    """Host fingerprint recorded with every run."""

    def __init__(self) -> None:
        self.steal_start = _proc_steal_ticks()

    def fingerprint(self, calib: Sequence[float], workers: int) -> dict:
        import numpy

        steal_end = _proc_steal_ticks()
        cpus = os.cpu_count() or 1
        return {
            "cpu_count": cpus,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "calib_ops_s_min": min(calib) if calib else 0.0,
            "calib_ops_s_median": statistics.median(calib) if calib else 0.0,
            "calib_ops_s_max": max(calib) if calib else 0.0,
            "calib_readings": len(calib),
            "steal_ticks": (
                steal_end - self.steal_start
                if steal_end is not None and self.steal_start is not None
                else None
            ),
            # Numbers from a host of two cores or fewer (or fewer cores
            # than the parent plus its workers) say nothing about how the
            # system scales with cores.
            "scaling_evidence": cpus > max(2, workers),
        }
