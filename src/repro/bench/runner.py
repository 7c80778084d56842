"""Measurement loop: run an operation stream, record simulated latencies.

One executor serves every target.  A small adapter protocol
(:class:`OpTarget`) presents bare indexes and the Viper store uniformly;
an ``OpKind -> handler`` dispatch table maps each workload operation onto
adapter calls.  Adding an execution backend (a sharded store, a remote
stub) means writing one adapter — the workload semantics, the capability
checks, and the per-kind latency accounting are shared.

Latency lands in one place: the ``repro_op_latency_ns{target,kind}``
histograms of the run's :class:`~repro.obs.metrics.MetricsRegistry`,
one record per scalar op or batched call.  A histogram's count is its
kind's op count, and mean latency gives throughput (``1e3 / mean`` is
Mops/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.interfaces import Index, SortedIndex
from repro.errors import UnsupportedOperationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.perf.breakdown import Profiler
from repro.perf.context import PerfContext
from repro.perf.histogram import LogHistogram
from repro.store.viper import ViperStore
from repro.workloads.ycsb import Operation, OpKind


class OpTarget:
    """What the executor needs from an execution backend.

    Adapters translate the uniform get/put/scan surface onto a concrete
    target.  ``supports_scan`` gates SCAN dispatch so unsorted targets
    fail with :class:`UnsupportedOperationError` — never ``AttributeError``.
    """

    #: Display name of whatever is being driven.
    name: str = "target"
    #: Whether SCAN operations can be served (sorted order available).
    supports_scan: bool = False

    def get(self, key: int):
        raise NotImplementedError

    def get_many(self, keys: Sequence[int]):
        """Batch point lookup; targets with a native fast path override."""
        return [self.get(key) for key in keys]

    def put(self, key: int, value) -> None:
        raise NotImplementedError

    def put_many(self, items: Sequence[Tuple[int, int]]) -> None:
        """Batch write; targets with a native fast path override."""
        for key, value in items:
            self.put(key, value)

    def scan(self, key: int, count: int):
        raise NotImplementedError

    def scan_many(self, starts: Sequence[int], count: int):
        """Batch scan; targets with a native fast path override."""
        return [self.scan(start, count) for start in starts]


class IndexAdapter(OpTarget):
    """Drive a bare :class:`Index` (no store, values live in the index)."""

    def __init__(self, index: Index):
        self.index = index
        self.name = index.name
        self.supports_scan = isinstance(index, SortedIndex)

    def get(self, key: int):
        return self.index.get(key)

    def get_many(self, keys: Sequence[int]):
        return self.index.get_many(keys)

    def put(self, key: int, value) -> None:
        self.index.insert(key, value)

    def put_many(self, items: Sequence[Tuple[int, int]]) -> None:
        self.index.insert_many(items)

    def scan(self, key: int, count: int):
        return self.index.scan(key, count)

    def scan_many(self, starts: Sequence[int], count: int):
        return self.index.scan_many(starts, count)


class StoreAdapter(OpTarget):
    """Drive operations end-to-end through a :class:`ViperStore`."""

    def __init__(self, store: ViperStore):
        self.store = store
        self.name = f"viper[{store.index.name}]"
        self.supports_scan = isinstance(store.index, SortedIndex)

    def get(self, key: int):
        return self.store.get(key)

    def get_many(self, keys: Sequence[int]):
        return self.store.get_many(keys)

    def put(self, key: int, value) -> None:
        self.store.put(key, value)

    def put_many(self, items: Sequence[Tuple[int, int]]) -> None:
        self.store.put_many(list(items))

    def scan(self, key: int, count: int):
        return self.store.scan(key, count)

    def scan_many(self, starts: Sequence[int], count: int):
        return self.store.scan_many(starts, count)


# ------------------------------------------------------------- dispatch

def _do_read(target: OpTarget, op: Operation) -> None:
    target.get(op.key)


def _do_write(target: OpTarget, op: Operation) -> None:
    target.put(op.key, op.key)


def _do_rmw(target: OpTarget, op: Operation) -> None:
    value = target.get(op.key)
    # A not-yet-inserted key reads None; writing that back would persist
    # None as the value.  YCSB's RMW on a missing key writes the fresh
    # record instead.
    target.put(op.key, value if value is not None else op.key)


def _do_scan(target: OpTarget, op: Operation) -> None:
    if not target.supports_scan:
        raise UnsupportedOperationError(
            f"{target.name} cannot serve ordered scans"
        )
    target.scan(op.key, op.scan_length)


#: The one place operation semantics live: OpKind -> handler.
OP_HANDLERS: Dict[OpKind, Callable[[OpTarget, Operation], None]] = {
    OpKind.READ: _do_read,
    OpKind.UPDATE: _do_write,
    OpKind.INSERT: _do_write,
    OpKind.RMW: _do_rmw,
    OpKind.SCAN: _do_scan,
}


@dataclass
class ExecutionResult:
    """Everything one executor pass measures."""

    #: The run's registry: ``repro_op_latency_ns{target,kind}`` (each
    #: series' count is that kind's op count) and ``repro_bytes_total``.
    metrics: MetricsRegistry
    #: The ``repro_op_latency_ns`` series by kind (only kinds that occurred).
    by_kind: Dict[OpKind, LogHistogram]
    #: Every op's latency: the merge of ``by_kind``.
    latency: LogHistogram
    bytes_per_op: float

    def kind_summary(self) -> List[Tuple[str, int, float, float]]:
        """Rows of ``(kind, ops, mean ns, p99.9 ns)`` sorted by time share."""
        rows = [
            (kind.value, len(hist), hist.mean(), hist.quantile(0.999))
            for kind, hist in self.by_kind.items()
        ]
        rows.sort(key=lambda r: -(r[1] * r[2]))
        return rows


def execute_ops(
    target: OpTarget,
    ops: Iterable[Operation],
    perf: PerfContext,
    profiler: Optional[Profiler] = None,
    batch_size: int = 1,
    progress: Optional[ProgressReporter] = None,
) -> ExecutionResult:
    """Execute ``ops`` against ``target``, measuring each on ``perf``.

    Pass a :class:`~repro.perf.breakdown.Profiler` to additionally
    attribute every operation's hardware events by kind ("what is in my
    p99.9?" — see ``docs/cost_model.md``).

    ``batch_size > 1`` enables batch dispatch: runs of *consecutive
    same-kind* READ, UPDATE, INSERT, or SCAN operations are grouped (up
    to ``batch_size``) and served with a single ``target.get_many`` /
    ``target.put_many`` / ``target.scan_many`` call; a kind change (or
    an RMW, which stays scalar) flushes the pending batch so the
    workload's interleaving semantics are preserved.  SCAN runs batch
    only while consecutive ops share the same ``scan_length`` (YCSB
    draws it per op) and only on scan-capable targets — unsorted
    targets keep the scalar path so they still fail with
    :class:`UnsupportedOperationError`.  A batched call is one weighted
    histogram record of its amortised per-op latency, so op counts and
    bytes/op stay comparable to ``batch_size=1``.  Batched measurements
    reach the profiler with ``ops=len(batch)`` so its per-op attribution
    splits the batch's charge evenly across the run.

    The records land in the run's own
    :class:`~repro.obs.metrics.MetricsRegistry`, returned as
    ``result.metrics``; ``progress`` emits throttled live
    progress/throughput lines while the loop runs.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    metrics = MetricsRegistry()
    bytes_total = metrics.counter("repro_bytes_total", target=target.name)
    by_kind: Dict[OpKind, LogHistogram] = {}
    total_bytes = 0

    def kind_hist(kind: OpKind) -> LogHistogram:
        hist = by_kind.get(kind)
        if hist is None:
            hist = by_kind[kind] = metrics.histogram(
                "repro_op_latency_ns", target=target.name, kind=kind.value
            )
        return hist

    def done() -> int:
        return sum(len(hist) for hist in by_kind.values())

    batch: List[Operation] = []
    batch_kind: Optional[OpKind] = None

    def flush_batch() -> int:
        nonlocal batch_kind
        mark = perf.begin()
        if batch_kind is OpKind.READ:
            target.get_many([op.key for op in batch])
        elif batch_kind is OpKind.SCAN:
            target.scan_many([op.key for op in batch], batch[0].scan_length)
        else:
            # Mirrors _do_write: the key doubles as the value.
            target.put_many([(op.key, op.key) for op in batch])
        measured = perf.end(mark)
        n = len(batch)
        kind_hist(batch_kind).record(measured.time_ns / n, n)
        if profiler is not None:
            profiler.record_measured(batch_kind.value, measured, ops=n)
        batch.clear()
        batch_kind = None
        return measured.bytes

    _BATCHABLE = (OpKind.READ, OpKind.UPDATE, OpKind.INSERT)

    for op in ops:
        batchable = op.kind in _BATCHABLE or (
            op.kind is OpKind.SCAN and target.supports_scan
        )
        if batch_size > 1 and batchable:
            if batch and (
                batch_kind is not op.kind
                or (
                    op.kind is OpKind.SCAN
                    and op.scan_length != batch[0].scan_length
                )
            ):
                total_bytes += flush_batch()
            batch.append(op)
            batch_kind = op.kind
            if len(batch) >= batch_size:
                total_bytes += flush_batch()
                if progress is not None:
                    progress.maybe(done(), perf)
            continue
        if batch:
            total_bytes += flush_batch()
        handler = OP_HANDLERS[op.kind]
        mark = perf.begin()
        handler(target, op)
        measured = perf.end(mark)
        kind_hist(op.kind).record(measured.time_ns)
        total_bytes += measured.bytes
        if profiler is not None:
            profiler.record_measured(op.kind.value, measured)
        if progress is not None:
            progress.maybe(done(), perf)
    if batch:
        total_bytes += flush_batch()
    if progress is not None:
        progress.finish(done(), perf)
    bytes_total.inc(total_bytes)
    latency = LogHistogram()
    for hist in by_kind.values():
        latency.merge(hist)
    bytes_per_op = total_bytes / max(1, len(latency))
    return ExecutionResult(metrics, by_kind, latency, bytes_per_op)


def measure_build(
    build: Callable[[], None], perf: PerfContext
) -> float:
    """Simulated nanoseconds taken by ``build()`` (bulk load / recovery)."""
    mark = perf.begin()
    build()
    return perf.end(mark).time_ns


#: Per-switch bookkeeping cost charged to the GIL-bound projection: CPython
#: releases the GIL every ``sys.getswitchinterval()`` (5 ms default); the
#: handoff itself costs roughly a context switch per interval, which is
#: negligible per-op — the dominant effect is simply *no parallelism*.
_GIL_SWITCH_OVERHEAD = 0.02


def thread_scaling(
    mean_ns: float,
    p999_ns: float,
    bytes_per_op: float,
    threads: Sequence[int],
    concurrency: Optional["ConcurrencySpec"] = None,
    write_fraction: float = 0.0,
    retrain_every: int = 0,
    retrain_stall_ns: float = 0.0,
    ops_per_thread: int = 800,
    seed: int = 0,
) -> List[dict]:
    """Project single-thread results onto N threads (Figs 12 and 14).

    The projection is the discrete-event simulator
    (:mod:`repro.concurrency.sim`): per-thread op streams scheduled on
    the simulated clock, charging latch waits, optimistic-read retries,
    and retrain stalls per ``concurrency`` (the index's
    :class:`~repro.concurrency.spec.ConcurrencySpec`) on top of the
    shared memory-bandwidth pool.  Rows carry ``throughput_mops``,
    ``p999_ns``, the bandwidth ``slowdown``, ``latch_wait_share``,
    ``retrain_stall_share``, ``retries``, and ``retrain_stalls``.  Its
    closed-loop validation is the real process-parallel engine,
    :func:`repro.concurrency.parallel.measure_scaling`.

    Rows also carry ``gil_thread_mops`` — **thread-based** scaling
    inside one CPython interpreter, where the GIL serialises the index
    code so aggregate throughput is pinned at the single-thread rate
    (minus a small handoff overhead once more than one thread contends).
    The gap between that column and ``throughput_mops`` is the reason
    the real-time benchmark harness uses processes, not threads.
    """
    from repro.concurrency.sim import OpProfile, simulate_scaling
    from repro.concurrency.spec import ConcurrencySpec

    spec = concurrency if concurrency is not None else ConcurrencySpec()
    profile = OpProfile(
        mean_ns=mean_ns,
        p999_ns=p999_ns,
        bytes_per_op=bytes_per_op,
        retrain_every=retrain_every,
        retrain_stall_ns=retrain_stall_ns,
    )
    rows = []
    for t, result in zip(
        threads,
        simulate_scaling(
            spec,
            profile,
            threads,
            write_fraction=write_fraction,
            ops_per_thread=ops_per_thread,
            seed=seed,
        ),
    ):
        gil_ns = mean_ns * (1.0 + (_GIL_SWITCH_OVERHEAD if t > 1 else 0.0))
        rows.append(
            {
                "threads": t,
                "throughput_mops": result.throughput_mops,
                "gil_thread_mops": 1e3 / gil_ns,
                "p999_ns": result.p999_ns,
                "slowdown": result.bandwidth_slowdown,
                "latch_wait_share": result.latch_wait_share,
                "retrain_stall_share": result.retrain_stall_share,
                "retries": result.retries,
                "retrain_stalls": result.retrain_stalls,
            }
        )
    return rows
