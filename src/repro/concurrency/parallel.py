"""The sharded serving engine: one shard per worker, one of two transports.

A :class:`ShardRouter` splits the key space into K contiguous ranges and
each shard owns one index (or Viper store) over its range, built
**inside** the worker from a registry spec name (nothing large is ever
pickled).  Sharding is invisible: for any spec and any K the engine
answers bit-identically to the flat index, and ordered scans drain the
start shard and spill into its right-hand neighbours.

Transports
----------
``transport="shm"`` (and ``"auto"``) runs every shard in its own worker
process, so K shards buy wall-clock throughput across cores;
``"pipe"`` does the same without shared memory.  ``"loopback"`` keeps
each shard's :class:`_WorkerState` in the caller's process behind a
:class:`_Loopback`, which stands in for the worker's pipe and process:
no fork, no segment, one interpreter.  Both transports serve a command
through the same :meth:`_WorkerState.handle`, so scatter, fan-out,
delta folding, health, spans and :attr:`~_ParallelEngine.worker_ops`
are one code path; the loopback engine is what ``--shards K`` runs.

Every request is one :class:`Command` record (op, payload, arg, replay
token, span id), and every payload — request or reply — passes through
one codec, :func:`_encode` / :func:`_decode`.  Per process worker, one
shared-memory segment holds three lanes: uint64 keys, uint64 values and
a uint8 mask.  A list of uint64s (``None`` allowed, through the mask) or
of uint64 ``(key, value)`` pairs that fits the segment is written into
the lanes and travels as a small :class:`_Lanes` marker; anything else
(strings, negative keys, scan runs, call arguments) is pickled through
the pipe.  ``"pipe"`` and ``"loopback"`` allocate no segment.

A ``get_many`` scatters keys by shard (one vectorized ``searchsorted`` +
stable argsort, so in-shard order — and therefore duplicate semantics
and simulated charges — equal the input order; a key outside uint64
routes through :meth:`ShardRouter.shard_of` instead), and gathers values
back in key order.  Every batch ships in ``capacity``-sized chunks
whatever the transport, so the simulated ledger never depends on it.
All shipments go through one fan-out (:meth:`_ParallelEngine._fan_out`),
which owns down-shard accounting, shard spans, replay tokens, the
journal and :attr:`~_ParallelEngine.worker_ops`.

Two clocks
----------
The engine keeps the repo's simulated-hardware accounting intact: every
worker snapshots its ledger around each command and ships the delta
back with the reply as a flat list of event counts; the parent adds it
element-wise into its own :class:`~repro.perf.context.PerfContext`
**before** the caller's ``perf.end``.  ``execute_ops``, ``repro bench``,
and ``repro report`` therefore report the same simulated numbers on
either transport — while :attr:`wall_latency` and
:func:`measure_scaling` measure real wall-clock, which is the number
that improves as process workers are added on a multi-core host.

Observability
-------------
Each worker keeps a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.spans.SpanRecorder`, which its
:class:`~repro.obs.trace.Tracer` writes lifecycle counts and sampled
event spans into; the worker's own series is
``repro_worker_cmd_wall_ns{worker}``, whose count is the commands it
served.  :meth:`drain_obs` takes that one ``{metrics, spans}``
payload from each worker, which then starts fresh, and merges it into
parent-side instances, so ``repro report --shards K`` and ``--workers
K`` show one unified lifecycle/metrics view.

With ``span_rate > 0`` the engine additionally records a **causal span
tree** per sampled request (:mod:`repro.obs.spans`): the request span
fans into batch and shard spans parent-side, the shard's span id rides
the command's ``span`` field, and the worker opens a worker-kind child
span around ``serve`` so lifecycle event spans (RETRAIN, NODE_ALLOC,
...) attach to the originating request after :meth:`drain_obs`.
Tracing off (``span_rate=0.0``, the default) takes a single ``is None``
branch per request — the shipment hot loops are untouched.
Independently, a :class:`~repro.obs.health.HealthMonitor` sums the
wall ns every reply carries into per-worker busy time, flags stalls past
a threshold, and feeds each worker's flight-recorder ring into
:class:`~repro.errors.WorkerDiedError` postmortems.

Fault tolerance
---------------
With ``restart_budget > 0`` a process engine is fail-*recover* instead
of fail-stop: a worker that dies (or overruns ``worker_timeout_s``) is
respawned, its partition rebuilt from the retained bulk part plus an
ordered journal of acknowledged mutation commands, and the in-flight
command re-issued exactly once — callers never observe the failure.
Every mutation carries a monotone replay ``token``; the parent keeps
each payload it sent, so a re-issue or a journal replay simply encodes
it again.  The bulk parts and the journal are kept only while the budget
is above 0, since nothing else reads them.  Once the budget is spent
the engine degrades per ``degraded``: ``"fail"`` latches broken (the
pre-supervision default), ``"partial"`` serves the surviving shards with
``None`` holes for reads and :class:`~repro.errors.ShardUnavailableError`
for writes.  See :mod:`repro.concurrency.supervise` for the policy and
the deterministic :class:`~repro.concurrency.supervise.FaultPlan`
injection harness, which a worker plays through a connection wrapper
only when it has directives (process transports only: a scripted kill
of a loopback shard would kill the caller).
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
import weakref
from bisect import bisect_left
from multiprocessing import shared_memory
from operator import sub
from typing import Any, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.concurrency.sharding import ShardRouter, merge_index_stats
from repro.concurrency.supervise import (
    DEFAULT_BACKOFF_BASE_S,
    DEFAULT_BACKOFF_CAP_S,
    FaultInjector,
    FaultPlan,
    WorkerSupervisor,
    _RecoveryFailed,
)
from repro.core.approximation.vectorized import as_u64
from repro.core.interfaces import (
    Index,
    IndexStats,
    SortedIndex,
    check_uint64,
    check_uint64_items,
)
from repro.errors import ReproError, ShardUnavailableError, WorkerDiedError
from repro.obs.health import (
    DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_STALL_THRESHOLD_S,
    HealthMonitor,
    format_flight,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanRecorder
from repro.obs.trace import Tracer
from repro.perf.context import PerfContext
from repro.perf.histogram import LogHistogram

#: Max keys per worker per shipment; larger batches are macro-chunked.
#: 2^16 entries keep a segment at ~1.1 MB (8+8+1 bytes per slot).
DEFAULT_CAPACITY = 1 << 16


# ------------------------------------------------------------ wire format


class Command(NamedTuple):
    """One request to a worker.

    ``payload`` is the op's data — keys, ``(key, value)`` items, scan
    starts or call arguments — and the only field the codec moves;
    ``arg`` is its small parameter (write mode, scan count, call
    method).  ``token`` is the replay token a mutation carries (None for
    reads), ``span`` the parent-side shard span id of a traced request.
    """

    op: str
    payload: Any = None
    arg: Any = None
    token: Optional[int] = None
    span: Optional[str] = None


class _Segment:
    """Numpy views over one worker's shared-memory op buffers."""

    def __init__(self, shm, capacity: int):
        self.shm = shm
        self.capacity = capacity
        buf = shm.buf
        self.keys = np.frombuffer(buf, dtype=np.uint64, count=capacity)
        self.vals = np.frombuffer(
            buf, dtype=np.uint64, count=capacity, offset=8 * capacity
        )
        self.mask = np.frombuffer(
            buf, dtype=np.uint8, count=capacity, offset=16 * capacity
        )

    def release(self) -> None:
        """Drop the numpy views so the mapping can be closed."""
        self.keys = self.vals = self.mask = None

    @staticmethod
    def nbytes(capacity: int) -> int:
        return 17 * capacity


class _Lanes(NamedTuple):
    """Wire stand-in for a payload held in the segment: ``n`` entries,
    as ``(key, value)`` pairs in the key and value lanes when ``pairs``,
    else in the key lane with ``None`` where the mask is 0."""

    n: int
    pairs: bool


def _encode(payload: Any, seg: Optional[_Segment]) -> Any:
    """The wire form of ``payload``: a :class:`_Lanes` marker when it fits
    ``seg``'s lanes, else the payload itself (pickled by the pipe)."""
    if isinstance(payload, np.ndarray) and payload.dtype == np.uint64:
        # A scatter piece of keys: it reaches the worker as a list.
        if seg is None or payload.size > seg.capacity:
            return payload.tolist()
        n = payload.size
        seg.keys[:n] = payload
        seg.mask[:n] = 1
        return _Lanes(n, False)
    if seg is None or type(payload) is not list:
        return payload
    n = len(payload)
    if not 0 < n <= seg.capacity:
        return payload
    if type(payload[0]) is tuple:
        try:
            keys = as_u64([k for k, _ in payload])
            vals = as_u64([v for _, v in payload])
        except (TypeError, ValueError):  # not all pairs
            return payload
        if keys is None or vals is None:
            return payload
        seg.keys[:n] = keys
        seg.vals[:n] = vals
        return _Lanes(n, True)
    keys = as_u64(payload)
    if keys is not None:
        seg.mask[:n] = 1
    else:
        keys = as_u64([0 if v is None else v for v in payload])
        if keys is None:
            return payload
        seg.mask[:n] = [v is not None for v in payload]
    seg.keys[:n] = keys
    return _Lanes(n, False)


def _decode(wire: Any, seg: Optional[_Segment]) -> Any:
    """The payload ``wire`` stands for (inverse of :func:`_encode`)."""
    if type(wire) is not _Lanes:
        return wire
    n = wire.n
    keys = seg.keys[:n].tolist()
    if wire.pairs:
        return list(zip(keys, seg.vals[:n].tolist()))
    mask = seg.mask[:n]
    if mask.all():
        return keys
    return [k if m else None for k, m in zip(keys, mask.tolist())]


# ------------------------------------------------------------ worker side


class _WorkerState:
    """Everything one worker owns: its shard, perf, obs, replay books."""

    def __init__(self, cfg: dict):
        from repro.registry import resolve  # deferred: avoids import cycle

        self.worker_id = cfg["worker"]
        # Process generation: 0 for the original worker, +1 per respawn.
        # Seeds and span-id prefixes are offset by it so a recovered
        # worker's ids never collide with its dead predecessor's.
        self.incarnation = cfg.get("incarnation", 0)
        self.perf = PerfContext()
        # The parent made the sampling decision (a command carries a span
        # id only when its request was sampled); the prefix keeps span
        # ids globally unique, across respawns too.
        prefix = f"w{self.worker_id}"
        if self.incarnation:
            prefix = f"w{self.worker_id}r{self.incarnation}"
        self.spans = SpanRecorder(prefix=prefix, worker=self.worker_id)
        self.tracer: Optional[Tracer] = None
        if cfg["trace_rate"] > 0.0:
            self.tracer = Tracer(
                rate=cfg["trace_rate"],
                seed=cfg["seed"] + self.worker_id + 7919 * self.incarnation,
                spans=self.spans,
            )
            self.perf.tracer = self.tracer
        self._fresh_metrics()

        index = resolve(cfg["spec"]).build(self.perf, **cfg["overrides"])
        #: The shard's index, for ``stats`` (the store's, in store mode).
        self.index: Index = index
        self.target: Any = index
        if cfg["store"]:
            from repro.store.viper import ViperStore

            self.target = ViperStore(
                index,
                self.perf,
                record_bytes=cfg["record_bytes"],
                slots_per_page=cfg["slots_per_page"],
            )

        self.seg: Optional[_Segment] = None
        if cfg["shm_name"] is not None:
            shm = shared_memory.SharedMemory(name=cfg["shm_name"])
            # Under spawn, attaching registers the segment with the
            # worker's own resource tracker, which would unlink it when
            # the worker exits; unregister — the parent owns the unlink.
            # Under fork the tracker process is shared with the parent,
            # so the attach-side registration is a no-op and unregistering
            # would strip the parent's entry instead.
            if cfg["start_method"] != "fork":
                try:  # pragma: no cover - tracker internals vary
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
            self.seg = _Segment(shm, cfg["capacity"])

        self.pending_items: List[Tuple[int, Any]] = []
        # Idempotent replay: highest mutation token applied so far.
        # Tokens at or below it are acknowledged without re-applying, so
        # a journal replay that races a late duplicate can never
        # double-apply.
        self.last_token = 0

    # -- command handlers ---------------------------------------------

    def _fresh_metrics(self) -> None:
        """Start a new registry and re-fetch the cached instrument, so
        the per-command path never looks a series up.  Its count is the
        commands served."""
        self.metrics = MetricsRegistry()
        self.wall_hist = self.metrics.histogram(
            "repro_worker_cmd_wall_ns", worker=str(self.worker_id)
        )
        if self.tracer is not None:
            self.tracer.metrics = self.metrics

    def handle(self, cmd: Command) -> tuple:
        """Serve one command end to end; returns the reply record.

        ``("ok", wire reply, perf delta, wall ns)``, or ``("err",
        exception, traceback)``.  Both transports call this, so the
        replay-token check, the worker span, the perf bracket, the codec
        and the metrics are one code path.
        """
        if cmd.token is not None and cmd.token <= self.last_token:
            return ("ok", DUP_MARKER, None, 0.0)
        spans = self.spans
        wspan = None
        if cmd.span is not None:
            wspan = spans.current = spans.start(
                f"cmd:{cmd.op}", "worker", parent=cmd.span
            )
        t0 = time.perf_counter()
        mark = self.perf.begin()
        try:
            payload = _decode(cmd.payload, self.seg)
            reply = _encode(self.serve(cmd.op, payload, cmd.arg), self.seg)
        except BaseException as exc:
            spans.current = None
            return ("err", _pickle_safe(exc), traceback.format_exc())
        if cmd.token is not None:
            self.last_token = cmd.token
        delta = list(map(sub, self.perf.counters.counts, mark))
        wall_ns = (time.perf_counter() - t0) * 1e9
        if wspan is not None:
            spans.current = None
            spans.finish(
                wspan,
                ops=len(payload) if type(payload) is list else 1,
                sim_ns=self.perf.cost_model.time_ns(delta),
            )
        self.wall_hist.record(wall_ns)
        return ("ok", reply, delta, wall_ns)

    def serve(self, op: str, payload: Any, arg: Any) -> Any:
        """Apply one decoded command to the shard; returns the reply."""
        target = self.target
        if op == "get_many":
            return target.get_many(payload)
        if op == "write_many":  # insert_many / upsert_many / put_many
            return getattr(target, f"{arg}_many")(payload)
        if op == "scan_many":
            return target.scan_many(payload, arg)
        if op == "bulk_chunk":
            self.pending_items.extend(payload)
            return None
        if op == "bulk_end":
            items, self.pending_items = self.pending_items, []
            target.bulk_load(items)
            return len(items)
        if op == "call":
            if arg == "len":
                return len(target)
            if arg == "contains":
                return payload[0] in target
            if arg == "range":
                return list(target.range(*payload))
            if arg == "stats":
                return self.index.stats()
            return getattr(target, arg)(*payload)
        if op == "obs":
            return self._obs_payload()
        raise ReproError(f"unknown worker command {op!r}")

    def _obs_payload(self) -> dict:
        """Hand over what was collected since the last drain and start
        fresh (span ids keep counting, so they never repeat)."""
        payload = {"metrics": self.metrics, "spans": self.spans.spans}
        self.spans.spans = []
        self._fresh_metrics()
        return payload

    def close(self) -> None:
        if self.seg is not None:
            shm = self.seg.shm
            self.seg.release()
            shm.close()
            self.seg = None


#: Reply to a mutation whose replay token was already applied
#: (idempotent dedup; the parent treats it as a no-op ack).
DUP_MARKER = "__repro_dup__"

#: A worker's first message: its shard is built.
_READY = ("ok", "ready", None, 0.0)


def _worker_main(conn, cfg: dict) -> None:
    """Worker process entry: build the shard, then serve until ``close``."""
    try:
        state = _WorkerState(cfg)
    except BaseException as exc:  # surface build failures to the parent
        try:
            conn.send(("err", _pickle_safe(exc), traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(_READY)
    if cfg["fault"]:  # scripted faults (tests / bench_recovery) only
        conn = FaultInjector(conn, cfg["fault"], state.incarnation)
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break
        if cmd.op == "close":
            conn.send(("ok", None, None, 0.0))
            break
        conn.send(state.handle(cmd))
    state.close()
    conn.close()


class _Loopback:
    """A shard served in the caller's process.

    Stands in for both the worker's pipe and its process: ``send``
    serves the command through :meth:`_WorkerState.handle` and ``recv``
    returns the reply.  Nothing is forked, no segment exists (payloads
    pass by reference), and the shard is always ready, so the engine's
    poll, deadline and recovery branches never fire.
    """

    def __init__(self, cfg: dict):
        self.state: Optional[_WorkerState] = _WorkerState(cfg)
        self._reply: Any = _READY

    def send(self, cmd: Command) -> None:
        if cmd.op == "close":
            self.kill()
        else:
            self._reply = self.state.handle(cmd)

    def recv(self):
        reply, self._reply = self._reply, None
        return reply

    def poll(self, timeout: float = 0.0) -> bool:
        return True

    def is_alive(self) -> bool:
        return self.state is not None

    def join(self, timeout: Optional[float] = None) -> None:
        pass

    def kill(self) -> None:
        if self.state is not None:
            self.state.close()
            self.state = None

    terminate = close = kill


def _pickle_safe(exc: BaseException) -> Optional[BaseException]:
    """The exception itself when it survives pickling, else ``None``."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return None


# ------------------------------------------------------------ parent side


class _WorkerHandle:
    __slots__ = ("worker_id", "proc", "conn", "seg", "pending", "sent_t")

    def __init__(self, worker_id, proc, conn, seg):
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.seg = seg
        #: The one in-flight command (at most one per worker at any
        #: time), its payload as the caller gave it, for a supervised
        #: re-issue.
        self.pending: Optional[Command] = None
        #: ``time.monotonic()`` of the in-flight send (deadline base).
        self.sent_t: Optional[float] = None


def _finalize_pool(handles: List[_WorkerHandle]) -> None:
    """Idempotent hard cleanup: kill workers, unlink shared memory.

    Registered with ``weakref.finalize`` so segments never leak even if
    the engine is dropped without ``close()``; ``close()`` invokes it
    after the graceful shutdown handshake.  Escalates ``terminate`` →
    ``kill`` and reports any pid that survives both.
    """
    for h in handles:
        if h.proc.is_alive():
            h.proc.terminate()
    for h in handles:
        if h.proc.is_alive():
            h.proc.join(timeout=5)
        if h.proc.is_alive():
            h.proc.kill()
            h.proc.join(timeout=5)
        if h.proc.is_alive():  # pragma: no cover - kill-resistant process
            print(
                f"[repro] leaked worker process: pid {h.proc.pid} "
                f"(worker {h.worker_id}) survived terminate+kill",
                file=sys.stderr,
            )
        try:
            h.conn.close()
        except OSError:
            pass
        if h.seg is not None:
            shm = h.seg.shm
            h.seg.release()
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
            h.seg = None


class _ParallelEngine:
    """Shared machinery: shard pool, transport, scatter/gather, obs.

    Not used directly — see :class:`ParallelShardedIndex` /
    :class:`ParallelShardedStore`.  ``workers`` is the shard count; with
    ``transport="loopback"`` the shards run in the caller's process.
    """

    def __init__(
        self,
        spec,
        workers: int,
        perf: Optional[PerfContext] = None,
        overrides: Optional[dict] = None,
        capacity: int = DEFAULT_CAPACITY,
        transport: str = "auto",
        trace_rate: float = 0.0,
        span_rate: float = 0.0,
        stall_threshold_s: float = DEFAULT_STALL_THRESHOLD_S,
        flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
        seed: int = 0,
        store: bool = False,
        record_bytes: int = 208,
        slots_per_page: int = 16,
        restart_budget: int = 0,
        worker_timeout_s: Optional[float] = None,
        degraded: str = "fail",
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        fault_plan: Optional[FaultPlan] = None,
        close_timeout_s: float = 5.0,
    ):
        from repro.registry import resolve  # deferred: avoids import cycle

        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if transport not in ("auto", "shm", "pipe", "loopback"):
            raise ReproError(
                f"transport must be auto/shm/pipe/loopback, got {transport!r}"
            )
        if transport == "loopback" and fault_plan is not None:
            raise ReproError(
                "fault_plan needs a process transport: a scripted kill of "
                "a loopback shard would kill the caller's own process"
            )
        if worker_timeout_s is not None and worker_timeout_s <= 0:
            raise ReproError(
                f"worker_timeout_s must be > 0, got {worker_timeout_s}"
            )
        spec = resolve(spec) if isinstance(spec, str) else spec
        overrides = dict(overrides or {})

        self.spec = spec
        self.workers = workers
        self.transport = transport
        self.perf = perf if perf is not None else PerfContext()
        #: A cheap local instance for name/sortedness/capability probing.
        self.probe = spec.build(PerfContext(), **overrides)
        self.router = ShardRouter(workers)
        self._boundaries = as_u64(self.router.boundaries)
        self._capacity = capacity
        self._store_mode = store
        self._closed = False
        self._broken: Optional[str] = None
        #: Wall nanoseconds per op, one record per batched shipment
        #: (parent side).
        self.wall_latency = LogHistogram()
        #: Ops routed per worker (balance observability).
        self.worker_ops = [0] * workers
        #: Causal span recorder (None = tracing off: no per-request cost
        #: beyond one ``is None`` check).
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(rate=span_rate, seed=seed, prefix="p")
            if span_rate > 0.0
            else None
        )
        #: Reply books, stall detection, flight recorders (always on —
        #: it only touches the per-command send/reply path).
        self.health = HealthMonitor(
            workers,
            stall_threshold_s=stall_threshold_s,
            flight_capacity=flight_capacity,
        )
        self._broken_err: Optional[WorkerDiedError] = None
        #: Engine-side recovery telemetry (restart counters, recovery
        #: latency histogram, shard-unavailable counters); merged into
        #: the caller's registry by :meth:`drain_obs`.
        self.metrics = MetricsRegistry()
        self._worker_timeout_s = worker_timeout_s
        self._close_timeout_s = close_timeout_s
        self._fault_plan = fault_plan
        #: Per-shard out-of-service mask (``degraded="partial"`` only).
        self._down = [False] * workers
        #: Monotone per-worker mutation tokens (idempotent replay).
        self._tokens = [0] * workers
        self._incarnations = [0] * workers
        #: Retained bulk partition per worker — the rebuild recipe, kept
        #: (with the journal) only when a recovery can read it.
        self._recoverable = restart_budget > 0
        self._base_items: List[Optional[List[Tuple[int, Any]]]] = (
            [None] * workers
        )
        #: Ordered acknowledged mutation commands per worker (tokens
        #: kept, spans dropped) — replayed verbatim after a rebuild.
        self._journal: List[List[Command]] = [[] for _ in range(workers)]
        #: Non-None only while a bulk load is in flight: workers whose
        #: partition a mid-load recovery already rebuilt end-to-end.
        self._bulk_done: Optional[set] = None
        self.supervisor = WorkerSupervisor(
            self,
            restart_budget=restart_budget,
            degraded=degraded,
            backoff_base_s=backoff_base_s,
            backoff_cap_s=backoff_cap_s,
        )

        methods = multiprocessing.get_all_start_methods()
        self._start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self._start_method)
        use_shm = transport in ("auto", "shm")
        self._overrides = overrides
        self._record_bytes = record_bytes
        self._slots_per_page = slots_per_page
        self._trace_rate = trace_rate
        self._seed = seed
        self._handles: List[_WorkerHandle] = []
        try:
            for w in range(workers):
                seg = None
                if use_shm:
                    try:
                        shm = shared_memory.SharedMemory(
                            create=True, size=_Segment.nbytes(capacity)
                        )
                        seg = _Segment(shm, capacity)
                    except OSError:
                        if transport == "shm":
                            raise
                        use_shm = False  # pickle everything for the rest
                self._handles.append(self._spawn_handle(w, seg))
            self._finalizer = weakref.finalize(
                self, _finalize_pool, self._handles
            )
            for h in self._handles:  # wait for builds; surfaces errors
                self._recv(h, recover=False)
        except BaseException:
            _finalize_pool(self._handles)
            raise

    # -- worker lifecycle ----------------------------------------------

    def _spawn_handle(self, w: int, seg: Optional[_Segment]) -> _WorkerHandle:
        """Start worker ``w`` — a process over ``seg`` (shared across
        respawns), or a loopback shard."""
        cfg = {
            "worker": w,
            "spec": self.spec.cli_name,
            "overrides": self._overrides,
            "store": self._store_mode,
            "record_bytes": self._record_bytes,
            "slots_per_page": self._slots_per_page,
            "shm_name": seg.shm.name if seg is not None else None,
            "capacity": self._capacity,
            "start_method": self._start_method,
            "trace_rate": self._trace_rate,
            "seed": self._seed,
            "incarnation": self._incarnations[w],
            "fault": (
                self._fault_plan.for_worker(w) if self._fault_plan else []
            ),
        }
        if self.transport == "loopback":
            shard = _Loopback(cfg)
            return _WorkerHandle(w, shard, shard, None)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, cfg),
            daemon=True,
            name=f"repro-shard-{w}",
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(w, proc, parent_conn, seg)

    def _respawn(self, w: int, seg: Optional[_Segment]) -> _WorkerHandle:
        """Spawn the next incarnation of worker ``w`` and await its build.

        The shared-memory segment is reused: the parent owns it and it
        survives the worker's death.
        """
        self._incarnations[w] += 1
        h = self._spawn_handle(w, seg)
        self._direct(h)  # ready handshake
        return h

    def _rebuild_worker(self, h: _WorkerHandle) -> None:
        """Reconstruct a respawned worker's state: bulk part + journal.

        Drops the replies' perf deltas — replayed work was already
        charged when first acknowledged, so recovery leaves the parent's
        simulated totals bit-identical to an unfailed run.
        """
        w = h.worker_id
        part = self._base_items[w]
        if part is not None:
            step = self._capacity
            for lo in range(0, len(part), step):
                self._direct(h, Command("bulk_chunk", part[lo : lo + step]))
            self._direct(h, Command("bulk_end"))
        for cmd in self._journal[w]:
            self._direct(h, cmd)

    def _direct(self, h: _WorkerHandle, cmd: Optional[Command] = None):
        """Send ``cmd`` (if any) and await one reply, outside health and
        perf accounting (recovery path)."""
        if cmd is not None:
            try:
                h.conn.send(cmd._replace(payload=_encode(cmd.payload, h.seg)))
            except (BrokenPipeError, OSError):
                raise _RecoveryFailed("send")
        while not h.conn.poll(0.05):
            if not h.proc.is_alive():
                raise _RecoveryFailed("recv")
        try:
            reply = h.conn.recv()
        except (EOFError, OSError):
            raise _RecoveryFailed("recv")
        if reply[0] == "err":
            _, exc, tb = reply
            if exc is not None:
                raise exc
            raise ReproError(
                f"shard worker {h.worker_id} failed during recovery:\n{tb}"
            )

    # -- low-level transport ------------------------------------------

    def _ensure_live(self) -> None:
        if self._closed:
            raise ReproError("parallel engine is closed")
        if self._broken:
            if self._broken_err is not None:
                raise self._broken_err
            raise WorkerDiedError(self._broken)

    def _send(self, h: _WorkerHandle, cmd: Command) -> None:
        """Ship one command, keeping it for a supervised re-issue.

        Send errors are swallowed — every command has exactly one
        matching ``_recv``, which is where death is detected and
        recovery decided.
        """
        self.health.sent(h.worker_id, cmd.op, span_id=cmd.span)
        h.pending = cmd
        h.sent_t = time.monotonic()
        try:
            h.conn.send(cmd._replace(payload=_encode(cmd.payload, h.seg)))
        except (BrokenPipeError, OSError):
            pass

    def _died(self, h: _WorkerHandle, cmd_name: str):
        """Unsupervised fail-stop (worker build phase): latch broken."""
        h.proc.join(timeout=1)
        self.health.died(h.worker_id)
        flight = self.health.flight(h.worker_id)
        msg = (
            f"shard worker {h.worker_id} (pid {h.proc.pid}) died with exit "
            f"code {h.proc.exitcode} while serving {cmd_name!r}; the "
            f"engine cannot answer further operations"
        )
        if flight:
            msg += "\nflight recorder (most recent last):\n" + format_flight(
                flight
            )
        self._broken = msg
        self._broken_err = WorkerDiedError(
            msg,
            worker_id=h.worker_id,
            pid=h.proc.pid,
            exitcode=h.proc.exitcode,
            flight=[e.to_dict() for e in flight],
        )
        raise self._broken_err

    def _recv(self, h: _WorkerHandle, recover: bool = True):
        """One decoded reply; surfaces worker death instead of hanging.

        With ``recover`` (every post-build command), a death or
        deadline overrun routes through the supervisor, which either
        returns the re-issued command's reply — the caller never learns
        a failure happened — or raises the degradation error.
        """
        cmd_name = h.pending.op if h.pending is not None else "build"
        deadline = None
        if (
            recover
            and self._worker_timeout_s is not None
            and h.sent_t is not None
        ):
            deadline = h.sent_t + self._worker_timeout_s
        while not h.conn.poll(0.05):
            if not h.proc.is_alive():
                if not recover:
                    self._died(h, cmd_name)
                return self.supervisor.handle_failure(h, cmd_name, "died")
            if deadline is not None and time.monotonic() > deadline:
                h.proc.kill()
                h.proc.join(timeout=5)
                self.health.timeout(h.worker_id)
                return self.supervisor.handle_failure(h, cmd_name, "timeout")
            if self.health.waiting(h.worker_id):
                print(
                    f"[repro] shard worker {h.worker_id} stalled: no reply "
                    f"for {self.health.stall_threshold_s:.1f}s while serving "
                    f"{cmd_name!r}",
                    file=sys.stderr,
                )
        try:
            reply = h.conn.recv()
        except (EOFError, OSError):
            if not recover:
                self._died(h, cmd_name)
            return self.supervisor.handle_failure(h, cmd_name, "died")
        h.pending = None
        h.sent_t = None
        if reply[0] == "err":
            _, exc, tb = reply
            self.health.reply(h.worker_id, 0.0)
            if exc is not None:
                raise exc
            raise ReproError(
                f"shard worker {h.worker_id} failed serving {cmd_name!r}:\n{tb}"
            )
        _, wire, delta, wall_ns = reply
        self.health.reply(h.worker_id, wall_ns)
        if delta is not None:
            self.perf.counters.add(delta)
        return _decode(wire, h.seg)

    def _fan_out(
        self,
        shipments: List[Tuple[int, Command, int]],
        parent: Optional[Span] = None,
        mutate: bool = False,
    ) -> List[Any]:
        """Send ``(worker, command, ops)`` shipments — at most one per
        worker — then return their decoded replies in the same order.

        Everything shipments share happens here.  A shard out of service
        (or one that goes down mid-call) answers a
        :class:`ShardUnavailableError` in its slot, its ``ops`` counted
        unavailable; a live one adds ``ops`` to :attr:`worker_ops`.
        Under a sampled ``parent`` span each shipment gets a shard span
        whose id rides the command.  With ``mutate`` each command draws
        its worker's next replay token and joins the journal once
        acknowledged.  A worker-side error is raised only after every
        other reply has been read, so no reply is left in a pipe.
        """
        replies: List[Any] = [None] * len(shipments)
        error: Optional[Exception] = None
        inflight = []
        for i, (w, cmd, ops) in enumerate(shipments):
            if self._down[w]:
                self._count_unavailable(w, ops)
                replies[i] = ShardUnavailableError(
                    f"shard {w} is out of service", worker_id=w, lost_ops=ops
                )
                continue
            self.worker_ops[w] += ops
            span = None
            if parent is not None:
                span = self.spans.start(
                    f"shard:{w}", "shard", parent=parent.span_id, worker=w,
                    ops=ops,
                )
            token = None
            if mutate:
                self._tokens[w] += 1
                token = self._tokens[w]
            cmd = Command(
                cmd.op, cmd.payload, cmd.arg, token,
                None if span is None else span.span_id,
            )
            h = self._handles[w]
            self._send(h, cmd)
            inflight.append((i, h, ops, cmd, span))
        for i, h, ops, cmd, span in inflight:
            try:
                replies[i] = self._recv(h)
                if mutate and self._recoverable:
                    self._journal[h.worker_id].append(cmd._replace(span=None))
            except ShardUnavailableError as exc:
                self._count_unavailable(h.worker_id, ops)
                replies[i] = exc
            except Exception as exc:
                error = error or exc
            self._finish(span)
        if error is not None:
            raise error
        return replies

    # -- degraded-mode accounting --------------------------------------

    def _count_unavailable(self, w: int, n: int) -> None:
        if n:
            self.metrics.counter(
                "repro_shard_unavailable_total", worker=str(w)
            ).inc(n)

    def availability(self) -> List[bool]:
        """Per-shard serving mask; ``False`` = degraded out of service."""
        return [not d for d in self._down]

    # -- span plumbing -------------------------------------------------

    def _req_span(self, name: str, **attrs) -> Optional[Span]:
        """Open a request-root span, or None (tracing off / not sampled)."""
        if self.spans is None or not self.spans.sample():
            return None
        return self.spans.start(f"request:{name}", "request", **attrs)

    def _finish(self, span: Optional[Span]) -> None:
        if span is not None:
            self.spans.finish(span)

    # -- scalar calls --------------------------------------------------

    def _call(
        self, w: int, method: str, args: tuple = (), mutate: bool = False
    ):
        """Run ``method(*args)`` on worker ``w``'s shard."""
        self._ensure_live()
        req = self._req_span(method, worker=w)
        (reply,) = self._fan_out(
            [(w, Command("call", args, method), 1)], req, mutate
        )
        self._finish(req)
        if isinstance(reply, ShardUnavailableError):
            if mutate:
                raise reply
            if method == "range":
                return []
            return False if method == "contains" else None
        return reply

    def _keyed(self, method: str, key: int, *rest, mutate: bool = False):
        """``method(key, *rest)`` on the shard owning ``key``."""
        return self._call(
            self.router.shard_of(key), method, (key, *rest), mutate
        )

    def _write(self, method: str, key: int, value: Any):
        """A key write (insert, upsert, update or put) on the shard owning
        ``key``; a key outside uint64 is refused before any shard sees
        the call."""
        check_uint64(key)
        return self._keyed(method, key, value, mutate=True)

    def _broadcast(self, cmd: Sequence) -> List[Any]:
        """Run ``cmd`` (a :class:`Command`, or a tuple of its leading
        fields) on every live shard; returns the survivors' replies."""
        self._ensure_live()
        cmd = Command(*cmd)
        replies = self._fan_out([(w, cmd, 0) for w in range(self.workers)])
        return [r for r in replies if not isinstance(r, ShardUnavailableError)]

    # -- scatter/gather ------------------------------------------------

    def _scatter(self, keys: List[Any], entries: List[Any]):
        """Group ``entries`` by the worker owning each of ``keys``.

        Returns ``(order, pieces)``: every non-empty ``(worker,
        entries)`` group in worker order, and the input position of each
        grouped entry (None for one worker: the identity).  The sort is
        stable, so in-shard order equals input order and duplicate-key
        semantics and per-shard charge streams match the in-process
        scatter bit-for-bit.  uint64 keys route through one vectorized
        ``searchsorted``, any other key through ``ShardRouter.shard_of``.
        """
        if self.workers == 1:
            return None, [(0, entries)]
        arr = as_u64(keys) if self._boundaries is not None else None
        if arr is not None:
            sid = np.searchsorted(self._boundaries, arr, side="right")
        else:
            sid = np.array([self.router.shard_of(k) for k in keys], np.intp)
        order = np.argsort(sid, kind="stable")
        if arr is not None and entries is keys:
            grouped = arr[order]  # uint64 pieces go straight to the lanes
        else:
            grouped = [entries[i] for i in order.tolist()]
        pieces = []
        off = 0
        for w, n in enumerate(np.bincount(sid, minlength=self.workers)):
            if n:
                pieces.append((w, grouped[off : off + n]))
                off += n
        return order, pieces

    def _batch(
        self, entries: Sequence, mode: Optional[str] = None
    ) -> Optional[List[Any]]:
        """A batched get (``mode`` None) or write (``mode`` insert, upsert
        or put): ``capacity``-sized chunks, each scattered by shard,
        shipped as one command per worker and gathered back into input
        order.  Returns the per-entry values (gets) or old values
        (upserts).

        Reads on an out-of-service shard answer ``None``; writes on one
        raise :class:`ShardUnavailableError` once the surviving shards
        have been applied.  A write batch holding a key outside uint64 is
        refused whole before the first chunk ships, so no shard applies
        its part of it.
        """
        self._ensure_live()
        entries = list(entries)
        if mode is not None:
            check_uint64_items(entries)
        op = "get_many" if mode is None else "write_many"
        want = mode in (None, "upsert")
        req = self._req_span(
            op if mode is None else f"{op}:{mode}", ops=len(entries)
        )
        out: Optional[List[Any]] = [None] * len(entries) if want else None
        lost: List[Tuple[int, int]] = []
        step = self._capacity
        for base in range(0, len(entries), step):
            t0 = time.perf_counter()
            chunk = entries[base : base + step]
            batch = None
            if req is not None:
                batch = self.spans.start(
                    f"batch:{mode or 'get'}", "batch", parent=req.span_id,
                    base=base, ops=len(chunk),
                )
            keys = chunk if mode is None else [k for k, _ in chunk]
            order, pieces = self._scatter(keys, chunk)
            replies = self._fan_out(
                [(w, Command(op, p, mode), len(p)) for w, p in pieces],
                batch,
                mutate=mode is not None,
            )
            gathered: List[Any] = []
            for (w, piece), reply in zip(pieces, replies):
                if isinstance(reply, ShardUnavailableError):
                    lost.append((w, len(piece)))
                if want:
                    gathered.extend(
                        reply if type(reply) is list else [None] * len(piece)
                    )
            if want:
                if order is None:
                    out[base : base + len(gathered)] = gathered
                else:
                    for pos, v in zip(order.tolist(), gathered):
                        out[base + pos] = v
            self._finish(batch)
            self.wall_latency.record(
                (time.perf_counter() - t0) * 1e9 / len(chunk)
            )
        self._finish(req)
        if mode is not None and lost:
            total = sum(n for _, n in lost)
            shards = sorted({w for w, _ in lost})
            raise ShardUnavailableError(
                f"write batch lost {total} op(s) on out-of-service "
                f"shard(s) {shards}; surviving shards were applied",
                worker_id=shards[0],
                lost_ops=total,
            )
        return out

    def _scan_many(
        self, starts: Sequence[int], count: int
    ) -> List[List[Tuple[int, Any]]]:
        """Batched cross-worker scans via grouped spill rounds.

        Starts open on their home worker; scans still short of ``count``
        after draining it spill to the next worker, regrouped by
        ``(worker, remaining)`` so every round ships one command per
        group and capacity chunk, one per worker at a time.  The
        per-worker call multiset equals sequential scalar ``scan``
        calls, so simulated charges match bit-for-bit.  A count of 0 or
        less answers ``[]`` per start without a round trip.
        """
        self._ensure_live()
        if count <= 0:
            return [[] for _ in starts]
        starts = list(starts)
        req = self._req_span("scan_many", ops=len(starts), count=count)
        results: List[List[Tuple[int, Any]]] = [[] for _ in starts]
        pending = [
            (i, self.router.shard_of(start), count)
            for i, start in enumerate(starts)
        ]
        step = self._capacity
        spill_round = 0
        while pending:
            batch = None
            if req is not None:
                batch = self.spans.start(
                    f"batch:scan-round{spill_round}", "batch",
                    parent=req.span_id, ops=len(pending),
                )
            spill_round += 1
            groups: dict = {}
            for i, w, rem in pending:
                groups.setdefault((w, rem), []).append(i)
            queues: List[list] = [[] for _ in range(self.workers)]
            for (w, rem), members in sorted(groups.items()):
                for lo in range(0, len(members), step):
                    queues[w].append((rem, members[lo : lo + step]))
            pending = []
            while any(queues):
                t0 = time.perf_counter()
                wave = [(w, q.pop(0)) for w, q in enumerate(queues) if q]
                replies = self._fan_out(
                    [
                        (w, Command("scan_many", [starts[i] for i in m], rem),
                         len(m))
                        for w, (rem, m) in wave
                    ],
                    batch,
                )
                ops = 0
                for (w, (rem, members)), runs in zip(wave, replies):
                    if isinstance(runs, ShardUnavailableError):
                        # A down shard contributes nothing; its scans
                        # spill past it (a gap, counted per skipped op).
                        runs = [[] for _ in members]
                    for i, run in zip(members, runs):
                        results[i].extend(run)
                        if len(results[i]) < count and w + 1 < self.workers:
                            pending.append((i, w + 1, count - len(results[i])))
                    ops += len(members)
                self.wall_latency.record(
                    (time.perf_counter() - t0) * 1e9 / ops
                )
            self._finish(batch)
        self._finish(req)
        return results

    # -- construction --------------------------------------------------

    def _bulk_load(self, items: Sequence[Tuple[int, Any]]) -> None:
        """Ship each worker its range partition, then build in parallel.

        ``items`` arrive sorted ascending by unique key (the ``bulk_load``
        contract), so partitioning is a boundary cut, not a scatter.  A
        key outside uint64 is refused before the router or any shard
        changes.
        """
        self._ensure_live()
        check_uint64_items(items)
        if any(self._down):
            down = [w for w, d in enumerate(self._down) if d]
            raise ShardUnavailableError(
                f"cannot bulk load while shard(s) {down} are out of service",
                worker_id=down[0],
            )
        items = list(items)
        req = self._req_span("bulk_load", ops=len(items))
        keys = [k for k, _ in items]
        self.router = ShardRouter.from_keys(keys, self.workers)
        self._boundaries = as_u64(self.router.boundaries)
        cuts = [0] + [bisect_left(keys, b) for b in self.router.boundaries]
        cuts.append(len(items))
        parts = [items[cuts[w] : cuts[w + 1]] for w in range(self.workers)]
        # Retain the rebuild recipe: a recovery rebuilds worker w from
        # parts[w] + its (now reset) mutation journal.  A death while
        # shipping rebuilds the *whole* part and marks w done, so every
        # round below skips it.
        if self._recoverable:
            self._base_items = parts
        self._journal = [[] for _ in range(self.workers)]
        self._bulk_done = set()
        step = self._capacity

        def rounds():
            # One chunk in flight per worker, then bulk_end to all
            # workers at once so the builds overlap.
            for lo in range(0, max(map(len, parts)), step):
                yield [
                    (w, Command("bulk_chunk", part[lo : lo + step]), 0)
                    for w, part in enumerate(parts)
                    if lo < len(part) and w not in self._bulk_done
                ]
            yield [
                (w, Command("bulk_end"), 0)
                for w in range(self.workers)
                if w not in self._bulk_done
            ]

        try:
            for shipments in rounds():
                for reply in self._fan_out(shipments, req):
                    if isinstance(reply, ShardUnavailableError):
                        raise reply
        finally:
            self._bulk_done = None
        self._finish(req)

    # -- lifecycle -----------------------------------------------------

    def drain_obs(
        self,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ) -> List[dict]:
        """Take every worker's ``{metrics, spans}`` collected since the
        last drain and merge it into the given parent-side instances.
        Returns the raw payloads.

        Lifecycle counts arrive as ``repro_trace_events_total`` series in
        the metrics.  Pass ``spans=engine.spans`` (or any recorder) to
        fold worker-side worker/event spans into the parent's request
        trees — their ids are globally unique by prefix, so parent links
        resolve after the merge.
        """
        payloads = self._broadcast(Command("obs"))
        for p in payloads:
            if metrics is not None:
                metrics.merge_from(p["metrics"])
            if spans is not None:
                spans.absorb(p["spans"])
        # Engine-side recovery telemetry (restarts, recovery latency,
        # shard-unavailable counts) lives in the parent, not a worker.
        if metrics is not None:
            metrics.merge_from(self.metrics)
            self.metrics = MetricsRegistry()
        return payloads

    @property
    def busy_ns(self) -> List[float]:
        """Per-worker wall ns spent serving commands (summed replies)."""
        return [wh.busy_ns for wh in self.health.workers]

    def worker_utilization(self) -> List[float]:
        """Per-worker share of total worker-side serving time (balance)."""
        busy = self.busy_ns
        total = sum(busy)
        if total <= 0:
            return [0.0] * self.workers
        return [b / total for b in busy]

    def close(self) -> None:
        """Shut the pool down; workers detach and the parent unlinks every
        shared-memory segment (no leaked ``/dev/shm`` entries).

        Workers get the close handshake and ``close_timeout_s`` to exit;
        the finalizer then escalates any laggard ``terminate`` → ``kill``
        and reports pids that survive both to stderr instead of silently
        leaking them.
        """
        if self._closed:
            return
        self._closed = True
        for h in self._handles:
            if h.proc.is_alive():
                try:
                    h.conn.send(Command("close"))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + self._close_timeout_s
        for h in self._handles:
            h.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- shared read-side API ------------------------------------------

    def stats(self) -> IndexStats:
        return merge_index_stats(
            self._broadcast(Command("call", (), "stats")),
            self._broadcast(Command("call", (), "len")),
        )

    def __len__(self) -> int:
        return sum(self._broadcast(Command("call", (), "len")))


class ParallelShardedIndex(_ParallelEngine, Index):
    """A registry index range-partitioned across shards, one per worker.

    Bit-identical answers to the flat index for any worker count and
    either transport (``tests/test_parallel_engine.py``); over a process
    transport each shard runs on its own core.  Build via
    :func:`parallel_sharded_index`, which picks the sorted variant.
    """

    def __init__(self, spec, workers: int, **kwargs):
        kwargs.pop("store", None)
        _ParallelEngine.__init__(self, spec, workers, store=False, **kwargs)
        Index.__init__(self, self.perf)
        self.name = f"parallel[{self.probe.name}]x{self.workers}"

    # construction / reads
    def bulk_load(self, items: Sequence[Tuple[int, Any]]) -> None:
        self._bulk_load(items)

    def get(self, key: int) -> Optional[Any]:
        return self._keyed("get", key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[Any]]:
        return self._batch(keys)

    # writes
    def insert(self, key: int, value: Any) -> None:
        self._write("insert", key, value)

    def insert_many(self, items: Sequence[Tuple[int, Any]]) -> None:
        self._batch(items, "insert")

    def upsert(self, key: int, value: Any) -> Optional[Any]:
        return self._write("upsert", key, value)

    def upsert_many(
        self, items: Sequence[Tuple[int, Any]]
    ) -> List[Optional[Any]]:
        return self._batch(items, "upsert")

    def update(self, key: int, value: Any) -> bool:
        return self._write("update", key, value)

    def delete(self, key: int) -> bool:
        return self._keyed("delete", key, mutate=True)

    # metadata
    def size_bytes(self) -> int:
        return sum(self._broadcast(Command("call", (), "size_bytes")))

    def key_store_bytes(self) -> int:
        return sum(self._broadcast(Command("call", (), "key_store_bytes")))

    def capabilities(self):
        return self.probe.capabilities()


class ParallelSortedShardedIndex(ParallelShardedIndex, SortedIndex):
    """Sorted variant: cross-worker scans drain left-to-right in order."""

    def scan(self, start: int, count: int) -> List[Tuple[int, Any]]:
        """Scalar scan: :meth:`scan_many` of one start."""
        return self._scan_many([start], count)[0]

    def scan_many(
        self, starts: Sequence[int], count: int
    ) -> List[List[Tuple[int, Any]]]:
        return self._scan_many(starts, count)

    def range(self, lo: int, hi: int) -> Iterator[Tuple[int, Any]]:
        for w in range(self.router.shard_of(lo), self.workers):
            yield from self._call(w, "range", (lo, hi))


def parallel_sharded_index(
    spec, workers: int, **kwargs
) -> ParallelShardedIndex:
    """A :class:`ParallelShardedIndex` over ``spec``, sorted-aware.

    Probes a local instance and returns the sorted variant when the
    child supports ordered scans, so ``isinstance(x, SortedIndex)``
    gates scans exactly as for the unsharded index.
    """
    from repro.registry import resolve

    spec = resolve(spec) if isinstance(spec, str) else spec
    probe = spec.build(PerfContext(), **dict(kwargs.get("overrides") or {}))
    cls = (
        ParallelSortedShardedIndex
        if isinstance(probe, SortedIndex)
        else ParallelShardedIndex
    )
    return cls(spec, workers, **kwargs)


class ParallelShardedStore(_ParallelEngine):
    """K Viper stores behind the one-store API, one worker each.

    The store analogue of :class:`ParallelShardedIndex`: each worker
    owns a :class:`~repro.store.viper.ViperStore` (its own index *and*
    its own simulated NVM device) over its range partition.  ``.index``
    exposes a local representative instance so
    :class:`~repro.bench.runner.StoreAdapter` and the CLI name/sortedness
    probes keep working unchanged.
    """

    def __init__(self, spec, workers: int, **kwargs):
        kwargs.pop("store", None)
        _ParallelEngine.__init__(self, spec, workers, store=True, **kwargs)
        self.index = self.probe  # representative, for naming/capabilities
        self.name = f"parallel[{self.probe.name}]x{self.workers}"

    # -- operations ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[int, Any]]) -> None:
        self._bulk_load(items)

    def get(self, key: int) -> Optional[Any]:
        return self._keyed("get", key)

    def get_many(self, keys: Sequence[int]) -> List[Optional[Any]]:
        return self._batch(keys)

    def put(self, key: int, value: Any) -> None:
        self._write("put", key, value)

    def put_many(self, items: Sequence[Tuple[int, Any]]) -> None:
        self._batch(items, "put")

    def update(self, key: int, value: Any) -> bool:
        return self._write("update", key, value)

    def delete(self, key: int) -> bool:
        return self._keyed("delete", key, mutate=True)

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        """Scalar scan: :meth:`scan_many` of one start."""
        return self._scan_many([start_key], count)[0]

    def scan_many(
        self, starts: Sequence[int], count: int
    ) -> List[List[Tuple[int, Any]]]:
        return self._scan_many(starts, count)

    def __contains__(self, key: int) -> bool:
        return self._keyed("contains", key)

    def space_overhead(self) -> dict:
        out: dict = {}
        for part in self._broadcast(Command("call", (), "space_overhead")):
            for k, v in part.items():
                out[k] = out.get(k, 0) + v
        return out


def parallel_sharded_store(
    spec, workers: int, **kwargs
) -> ParallelShardedStore:
    """A :class:`ParallelShardedStore` over ``spec`` (name or IndexSpec)."""
    return ParallelShardedStore(spec, workers, **kwargs)


# ------------------------------------------------------------ measurement


def measure_scaling(
    spec,
    items: Sequence[Tuple[int, int]],
    ops,
    worker_counts: Sequence[int],
    batch_size: int = 2048,
    store: bool = True,
    transport: str = "auto",
    overrides: Optional[dict] = None,
) -> List[dict]:
    """Measured wall-clock scaling: run ``ops`` through a real engine at
    each worker count and report throughput rows.

    This is what ``--projection measured`` runs, on the CLI and in Figs
    12/14 — the closed-loop validation of the simulator's projection
    (:func:`repro.bench.thread_scaling`).  Rows
    carry ``throughput_mops`` (wall), ``wall_s``, ``mean_ns`` and
    ``p999_ns`` (per-op wall, from the engine's :attr:`wall_latency`), and
    ``utilization`` (per-worker busy share, min..max).
    """
    from repro.bench.runner import IndexAdapter, StoreAdapter, execute_ops

    ops = list(ops)
    rows: List[dict] = []
    for w in worker_counts:
        maker = parallel_sharded_store if store else parallel_sharded_index
        engine = maker(
            spec,
            workers=w,
            transport=transport,
            overrides=overrides,
        )
        try:
            engine.bulk_load(list(items))
            target = (
                StoreAdapter(engine) if store else IndexAdapter(engine)
            )
            t0 = time.perf_counter()
            execute_ops(target, ops, PerfContext(), batch_size=batch_size)
            wall_s = time.perf_counter() - t0
            latency = engine.wall_latency
            util = engine.worker_utilization()
            rows.append(
                {
                    "threads": w,
                    "wall_s": wall_s,
                    "throughput_mops": len(ops) / wall_s / 1e6,
                    "mean_ns": wall_s * 1e9 / max(1, len(ops)),
                    "p999_ns": (
                        latency.quantile(0.999)
                        if len(latency)
                        else wall_s * 1e9 / max(1, len(ops))
                    ),
                    "utilization": util,
                }
            )
        finally:
            engine.close()
    return rows
