"""Deterministic discrete-event simulator for multi-threaded execution.

The paper's Figs 12/14 plot aggregate throughput of N threads hammering
one index.  The shape of those curves is set by three interacting
effects, and this module models all three on one simulated clock:

1. **Service time** — how long one operation takes alone, taken from the
   measured single-thread baseline (mean + p99.9 of the cost-model run).
2. **Bandwidth contention** — every thread draws on one socket's memory
   bandwidth pool (:class:`~repro.perf.bandwidth.BandwidthModel`); past
   saturation every access slows by the oversubscription ratio.
3. **Concurrency control** — per the index's
   :class:`~repro.concurrency.spec.ConcurrencySpec`: writers serialise on
   a global lock or contend for fine-grained latch domains, optimistic
   readers retry when writers invalidate them, and blocking retrains
   stall every thread (XIndex/FINEdex).

The simulation is a classic event-heap design: each thread is an event
source replaying its own op stream; the heap orders op start times; each
pop resolves one operation — wait for its latch domain (and any blocking
retrain), charge the scheme's overhead events, hold the domain, schedule
the thread's next op at the finish time.  Everything is derived from the
seed and the op streams, so two runs with the same inputs produce the
same event schedule, the same latch-wait totals, and the same final
clock — the determinism contract ``tests/test_determinism.py`` pins.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.obs.spans import Span, SpanRecorder
from repro.obs.trace import EventType
from repro.perf.bandwidth import BandwidthModel
from repro.perf.cost_model import CostModel
from repro.perf.events import Counters, Event
from repro.perf.histogram import LogHistogram

from repro.concurrency.spec import ConcurrencySpec

#: Per-contender cacheline-bounce cost of sharing one global reader-writer
#: lock: every reader increments the same lock word, so each acquisition
#: ships the cacheline from whichever core touched it last.  This is what
#: keeps a globally locked index (ALEX) from scaling its *reads* — the
#: lock word itself saturates even when the workload is read-only.
RWLOCK_BOUNCE_NS = 12.0

#: One simulated operation: ``(key, is_write)``.
SimOp = Tuple[int, bool]

#: Golden-ratio multiplier spreading keys over latch domains (splitmix64's
#: first step); plain ``key % domains`` would alias with strided keys.
_DOMAIN_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def make_streams(
    threads: int,
    ops_per_thread: int,
    write_fraction: float,
    seed: int = 0,
) -> List[List[SimOp]]:
    """Deterministic per-thread op streams for the projection runs.

    Each thread gets an independent seeded RNG, so stream ``i`` is the
    same no matter how many threads run beside it — adding a thread adds
    load without reshuffling anyone else's keys.
    """
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(
            f"write_fraction must be in [0, 1], got {write_fraction}"
        )
    streams: List[List[SimOp]] = []
    for t in range(threads):
        rng = random.Random(seed * 1_000_003 + t)
        streams.append(
            [
                (rng.getrandbits(64), rng.random() < write_fraction)
                for _ in range(ops_per_thread)
            ]
        )
    return streams


@dataclass(frozen=True)
class OpProfile:
    """Single-thread measurement the simulator projects from."""

    #: Mean simulated latency of one operation, measured at 1 thread.
    mean_ns: float
    #: p99.9 simulated latency at 1 thread (drives the service-time tail).
    p999_ns: float
    #: Memory traffic per operation (drives bandwidth contention).
    bytes_per_op: float
    #: Writes between whole-structure retrain stalls (0 = never), as
    #: measured by :func:`retrain_cadence`.
    retrain_every: int = 0
    #: Simulated duration of one blocking retrain (:func:`retrain_cadence`).
    retrain_stall_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_ns <= 0:
            raise ValueError(f"mean_ns must be positive, got {self.mean_ns}")
        if self.retrain_every < 0:
            raise ValueError(
                f"retrain_every must be >= 0, got {self.retrain_every}"
            )


def retrain_cadence(stats, ops: int) -> Tuple[int, float]:
    """``(retrain_every, retrain_stall_ns)`` measured from one run.

    ``stats`` is the index's :class:`~repro.core.interfaces.IndexStats`
    after ``ops`` operations: a retrain fires every ``ops //
    retrain_count`` of them (at least 1) and stalls for its average
    retrained keys times ``retrain_key_ns``.  ``(0, 0.0)`` when nothing
    retrained.  The simulator charges the stall only for
    retrain-blocking indexes, so it is safe to pass for any index.
    """
    count = stats.retrain_count
    if count == 0 or ops == 0:
        return 0, 0.0
    key_ns = CostModel().retrain_key_ns
    return max(1, ops // count), (stats.retrain_keys / count) * key_ns


@dataclass(frozen=True)
class FailureModel:
    """Worker-failure model for fail-recover projection runs.

    Mirrors the parallel engine's supervision loop on the simulated
    clock: each simulated thread (= worker) fails with exponentially
    distributed inter-failure times of mean ``mtbf_ns``, then spends
    ``rebuild_ns`` respawning and rebuilding its partition before it can
    serve again.  Operations that land during a rebuild wait it out —
    the same stall a real client sees while the supervisor replays the
    in-flight command.  Failure draws come from their own per-thread
    RNGs, so attaching a model never perturbs the baseline event
    schedule (the determinism contract the simulator pins).
    """

    #: Mean time between failures of one worker, simulated ns.
    mtbf_ns: float
    #: Respawn + partition-rebuild + replay cost per failure, simulated ns.
    rebuild_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.mtbf_ns <= 0:
            raise ValueError(f"mtbf_ns must be positive, got {self.mtbf_ns}")
        if self.rebuild_ns < 0:
            raise ValueError(
                f"rebuild_ns must be >= 0, got {self.rebuild_ns}"
            )


@dataclass
class SimResult:
    """Everything one simulation run produces."""

    threads: int
    ops: int
    #: Simulated time at which the last thread finished.
    makespan_ns: float
    #: Aggregate throughput over the makespan.
    throughput_mops: float
    #: Per-op latency distribution (waits included).
    latency: LogHistogram
    #: Total time threads spent waiting for latches held by others.
    latch_wait_ns: float = 0.0
    #: Total time threads spent stalled behind blocking retrains.
    retrain_stall_ns: float = 0.0
    #: Number of blocking retrains that fired.
    retrain_stalls: int = 0
    #: Number of optimistic-read retries.
    retries: int = 0
    #: Contention events charged (LATCH_ACQUIRE / OPT_RETRY).
    counters: Counters = field(default_factory=Counters)
    #: Bandwidth slowdown factor applied to every service time.
    bandwidth_slowdown: float = 1.0
    #: Worker failures fired by the :class:`FailureModel` (0 without one).
    failures: int = 0
    #: Total time operations spent waiting out worker rebuilds.
    recovery_stall_ns: float = 0.0
    #: Per-op schedule ``(thread, start_ns, end_ns)`` in completion
    #: order, kept when ``simulate(..., keep_schedule=True)``.
    schedule: Optional[List[Tuple[int, float, float]]] = None

    @property
    def p999_ns(self) -> float:
        return self.latency.quantile(0.999)

    @property
    def mean_ns(self) -> float:
        return self.latency.mean()

    @property
    def latch_wait_share(self) -> float:
        """Fraction of total thread-time lost to latch waits."""
        busy = self.makespan_ns * self.threads
        return self.latch_wait_ns / busy if busy > 0 else 0.0

    @property
    def retrain_stall_share(self) -> float:
        busy = self.makespan_ns * self.threads
        return self.retrain_stall_ns / busy if busy > 0 else 0.0

    @property
    def recovery_stall_share(self) -> float:
        """Fraction of total thread-time lost to worker rebuilds."""
        busy = self.makespan_ns * self.threads
        return self.recovery_stall_ns / busy if busy > 0 else 0.0


def _service_times(profile: OpProfile) -> Tuple[float, float]:
    """Two-point service distribution matching the measured mean + tail.

    One op in a thousand costs the measured p99.9; the rest cost a base
    adjusted so the distribution's mean stays the measured mean.  The
    base is floored at 5% of the mean so a pathological tail (p99.9 over
    1000x the mean) cannot drive it non-positive.
    """
    base = (1000.0 * profile.mean_ns - profile.p999_ns) / 999.0
    return max(base, 0.05 * profile.mean_ns), max(
        profile.p999_ns, profile.mean_ns
    )


def simulate(
    spec: ConcurrencySpec,
    profile: OpProfile,
    streams: Sequence[Sequence[SimOp]],
    bandwidth: BandwidthModel = BandwidthModel(),
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    tracer=None,
    index_name: str = "",
    keep_schedule: bool = False,
    spans: Optional[SpanRecorder] = None,
    failure: Optional[FailureModel] = None,
) -> SimResult:
    """Run ``streams`` (one list of ops per thread) to completion.

    Scheme semantics per operation:

    * writes under ``global_lock`` / ``fine_grained_latch`` /
      ``optimistic_read`` (and ``lock_free``'s CAS, which occupies its
      domain the same way) wait for their latch domain to free, charge
      one ``LATCH_ACQUIRE``, then hold the domain for the service time;
    * reads under ``global_lock`` wait for any writer holding the lock
      and pay ``RWLOCK_BOUNCE_NS`` per concurrent thread for the shared
      lock word's cacheline; under ``fine_grained_latch`` they wait for
      their domain's writer and charge one shared ``LATCH_ACQUIRE``;
      under ``optimistic_read`` / ``lock_free`` they never wait, but
      optimistic reads retry (re-execute) with probability
      ``retry_base * write_fraction * (threads-1)/threads``, charging
      one ``OPT_RETRY`` per retry;
    * when ``spec.retrain_blocking`` and the profile measured retrains,
      every ``retrain_every``-th write extends its hold by the retrain
      stall and blocks the *whole structure*; ops that arrive during the
      stall wait it out (``RETRAIN_STALL`` wait accounting).

    A ``failure`` model (:class:`FailureModel`) treats each thread as a
    parallel-engine worker with the given MTBF: when a thread's next
    failure time passes, its current operation waits out the remaining
    rebuild window (``WORKER_RESTART`` emitted on the sim clock with the
    rebuild cost), modeling the supervisor's respawn-rebuild-replay
    cycle.  Failure draws use dedicated per-thread RNGs, so the baseline
    schedule with ``failure=None`` is untouched.

    A ``tracer`` (an :class:`repro.obs.trace.Tracer`) receives
    ``LATCH_WAIT`` / ``RETRAIN_STALL`` / ``WORKER_RESTART`` lifecycle
    events on the simulated clock: each is counted exactly, and a
    sampled one becomes a ``clock="sim"`` event span under its op's
    span (parentless when the op was not span-sampled).

    A ``spans`` recorder (:class:`repro.obs.spans.SpanRecorder`) gets one
    ``clock="sim"`` request span per sampled op, the thread as its
    worker, so a simulated trace is diffable against a measured one with
    the same exporters and attribution tooling.  The span recorder's and
    the tracer's RNGs are their own; attaching them never perturbs the
    event schedule.
    """
    cm = cost_model or CostModel()
    threads = len(streams)
    if threads == 0:
        raise ValueError("need at least one op stream")
    total_ops = sum(len(s) for s in streams)
    writes = sum(1 for s in streams for _, w in s if w)
    write_fraction = writes / total_ops if total_ops else 0.0

    slowdown = bandwidth.slowdown(
        threads, profile.bytes_per_op, profile.mean_ns
    )
    base_ns, tail_ns = _service_times(profile)
    base_ns *= slowdown
    tail_ns *= slowdown

    domains = spec.effective_domains
    domain_free_at = [0.0] * domains
    blocked_until = 0.0  # whole-structure retrain block
    writes_since_retrain = 0

    latch_ns = cm.latch_acquire_ns
    retry_ns = cm.opt_retry_ns
    retry_p = (
        spec.retry_base * write_fraction * (threads - 1) / threads
        if spec.scheme == "optimistic_read" and threads > 1
        else 0.0
    )
    bounce_ns = (
        RWLOCK_BOUNCE_NS * (threads - 1)
        if spec.scheme == "global_lock"
        else 0.0
    )
    stall_ns = (
        profile.retrain_stall_ns * slowdown
        if spec.retrain_blocking and profile.retrain_every > 0
        else 0.0
    )

    counters = Counters()
    latency = LogHistogram()
    latch_wait = 0.0
    stall_wait = 0.0
    stalls = 0
    retries = 0
    schedule: Optional[List[Tuple[int, float, float]]] = (
        [] if keep_schedule else None
    )

    rngs = [random.Random(seed * 9_176_923 + t) for t in range(threads)]
    # Failure state lives in its own RNG stream: the baseline draws
    # above are byte-identical with or without a model attached.
    failures = 0
    recovery_stall = 0.0
    next_fail: List[float] = []
    if failure is not None:
        frngs = [
            random.Random(seed * 7_919_113 + 31 * t) for t in range(threads)
        ]
        next_fail = [
            frngs[t].expovariate(1.0 / failure.mtbf_ns)
            for t in range(threads)
        ]
    # (ready_ns, tie, thread, op_index); the tie counter makes heap order
    # total, so equal-time events pop in a deterministic sequence.
    tie = 0
    heap: List[Tuple[float, int, int, int]] = []
    for t, stream in enumerate(streams):
        if stream:
            heapq.heappush(heap, (0.0, tie, t, 0))
            tie += 1
    finish = [0.0] * threads

    while heap:
        start, _, t, i = heapq.heappop(heap)
        key, is_write = streams[t][i]
        now = start
        op: Optional[Span] = None
        if spans is not None and spans.sample():
            op = Span(
                span_id=spans.next_id(),
                parent_id=None,
                name=f"op:{'write' if is_write else 'read'}",
                kind="request",
                start_ns=start,
                clock="sim",
                worker=t,
                attrs={"key": key, "thread": t, "op_index": i},
            )

        # Worker failure(s) due before this op: each costs a rebuild
        # window; the op waits out whatever part of it is still ahead.
        if failure is not None:
            while now >= next_fail[t]:
                recover_at = next_fail[t] + failure.rebuild_ns
                failures += 1
                if recover_at > now:
                    recovery_stall += recover_at - now
                    now = recover_at
                if tracer is not None:
                    tracer.emit(
                        EventType.WORKER_RESTART,
                        recover_at,
                        parent=op,
                        clock="sim",
                        index=index_name,
                        leaf=t,
                        reason="mtbf",
                        cost_ns=failure.rebuild_ns,
                    )
                next_fail[t] = recover_at + frngs[t].expovariate(
                    1.0 / failure.mtbf_ns
                )

        # Blocking retrain in progress: everyone waits it out.
        if now < blocked_until:
            waited = blocked_until - now
            stall_wait += waited
            now = blocked_until
            if tracer is not None:
                tracer.emit(
                    EventType.RETRAIN_STALL,
                    now,
                    parent=op,
                    clock="sim",
                    index=index_name,
                    reason="wait",
                    cost_ns=waited,
                )

        rng = rngs[t]
        service = tail_ns if rng.random() < 0.001 else base_ns
        domain = ((key * _DOMAIN_MIX) & _MASK64) % domains

        if is_write or spec.scheme in ("global_lock", "fine_grained_latch"):
            # Writers always contend for their domain; readers of the
            # latching schemes wait for a writer currently holding it.
            free_at = domain_free_at[domain]
            if free_at > now:
                waited = free_at - now
                latch_wait += waited
                now = free_at
                if tracer is not None:
                    tracer.emit(
                        EventType.LATCH_WAIT,
                        now,
                        parent=op,
                        clock="sim",
                        index=index_name,
                        leaf=domain,
                        reason="write" if is_write else "read",
                        cost_ns=waited,
                    )
            counters.counts[Event.LATCH_ACQUIRE] += 1
            now += latch_ns

        if not is_write:
            now += bounce_ns
            if retry_p > 0.0 and rng.random() < retry_p:
                counters.counts[Event.OPT_RETRY] += 1
                retries += 1
                now += retry_ns + service  # re-execute the read
        end = now + service

        if is_write:
            if (
                stall_ns > 0.0
                and profile.retrain_every > 0
            ):
                writes_since_retrain += 1
                if writes_since_retrain >= profile.retrain_every:
                    writes_since_retrain = 0
                    end += stall_ns
                    blocked_until = max(blocked_until, end)
                    stall_wait += stall_ns
                    stalls += 1
                    if tracer is not None:
                        tracer.emit(
                            EventType.RETRAIN_STALL,
                            end,
                            parent=op,
                            clock="sim",
                            index=index_name,
                            reason="retrain",
                            cost_ns=stall_ns,
                        )
            domain_free_at[domain] = end

        if op is not None:
            op.dur_ns = end - start
            spans.add(op)

        latency.record(end - start)
        if schedule is not None:
            schedule.append((t, start, end))
        finish[t] = end
        if i + 1 < len(streams[t]):
            heapq.heappush(heap, (end, tie, t, i + 1))
            tie += 1

    makespan = max(finish) if total_ops else 0.0
    throughput = total_ops / makespan * 1e3 if makespan > 0 else 0.0
    return SimResult(
        threads=threads,
        ops=total_ops,
        makespan_ns=makespan,
        throughput_mops=throughput,
        latency=latency,
        latch_wait_ns=latch_wait,
        retrain_stall_ns=stall_wait,
        retrain_stalls=stalls,
        retries=retries,
        counters=counters,
        bandwidth_slowdown=slowdown,
        failures=failures,
        recovery_stall_ns=recovery_stall,
        schedule=schedule,
    )


def simulate_scaling(
    spec: ConcurrencySpec,
    profile: OpProfile,
    threads: Sequence[int],
    write_fraction: float = 0.0,
    ops_per_thread: int = 800,
    bandwidth: BandwidthModel = BandwidthModel(),
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    tracer=None,
    index_name: str = "",
    spans: Optional[SpanRecorder] = None,
    failure: Optional[FailureModel] = None,
) -> List[SimResult]:
    """One :func:`simulate` run per thread count, shared streams prefix.

    Thread ``i``'s stream is identical at every thread count (see
    :func:`make_streams`), so the curves isolate the effect of *adding*
    threads rather than reshuffling the workload.
    """
    top = max(threads)
    streams = make_streams(top, ops_per_thread, write_fraction, seed=seed)
    return [
        simulate(
            spec,
            profile,
            streams[:t],
            bandwidth=bandwidth,
            cost_model=cost_model,
            seed=seed,
            tracer=tracer,
            index_name=index_name,
            spans=spans,
            failure=failure,
        )
        for t in threads
    ]
