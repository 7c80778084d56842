"""Worker supervision for the parallel engine: fail-stop → fail-recover.

The engine in :mod:`repro.concurrency.parallel` detects worker death
(broken pipe / dead process while a reply is pending) but, on its own,
can only latch itself permanently broken.  This module adds the
recovery path: a :class:`WorkerSupervisor` owned by the engine that, on
worker death or per-command timeout,

1. **respawns** the worker process (same registry spec recipe workers
   already build from — nothing large is ever pickled),
2. **rebuilds** its range partition from the engine's retained bulk
   partition plus an ordered per-worker journal of every mutation batch
   acknowledged since (state reconstruction, not process migration),
3. **replays** the journal and re-issues the one in-flight command,
   exactly once — the rebuild discards whatever the dead worker had
   partially applied, so a command that was applied-but-unacknowledged
   cannot be applied twice,
4. applies **bounded exponential backoff** between attempts and stops
   at a configurable **restart budget**, after which the engine
   degrades: ``degraded="fail"`` raises
   :class:`~repro.errors.WorkerDiedError` (the pre-supervision
   behaviour, and the default), ``degraded="partial"`` takes the shard
   out of service and keeps answering from the survivors
   (:class:`~repro.errors.ShardUnavailableError` for writes, ``None``
   holes + ``repro_shard_unavailable_total`` for reads).

Exactly-once, precisely
-----------------------
Replay tokens (monotone per-worker integers in the ``token`` field of
every mutation :class:`~repro.concurrency.parallel.Command`) make the
protocol idempotent at the transport layer: a worker remembers the
highest token it has applied and acknowledges — without re-applying —
any token at or below it.  The *load-bearing* guarantee, however, is
structural: a respawned worker starts from zero state and reconstructs
exclusively from the journal of **acknowledged** batches plus a single
re-issue of the unacknowledged in-flight command.  Both legs of the
classic two generals' ambiguity (did the dead worker apply the batch
before dying or not?) converge to the same rebuilt state.

Deterministic fault injection
-----------------------------
:class:`FaultPlan` ships picklable directives to workers inside their
build config: *kill yourself before/after serving the Nth command of
op X*, *drop reply N* (serve but stay silent — exercises the parent's
deadline path), *delay reply N by D seconds*.  Directives target a
specific worker **incarnation** (0 = original process, 1 = first
respawn, ...), so tests can script repeated failures and assert the
backoff/budget ladder deterministically.  A worker with directives
wraps its pipe in a :class:`FaultInjector`, which plays them; a worker
without any serves over the bare pipe.  Used by
``tests/test_parallel_engine.py`` and ``benchmarks/bench_recovery.py``.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.errors import ReproError, ShardUnavailableError, WorkerDiedError
from repro.obs.health import format_flight
from repro.obs.trace import EventType

if TYPE_CHECKING:  # pragma: no cover
    from repro.concurrency.parallel import _ParallelEngine, _WorkerHandle

#: Default first-attempt backoff; attempt k sleeps ``base * 2**k``.
DEFAULT_BACKOFF_BASE_S = 0.05
#: Ceiling on any single backoff sleep.
DEFAULT_BACKOFF_CAP_S = 2.0

_ACTIONS = ("kill", "drop", "delay")
_PHASES = ("before", "after")


@dataclass(frozen=True)
class FaultDirective:
    """One scripted fault, matched worker-side against served commands.

    ``op`` names the command (``"get_many"``, ``"write_many"``,
    ``"scan_many"``, ``"call"``, ``"bulk_chunk"``, ``"bulk_end"``,
    ``"close"``) or ``None`` for any command; ``nth`` is the
    1-based match ordinal *per op name*; ``when`` selects whether a
    ``kill`` fires before or **after** the command was applied (the
    applied-but-unacknowledged case that exactly-once replay must
    survive); ``incarnation`` pins the directive to one process
    generation of the worker.
    """

    worker: int
    action: str  # "kill" | "drop" | "delay"
    op: Optional[str] = None
    nth: int = 1
    when: str = "before"
    delay_s: float = 0.0
    incarnation: int = 0

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ReproError(
                f"fault action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.when not in _PHASES:
            raise ReproError(
                f"fault 'when' must be one of {_PHASES}, got {self.when!r}"
            )
        if self.nth < 1:
            raise ReproError(f"fault nth is 1-based, got {self.nth}")

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "action": self.action,
            "op": self.op,
            "nth": self.nth,
            "when": self.when,
            "delay_s": self.delay_s,
            "incarnation": self.incarnation,
        }


class FaultPlan:
    """A deterministic fault-injection script for the parallel engine.

    Build one, pass it as ``fault_plan=`` to the engine (or via the
    parallel factories); each worker receives the directives aimed at it
    inside its build config and enforces them while serving.

    >>> plan = (FaultPlan()
    ...         .kill(worker=1, op="get_many", nth=3)
    ...         .drop_reply(worker=0, op="write_many")
    ...         .delay(worker=1, seconds=0.2, op="scan_many", incarnation=1))
    """

    def __init__(self):
        self.directives: List[FaultDirective] = []

    def add(self, directive: FaultDirective) -> "FaultPlan":
        self.directives.append(directive)
        return self

    def kill(
        self,
        worker: int,
        op: Optional[str] = None,
        nth: int = 1,
        when: str = "before",
        incarnation: int = 0,
    ) -> "FaultPlan":
        """SIGKILL the worker around the matched command."""
        return self.add(
            FaultDirective(worker, "kill", op, nth, when, 0.0, incarnation)
        )

    def drop_reply(
        self,
        worker: int,
        op: Optional[str] = None,
        nth: int = 1,
        incarnation: int = 0,
    ) -> "FaultPlan":
        """Serve the matched command but never reply (simulated hang)."""
        return self.add(
            FaultDirective(worker, "drop", op, nth, "after", 0.0, incarnation)
        )

    def delay(
        self,
        worker: int,
        seconds: float,
        op: Optional[str] = None,
        nth: int = 1,
        incarnation: int = 0,
    ) -> "FaultPlan":
        """Sleep ``seconds`` before replying to the matched command."""
        return self.add(
            FaultDirective(worker, "delay", op, nth, "after", seconds,
                           incarnation)
        )

    def for_worker(self, worker: int) -> List[dict]:
        """Picklable directives for one worker (all incarnations — the
        worker filters by the incarnation in its own config)."""
        return [d.to_dict() for d in self.directives if d.worker == worker]


def match_faults(
    directives: List[dict], incarnation: int, op: str, ordinal: int,
    phase: str,
) -> List[dict]:
    """Directives firing for the ``ordinal``-th command named ``op`` at
    ``phase`` ("before"/"after") in process generation ``incarnation``.

    ``drop`` directives match at the "after" phase (the command is
    served, the reply is withheld).
    """
    out = []
    for d in directives:
        if d.get("incarnation", 0) != incarnation:
            continue
        if d["op"] is not None and d["op"] != op:
            continue
        if d["nth"] != ordinal:
            continue
        d_phase = d["when"] if d["action"] == "kill" else "after"
        if d_phase != phase:
            continue
        out.append(d)
    return out


class FaultInjector:
    """A worker's pipe, wrapped to play that worker's fault directives.

    Every command received counts toward its op's ordinal.  ``before``
    kills fire on receipt; the ``after`` directives fire on the
    command's reply: a kill (the command was applied but never
    acknowledged), a delay, or a drop (the reply is withheld).  A
    dropped ``close`` is swallowed on receipt instead, so the worker
    keeps serving and the parent has to escalate.
    """

    def __init__(self, conn, directives: List[dict], incarnation: int):
        self._conn = conn
        self._directives = directives
        self._incarnation = incarnation
        self._counts: Dict[str, int] = {}
        self._op: Optional[str] = None

    def _matched(self, phase: str) -> List[dict]:
        if self._op is None:  # nothing received yet
            return []
        return match_faults(
            self._directives, self._incarnation, self._op,
            self._counts[self._op], phase,
        )

    def recv(self):
        while True:
            cmd = self._conn.recv()
            self._op = cmd.op
            self._counts[cmd.op] = self._counts.get(cmd.op, 0) + 1
            if self._matched("before"):  # only kills fire before serving
                os.kill(os.getpid(), signal.SIGKILL)
            if cmd.op == "close" and any(
                d["action"] == "drop" for d in self._matched("after")
            ):
                continue  # scripted shutdown refusal
            return cmd

    def send(self, reply: Any) -> None:
        after = self._matched("after")
        actions = {d["action"] for d in after}
        if "kill" in actions:
            os.kill(os.getpid(), signal.SIGKILL)
        for d in after:
            if d["action"] == "delay":
                time.sleep(d["delay_s"])
        if "drop" not in actions:  # a drop serves silently
            self._conn.send(reply)

    def close(self) -> None:
        self._conn.close()


class _RecoveryFailed(Exception):
    """Internal: a respawn/rebuild step itself died (retry if budget)."""

    def __init__(self, step: str):
        super().__init__(step)
        self.step = step


class WorkerSupervisor:
    """Per-engine recovery policy: respawn, rebuild, replay, degrade.

    Owned by :class:`~repro.concurrency.parallel._ParallelEngine`; the
    engine routes every detected worker failure (death or deadline
    overrun) through :meth:`handle_failure`, which either returns the
    reply of the transparently re-issued in-flight command or raises
    the degradation error.  ``restart_budget`` counts recovery attempts
    **per worker** over the engine's lifetime; 0 (the default) keeps
    the original fail-stop behaviour exactly.
    """

    def __init__(
        self,
        engine: "_ParallelEngine",
        restart_budget: int = 0,
        degraded: str = "fail",
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if degraded not in ("fail", "partial"):
            raise ReproError(
                f"degraded must be 'fail' or 'partial', got {degraded!r}"
            )
        if restart_budget < 0:
            raise ReproError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        self.engine = engine
        self.restart_budget = restart_budget
        self.degraded = degraded
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = sleep
        #: Recovery attempts spent, per worker.
        self.restarts_used: List[int] = [0] * engine.workers
        #: Wall seconds of the last successful recovery, per worker.
        self.last_recovery_s: List[Optional[float]] = [None] * engine.workers

    # -- failure entry point ------------------------------------------

    def handle_failure(self, h: "_WorkerHandle", cmd_name: str, reason: str):
        """Recover worker ``h.worker_id`` or degrade the engine.

        Returns the decoded reply of the re-issued in-flight command
        when recovery succeeds (the engine's ``_recv`` returns it to the
        original call site, which never learns a failure happened).
        Raises :class:`WorkerDiedError` (``degraded="fail"``) or
        :class:`ShardUnavailableError` (``degraded="partial"``) once
        the restart budget is exhausted.
        """
        eng = self.engine
        w = h.worker_id
        eng.health.died(w)
        pending = h.pending  # the in-flight Command | None
        try:
            h.conn.close()
        except OSError:
            pass
        h.proc.join(timeout=1)

        while self.restarts_used[w] < self.restart_budget:
            attempt = self.restarts_used[w]
            self.restarts_used[w] += 1
            delay = min(
                self.backoff_base_s * (2 ** attempt), self.backoff_cap_s
            )
            if delay > 0:
                self._sleep(delay)
            eng.metrics.counter(
                "repro_worker_restarts_total", worker=str(w)
            ).inc()
            eng.perf.trace(
                EventType.WORKER_RESTART,
                index=getattr(eng, "name", ""),
                leaf=w,
                reason=reason,
                count=self.restarts_used[w],
            )
            rspan = None
            if eng.spans is not None:
                rspan = eng.spans.start(
                    f"recovery:{w}", "recovery", worker=w, reason=reason,
                    attempt=self.restarts_used[w],
                )
            t0 = time.perf_counter()
            nh = None
            try:
                nh = self._step(eng.spans, rspan, "respawn",
                                lambda: eng._respawn(w, h.seg))
                self._step(eng.spans, rspan, "rebuild",
                           lambda: eng._rebuild_worker(nh))
            except _RecoveryFailed as fail:
                if nh is not None:  # reap the half-recovered process
                    if nh.proc.is_alive():
                        nh.proc.kill()
                    nh.proc.join(timeout=1)
                    try:
                        nh.conn.close()
                    except OSError:
                        pass
                if eng.spans is not None and rspan is not None:
                    eng.spans.finish(rspan, outcome=f"failed:{fail.step}")
                print(
                    f"[repro] worker {w} recovery attempt "
                    f"{self.restarts_used[w]}/{self.restart_budget} failed "
                    f"during {fail.step}",
                    file=sys.stderr,
                )
                continue
            recovery_s = time.perf_counter() - t0
            self.last_recovery_s[w] = recovery_s
            eng._handles[w] = nh
            eng.metrics.histogram(
                "repro_worker_recovery_ns", worker=str(w)
            ).record(recovery_s * 1e9)
            eng.perf.trace(
                EventType.WORKER_RECOVERED,
                index=getattr(eng, "name", ""),
                leaf=w,
                reason=reason,
                count=self.restarts_used[w],
                cost_ns=recovery_s * 1e9,
            )
            if eng.spans is not None and rspan is not None:
                eng.spans.finish(rspan, outcome="recovered")
            if pending is None:
                return None
            # Mid-bulk-load death: the rebuild already shipped the full
            # partition (base_items holds the whole part) and built it,
            # so mark this worker done and synthesize the pending reply;
            # the bulk loop skips done workers from here on.
            if eng._bulk_done is not None and pending.op.startswith("bulk"):
                eng._bulk_done.add(w)
                return None
            # The command still holds its payload: re-encode and re-send.
            eng._send(nh, pending)
            return eng._recv(nh)

        return self._degrade(h, cmd_name, reason)

    def _step(self, spans, parent, name: str, fn):
        """Run one recovery stage under a child span; normalize failures."""
        span = None
        if spans is not None and parent is not None:
            span = spans.start(
                f"recovery:{name}", "recovery", parent=parent.span_id,
                worker=parent.worker,
            )
        try:
            result = fn()
        except _RecoveryFailed:
            if span is not None:
                spans.finish(span, outcome="failed")
            raise
        except (BrokenPipeError, EOFError, OSError):
            if span is not None:
                spans.finish(span, outcome="failed")
            raise _RecoveryFailed(name)
        if span is not None:
            spans.finish(span, outcome="ok")
        return result

    # -- degradation ---------------------------------------------------

    def _degrade(self, h: "_WorkerHandle", cmd_name: str, reason: str):
        eng = self.engine
        w = h.worker_id
        flight = eng.health.flight(w)
        detail = (
            f"timed out after {eng._worker_timeout_s:.1f}s"
            if reason == "timeout" and eng._worker_timeout_s is not None
            else f"died with exit code {h.proc.exitcode}"
        )
        used, budget = self.restarts_used[w], self.restart_budget
        if self.degraded == "partial":
            msg = (
                f"shard worker {w} (pid {h.proc.pid}) {detail} while serving "
                f"{cmd_name!r}; restart budget exhausted "
                f"({used}/{budget}), serving degraded without shard {w}"
            )
            eng._down[w] = True
            eng.metrics.counter(
                "repro_worker_down_total", worker=str(w)
            ).inc()
            eng.perf.trace(
                EventType.WORKER_DOWN,
                index=getattr(eng, "name", ""),
                leaf=w,
                reason=reason,
                count=used,
            )
            if flight:
                msg += (
                    "\nflight recorder (most recent last):\n"
                    + format_flight(flight)
                )
            raise ShardUnavailableError(msg, worker_id=w)
        msg = (
            f"shard worker {w} (pid {h.proc.pid}) {detail} while serving "
            f"{cmd_name!r}; the engine cannot answer further operations"
        )
        if used:
            msg += f"\nrestart budget exhausted ({used}/{budget})"
        if flight:
            msg += (
                "\nflight recorder (most recent last):\n"
                + format_flight(flight)
            )
        eng._broken = msg
        eng._broken_err = WorkerDiedError(
            msg,
            worker_id=w,
            pid=h.proc.pid,
            exitcode=h.proc.exitcode,
            flight=[e.to_dict() for e in flight],
            restarts=used,
            restart_budget=budget,
        )
        raise eng._broken_err
