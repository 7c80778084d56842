"""Worker health telemetry for the process-parallel serving engine.

Three mechanisms, all parent-side (a dead worker cannot be asked for a
postmortem, so everything needed for one is recorded before the death):

* **Reply books** — every worker reply carries the wall ns the worker
  spent serving the command; :class:`HealthMonitor` counts commands
  sent and done, sums that busy time, and keeps the time of the last
  reply per worker, so "when did worker 3 last answer" and "how busy
  was it" are answerable without extra round trips.
* **Stall detection** — while the parent waits on a reply it ticks
  :meth:`HealthMonitor.waiting`; the first tick past
  ``stall_threshold_s`` marks the in-flight command stalled and counts
  it (once per command).  The engine surfaces the first stall per
  worker as a stderr warning; a stalled worker that eventually replies
  clears back to healthy.
* **Flight recorder** — a bounded ring buffer (``collections.deque``)
  of the last N commands per worker: command name, span id (when the
  request was span-traced), send time, reply wall time, status.  On
  :class:`~repro.errors.WorkerDiedError` the dead worker's ring is
  attached to the exception and formatted into its message — the
  postmortem for "what was it doing when it died".
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional

#: Default seconds a single command may stay unanswered before the
#: worker is flagged stalled.  Generous on purpose: bulk builds of large
#: partitions legitimately take seconds.
DEFAULT_STALL_THRESHOLD_S = 5.0

#: Default flight-recorder depth per worker.
DEFAULT_FLIGHT_CAPACITY = 64


class FlightEntry:
    """One command in a worker's flight-recorder ring."""

    __slots__ = ("seq", "cmd", "span_id", "t_send", "wall_ns", "status")

    def __init__(self, seq: int, cmd: str, span_id: Optional[str], t_send: float):
        self.seq = seq
        self.cmd = cmd
        self.span_id = span_id
        self.t_send = t_send
        #: Worker-reported serving wall ns (None until the reply lands).
        self.wall_ns: Optional[float] = None
        self.status = "in-flight"

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "cmd": self.cmd,
            "span_id": self.span_id,
            "t_send": self.t_send,
            "wall_ns": self.wall_ns,
            "status": self.status,
        }

    def __repr__(self) -> str:
        wall = f"{self.wall_ns / 1e6:.2f}ms" if self.wall_ns is not None else "-"
        return f"#{self.seq} {self.cmd} [{self.status}] wall={wall}"


class WorkerHealth:
    """Mutable health snapshot of one worker."""

    __slots__ = (
        "worker_id",
        "cmds_sent",
        "cmds_done",
        "busy_ns",
        "last_reply_t",
        "stalls",
        "stalled",
        "in_flight",
    )

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.cmds_sent = 0
        self.cmds_done = 0
        #: Total worker-side serving wall ns, summed over replies.
        self.busy_ns = 0.0
        self.last_reply_t: Optional[float] = None
        self.stalls = 0
        self.stalled = False
        self.in_flight: Optional[FlightEntry] = None


class HealthMonitor:
    """Per-worker reply books, stall detection, and flight recorders.

    ``clock`` is injectable (defaults to ``time.monotonic``) so stall
    logic is testable without sleeping.
    """

    def __init__(
        self,
        workers: int,
        stall_threshold_s: float = DEFAULT_STALL_THRESHOLD_S,
        flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if flight_capacity < 1:
            raise ValueError(
                f"flight_capacity must be >= 1, got {flight_capacity}"
            )
        self.stall_threshold_s = stall_threshold_s
        self.clock = clock
        self.workers: List[WorkerHealth] = [
            WorkerHealth(w) for w in range(workers)
        ]
        self._flights: List["deque[FlightEntry]"] = [
            deque(maxlen=flight_capacity) for _ in range(workers)
        ]
        self._seq = 0

    # -- recording -----------------------------------------------------

    def sent(self, worker: int, cmd: str, span_id: Optional[str] = None) -> None:
        """A command left for ``worker`` (engine ``_send``)."""
        self._seq += 1
        entry = FlightEntry(self._seq, cmd, span_id, self.clock())
        wh = self.workers[worker]
        wh.cmds_sent += 1
        wh.in_flight = entry
        self._flights[worker].append(entry)

    def reply(self, worker: int, wall_ns: float) -> None:
        """A reply arrived from ``worker``, which spent ``wall_ns`` on it."""
        wh = self.workers[worker]
        wh.last_reply_t = self.clock()
        wh.stalled = False
        wh.busy_ns += wall_ns
        entry = wh.in_flight
        if entry is not None:
            # The build-ready handshake replies without a tracked send;
            # only real commands count as done.
            wh.cmds_done += 1
            entry.wall_ns = wall_ns
            if entry.status == "in-flight":
                entry.status = "ok"
            else:  # was "stalled": keep the mark, note it recovered
                entry.status = "stalled-ok"
            wh.in_flight = None

    def waiting(self, worker: int) -> bool:
        """Tick while blocked on ``worker``; True on the first threshold
        crossing of the current command (the caller may warn once)."""
        wh = self.workers[worker]
        entry = wh.in_flight
        if entry is None or wh.stalled:
            return False
        if self.clock() - entry.t_send >= self.stall_threshold_s:
            wh.stalled = True
            wh.stalls += 1
            entry.status = "stalled"
            return True
        return False

    def died(self, worker: int) -> None:
        """Mark the in-flight command (if any) as the one that killed it."""
        wh = self.workers[worker]
        if wh.in_flight is not None:
            wh.in_flight.status = "died"
            wh.in_flight = None

    def timeout(self, worker: int) -> None:
        """Mark the in-flight command as having overrun its deadline (the
        engine killed the worker; supervision decides what happens next)."""
        wh = self.workers[worker]
        if wh.in_flight is not None:
            wh.in_flight.status = "timeout"
            wh.in_flight = None

    # -- queries -------------------------------------------------------

    def flight(self, worker: int) -> List[FlightEntry]:
        """Snapshot of ``worker``'s flight-recorder ring, oldest first."""
        return list(self._flights[worker])

    def stalled_workers(self) -> List[int]:
        return [wh.worker_id for wh in self.workers if wh.stalled]

    def snapshot(self) -> List[Dict[str, object]]:
        """One dict per worker for tables/telemetry."""
        now = self.clock()
        return [
            {
                "worker": wh.worker_id,
                "cmds_sent": wh.cmds_sent,
                "cmds_done": wh.cmds_done,
                "busy_ms": wh.busy_ns / 1e6,
                "last_reply_age_s": (
                    now - wh.last_reply_t if wh.last_reply_t is not None else None
                ),
                "stalls": wh.stalls,
                "stalled": wh.stalled,
            }
            for wh in self.workers
        ]


def format_flight(entries: List[FlightEntry], limit: int = 8) -> str:
    """The last ``limit`` flight entries as indented postmortem lines."""
    tail = entries[-limit:]
    if not tail:
        return "  (flight recorder empty)"
    return "\n".join(f"  {entry!r}" for entry in tail)
