"""Live progress/throughput reporting for long benchmark runs.

``execute_ops`` over a six-figure op stream is silent for minutes; the
reporter prints periodic ``done/total`` lines with simulated throughput
and wall-clock rate so a run's health is visible while it happens.

On a TTY the line rewrites in place (carriage return); piped to a file
or CI log each update is its own line.  Output goes to ``stderr`` so it
never pollutes a redirected report.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

from repro.perf.context import PerfContext


class ProgressReporter:
    """Throttled progress lines: one every ``every`` completed ops."""

    def __init__(
        self,
        total: Optional[int] = None,
        every: int = 10_000,
        stream: Optional[IO[str]] = None,
        label: str = "ops",
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.total = total
        self.every = every
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._inplace = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_reported = 0
        self._t0: Optional[float] = None

    def _line(self, done: int, perf: PerfContext) -> str:
        parts = [f"{self.label}: {done:,}"]
        if self.total:
            parts[0] += f"/{self.total:,} ({done / self.total:.0%})"
        sim_ns = perf.elapsed_ns()
        if sim_ns > 0:
            parts.append(f"sim {done / sim_ns * 1e3:.3f} Mops/s")
        if self._t0 is not None:
            wall = time.monotonic() - self._t0
            if wall > 0 and done > 0:
                rate = done / wall
                parts.append(f"wall {rate:,.0f} op/s")
                if self.total and done < self.total:
                    parts.append(f"eta {_fmt_eta((self.total - done) / rate)}")
        return "  ".join(parts)

    def maybe(self, done: int, perf: PerfContext) -> None:
        """Report if at least ``every`` ops completed since the last line;
        the total's line is :meth:`finish`'s."""
        if self._t0 is None:
            self._t0 = time.monotonic()
        if done - self._last_reported < self.every:
            return
        if self.total and done >= self.total:
            return
        self._last_reported = done
        end = "\r" if self._inplace else "\n"
        self.stream.write(self._line(done, perf) + end)
        self.stream.flush()

    def finish(self, done: int, perf: PerfContext) -> None:
        """Write the final line (always, regardless of throttling)."""
        if self._t0 is None:
            self._t0 = time.monotonic()
        self.stream.write(self._line(done, perf) + " done\n")
        self.stream.flush()


def _fmt_eta(seconds: float) -> str:
    """Compact ETA: ``42s``, ``3m10s``, ``2h05m``."""
    seconds = max(0.0, seconds)
    if seconds < 100:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 100:
        return f"{minutes}m{secs:02d}s"
    hours, mins = divmod(minutes, 60)
    return f"{hours}h{mins:02d}m"


class EngineTopView(ProgressReporter):
    """``repro top``-style live line for a parallel engine run.

    Extends the progress line with the engine's worker health: per-worker
    ``done`` command counts (stalled workers flagged ``!``), the busiest
    worker's utilization share, and the stall count — a one-line ``top``
    for the serving pool, driven through the same ``maybe``/``finish``
    hooks ``execute_ops`` already calls.
    """

    def __init__(self, engine, **kwargs):
        kwargs.setdefault("label", "serve")
        super().__init__(**kwargs)
        self.engine = engine

    def _line(self, done: int, perf: PerfContext) -> str:
        line = super()._line(done, perf)
        health = getattr(self.engine, "health", None)
        if health is None:
            return line
        cells = []
        stalls = 0
        for wh in health.workers:
            flag = "!" if wh.stalled else ""
            cells.append(f"w{wh.worker_id}:{wh.cmds_done}{flag}")
            stalls += wh.stalls
        util = self.engine.worker_utilization()
        hot = max(util) if util else 0.0
        line += f"  [{' '.join(cells)}] hot {hot:.0%}"
        if stalls:
            line += f" stalls {stalls}"
        return line
