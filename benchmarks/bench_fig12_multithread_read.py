"""Fig 12 — multi-threaded read-only scaling (throughput + p99.9).

Paper shape: CCEH achieves the highest aggregate throughput; ALEX's curve
flattens early — "ALEX has already saturated the memory bandwidth with 24
threads in one socket" — and the tails of the comparison-heavy indexes
inflate as threads contend.

Method: single-thread simulated cost + measured bytes/op per index
(``measure_baseline``), projected onto N threads by the discrete-event
concurrency simulator (``repro.concurrency.sim``): per-thread op streams
scheduled on the simulated clock, charging each index's declared CC
scheme (latch waits, rwlock cacheline bounces, optimistic retries) on
top of the shared-bandwidth pool.  The table reports the GIL-bound
thread projection next to the process-based one, so it documents why
the wall-clock harness fans out with processes.

``--projection measured`` validates the projection instead: it runs the
real process-parallel engine at each worker count and prints it row by
row beside the simulator's numbers, into
``results/fig12_multithread_read_measured.*`` (host-specific, not
committed).  ``--jobs N`` measures the per-index single-thread
baselines in parallel worker processes (output order stays registry
order).
"""

from _common import (
    THREADS,
    measure_baselines,
    measured_vs_sim,
    project_curves,
    scaling_table,
)
from repro.bench import claim, run_bench, tightest

SEED = 12


def run(jobs: int = 1):
    """The simulated figure: one table with its curves as JSON."""
    sim = project_curves("read", measure_baselines("read", SEED, jobs), SEED)
    table = scaling_table(
        sim, "Fig 12 — multi-threaded read-only", stalls=False
    )
    data = {"threads": list(THREADS), "curves": sim}
    return {"fig12_multithread_read": (table, data)}, sim


def run_measured(jobs: int = 1):
    table, data = measured_vs_sim("read", "Fig 12", SEED, jobs)
    return {"fig12_multithread_read_measured": (table, data)}


def claims(sim):
    at32 = {n: c[-1]["throughput_mops"] for n, c in sim.items()}
    alex = {p["threads"]: p["throughput_mops"] for p in sim["ALEX"]}
    speedup = {n: c[-1]["throughput_mops"] / c[0]["throughput_mops"]
               for n, c in sim.items()}
    return [
        claim("fig12.cceh-highest-at-32", at32["CCEH"], ">=",
              max(v for n, v in at32.items() if n != "CCEH")),
        # Bandwidth plus ALEX's global rwlock cacheline bounce.
        claim("fig12.alex-saturates-at-24", alex[32], "<", alex[24] * 1.1),
        claim("fig12.alex-scales-below-cceh", speedup["ALEX"], "<",
              speedup["CCEH"]),
        tightest("fig12.gil-threads-flat",
                 ((max(p["gil_thread_mops"] for p in c), "<=",
                   c[0]["gil_thread_mops"]) for c in sim.values())),
        tightest("fig12.processes-above-gil",
                 ((p["throughput_mops"], ">=", p["gil_thread_mops"])
                  for c in sim.values() for p in c[1:])),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
