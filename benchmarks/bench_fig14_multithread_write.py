"""Fig 14 — multi-threaded write-only: XIndex vs. traditional indexes.

Among the paper's learned indexes only XIndex supports concurrent writes
(Table I), so the paper plots it against the traditional indexes; we add
FINEdex as the second retrain-blocking learned competitor.  Shape:
XIndex's scaling "is similar to that of Masstree — overall, XIndex's
performance is close to traditional indexes" — but the *scaling ratio*
of the retrain-blocking learned indexes (XIndex, FINEdex) trails the
B-tree's and Bw-tree's, because every group/level retrain stalls the
writers behind it (the Amdahl serial fraction the latches can't hide).

Like Fig 12, the figure is the discrete-event concurrency simulator run
on each index's measured single-thread profile (including its measured
retrain cadence).  ``--projection measured`` prints the real
process-parallel engine beside it instead, into
``results/fig14_multithread_write_measured.*`` (host-specific, not
committed).  ``--jobs N`` fans the per-index measurements out over
worker processes.
"""

import math

from _common import (
    THREADS,
    measure_baselines,
    measured_vs_sim,
    project_curves,
    scaling_table,
)
from repro.bench import claim, run_bench, tightest

SEED = 14


def run(jobs: int = 1):
    """The simulated figure: one table with its curves as JSON."""
    sim = project_curves("write", measure_baselines("write", SEED, jobs), SEED)
    table = scaling_table(
        sim, "Fig 14 — multi-threaded write-only", stalls=True
    )
    data = {"threads": list(THREADS), "curves": sim}
    return {"fig14_multithread_write": (table, data)}, sim


def run_measured(jobs: int = 1):
    table, data = measured_vs_sim("write", "Fig 14", SEED, jobs)
    return {"fig14_multithread_write_measured": (table, data)}


TRADITIONAL_NAMES = ("BTree", "Skiplist", "Masstree", "Bwtree", "Wormhole")


def claims(sim):
    mops = {n: [p["throughput_mops"] for p in c] for n, c in sim.items()}
    trad = [[mops[n][i] for n in TRADITIONAL_NAMES]
            for i in range(len(THREADS))]
    speedup = {n: c[-1] / c[0] for n, c in mops.items()}

    def distance(name):  # mean |log throughput ratio| to XIndex's curve
        return sum(abs(math.log(x / t)) for x, t
                   in zip(mops["XIndex"], mops[name])) / len(THREADS)

    nearest = {n: distance(n) for n in TRADITIONAL_NAMES}
    return [
        tightest("fig14.xindex-in-traditional-band",
                 [case for x, t in zip(mops["XIndex"], trad)
                  for case in ((x, ">=", min(t) * 0.5),
                               (x, "<=", max(t) * 1.5))]),
        tightest("fig14.xindex-below-best-traditional",
                 ((x, "<", max(t)) for x, t in zip(mops["XIndex"], trad))),
        # Blocking retrains stall every writer (the Amdahl serial part).
        claim("fig14.retrain-blocking-scale-below-trees",
              max(speedup[n] for n in ("XIndex", "FINEdex")), "<",
              min(speedup[n] for n in ("BTree", "Bwtree"))),
        claim("fig14.xindex-retrain-stall-visible",
              sim["XIndex"][-1]["retrain_stall_share"], ">", 0.0),
        # The paper: "similar to that of Masstree".
        claim("fig14.dev-nearest-curve-is-bwtree",
              min(d for n, d in nearest.items() if n != "Bwtree"), ">",
              nearest["Bwtree"]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
