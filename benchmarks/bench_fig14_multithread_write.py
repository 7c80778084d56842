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

import argparse

from _common import (
    CASE_CONCURRENCY,
    MEASURED_THREADS,
    comparison_rows,
    comparison_table,
    measure_baselines,
    measured_scaling_curves,
    run_once,
)
from repro.bench import format_table, thread_scaling, write_result

THREADS = (1, 2, 4, 8, 16, 24, 32)
SEED = 14


def project_write_curves(measured):
    """Simulated thread-scaling curves per index from write baselines."""
    return {
        m["name"]: thread_scaling(
            m["mean_ns"],
            m["p999_ns"],
            m["bytes_per_op"],
            THREADS,
            concurrency=CASE_CONCURRENCY["write"][m["name"]],
            write_fraction=1.0,
            retrain_every=m["retrain_every"],
            retrain_stall_ns=m["retrain_stall_ns"],
            seed=SEED,
        )
        for m in measured
    }


def _render(curves):
    rows = [
        [
            name,
            point["threads"],
            f"{point['throughput_mops']:.2f}",
            f"{point['gil_thread_mops']:.2f}",
            f"{point['p999_ns'] / 1000:.2f}",
            f"{100 * point['latch_wait_share']:.1f}%",
            f"{100 * point['retrain_stall_share']:.1f}%",
        ]
        for name, scaling in curves.items()
        for point in scaling
    ]
    return format_table(
        ["index", "threads", "Mops/s (proc)", "Mops/s (GIL thr)",
         "p99.9 (us)", "latch wait", "retrain stall"],
        rows,
        title="Fig 14 — multi-threaded write-only (discrete-event "
        "concurrency simulation; 'proc' = one interpreter per core, "
        "'GIL thr' = Python threads serialised by the GIL)",
    )


def run_multithread_write(jobs: int = 1, projection: str = "sim"):
    """The figure's ``(table, data)``, simulated or measured."""
    measured = measure_baselines("write", SEED, jobs=jobs)
    sim = project_write_curves(measured)
    if projection == "sim":
        return _render(sim), {"threads": list(THREADS), "curves": sim}
    # Same validation table as Fig 12's measured branch, over the
    # write-only workload: real engines (each worker really absorbs its
    # partition's inserts) against the simulator's projection.
    meas = measured_scaling_curves("write", measured, seed=SEED)
    rows = comparison_rows(meas, sim)
    table = comparison_table(
        rows,
        "Fig 14 — measured vs sim write scaling "
        f"(measured = real processes at {MEASURED_THREADS} workers, "
        "wall-clock on this host)",
    )
    return table, {"threads": list(MEASURED_THREADS), "measured": meas,
                   "comparison": rows}


TRADITIONAL_NAMES = ("BTree", "Skiplist", "Masstree", "Bwtree", "Wormhole")


def test_fig14_multithread_write(benchmark):
    measured = run_once(benchmark, lambda: measure_baselines("write", SEED))
    sim = project_write_curves(measured)
    write_result(
        "fig14_multithread_write",
        _render(sim),
        data={"threads": list(THREADS), "curves": sim},
    )

    # XIndex lands inside the traditional indexes' band at every count.
    for i, _t in enumerate(THREADS):
        trad = [sim[n][i]["throughput_mops"] for n in TRADITIONAL_NAMES]
        x = sim["XIndex"][i]["throughput_mops"]
        assert min(trad) * 0.5 <= x <= max(trad) * 1.5
    # Blocking retrains cap the scaling of the retrain-blocking learned
    # indexes below the non-blocking B-tree and Bw-tree.
    speedup = {
        n: c[-1]["throughput_mops"] / c[0]["throughput_mops"]
        for n, c in sim.items()
    }
    for learned in ("XIndex", "FINEdex"):
        for traditional in ("BTree", "Bwtree"):
            assert speedup[learned] < speedup[traditional], (
                f"{learned} ({speedup[learned]:.1f}x) should scale worse "
                f"than {traditional} ({speedup[traditional]:.1f}x)"
            )
    # ... and the stall time is visible in the breakdown.
    assert sim["XIndex"][-1]["retrain_stall_share"] > 0.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the per-index baseline measurements",
    )
    parser.add_argument(
        "--projection", choices=("sim", "measured"), default="sim",
        help="concurrency simulator (sim), or real worker processes with "
        "a side-by-side sim comparison (measured)",
    )
    args = parser.parse_args()
    table, data = run_multithread_write(
        jobs=args.jobs, projection=args.projection
    )
    # A measured run is host-specific: it gets its own (uncommitted)
    # result files and leaves the simulated tables alone.
    suffix = "_measured" if args.projection == "measured" else ""
    write_result(f"fig14_multithread_write{suffix}", table, data=data)
