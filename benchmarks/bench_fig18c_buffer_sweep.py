"""Fig 18(c) — buffer reserve size vs. retraining count / times.

Paper shape: "as reserved space increases, the number of retraining
decreases ... the average retraining time increases while the total time
decreases".
"""

from _common import SMALL_N, dataset
from repro import FITingTree, PerfContext
from repro.bench import claim, fact, format_table, run_bench
from repro.workloads.ycsb import split_load_and_inserts

RESERVES = (128, 256, 512, 1024)


def run():
    keys = dataset("ycsb", SMALL_N)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=22)
    rows = []
    metrics = []
    for reserve in RESERVES:
        perf = PerfContext()
        index = FITingTree(
            strategy="buffer", eps=64, buffer_capacity=reserve, perf=perf
        )
        index.bulk_load([(k, k) for k in load])
        for k in inserts:
            index.insert(k, k)
        stats = index.retraining.stats
        metrics.append(
            {
                "reserve": reserve,
                "count": stats.count,
                "avg_ns": stats.avg_time_ns(),
                "total_ns": stats.time_ns,
            }
        )
        rows.append(
            [
                reserve,
                stats.count,
                f"{stats.avg_time_ns() / 1000:.1f}",
                f"{stats.time_ns / 1e6:.2f}",
            ]
        )
    table = format_table(
        ["reserve", "retrains", "avg retrain (sim us)", "total retrain (sim ms)"],
        rows,
        title=f"Fig 18(c) — buffer reserve sweep over {len(inserts)} inserts",
    )
    return {"fig18c_buffer_sweep": table}, metrics


def claims(metrics):
    counts, avgs, totals = (
        [m[k] for m in metrics] for k in ("count", "avg_ns", "total_ns")
    )
    return [
        fact("fig18c.retrains-fall-with-reserve",
             counts == sorted(counts, reverse=True)),
        fact("fig18c.avg-retrain-rises-with-reserve", avgs == sorted(avgs)),
        claim("fig18c.total-falls-with-reserve", totals[-1], "<", totals[0]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
