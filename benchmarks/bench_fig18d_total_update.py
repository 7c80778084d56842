"""Fig 18(d) — total update time: insertion + retraining, per index.

Paper shape: "FITing-tree-inp has the longest total time, and the next is
FITing-tree-buf.  The PGM has a shorter total time.  The shortest total
time is ALEX."
"""

from _common import LARGE_N, dataset
from repro import ALEXIndex, DynamicPGMIndex, FITingTree, PerfContext
from repro.bench import claim, format_table, run_bench
from repro.workloads.ycsb import split_load_and_inserts

CANDIDATES = {
    "FITing-tree-inp": lambda perf: FITingTree(
        strategy="inplace", eps=64, reserve=256, perf=perf
    ),
    "FITing-tree-buf": lambda perf: FITingTree(
        strategy="buffer", eps=64, buffer_capacity=128, perf=perf
    ),
    "PGM": lambda perf: DynamicPGMIndex(perf=perf),
    "ALEX": lambda perf: ALEXIndex(perf=perf),
}


def run():
    # The larger size: PGM's LSM merge cost grows with log(n) while
    # ALEX's per-insert retrain cost shrinks as nodes grow, so the
    # paper's ALEX-shortest ordering needs enough insert volume to show.
    keys = dataset("ycsb", LARGE_N)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=23)
    rows = []
    totals = {}
    for name, factory in CANDIDATES.items():
        perf = PerfContext()
        index = factory(perf)
        index.bulk_load([(k, k) for k in load])
        mark = perf.begin()
        for k in inserts:
            index.insert(k, k)
        total_ns = perf.end(mark).time_ns
        if isinstance(index, DynamicPGMIndex):
            retrain_ns = index.retrain_stats.time_ns
        else:
            retrain_ns = index.retraining.stats.time_ns
        insert_ns = total_ns - retrain_ns
        totals[name] = total_ns
        rows.append(
            [
                name,
                f"{insert_ns / 1e6:.2f}",
                f"{retrain_ns / 1e6:.2f}",
                f"{total_ns / 1e6:.2f}",
            ]
        )
    table = format_table(
        ["index", "insert (sim ms)", "retrain (sim ms)", "total (sim ms)"],
        rows,
        title=f"Fig 18(d) — total update time over {len(inserts)} inserts",
    )
    return {"fig18d_total_update": table}, totals


def claims(totals):
    alex, pgm = totals["ALEX"], totals["PGM"]
    buf, inp = totals["FITing-tree-buf"], totals["FITing-tree-inp"]
    return [
        claim("fig18d.alex-below-pgm", alex, "<", pgm),
        claim("fig18d.pgm-below-buf", pgm, "<", buf),
        claim("fig18d.buf-below-inp", buf, "<", inp),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
