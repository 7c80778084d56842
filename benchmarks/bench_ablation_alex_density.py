"""Ablation — ALEX's density bounds: the space-for-performance dial.

§IV-G: ALEX "wisely adopts the idea of paying some additional space ...
for higher performance".  This ablation sweeps the gapped array's lower
density bound (the post-expansion density): lower density = more gaps =
more DRAM but fewer key moves and fewer retrains per insert.
"""

from _common import SMALL_N, dataset
from repro import ALEXIndex, PerfContext
from repro.bench import claim, format_table, run_bench
from repro.workloads.ycsb import split_load_and_inserts

LOWER_DENSITIES = (0.5, 0.6, 0.7)


def run():
    keys = dataset("ycsb", SMALL_N)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=34)
    rows = []
    metrics = []
    for lower in LOWER_DENSITIES:
        perf = PerfContext()
        index = ALEXIndex(lower_density=lower, upper_density=0.8, perf=perf)
        index.bulk_load([(k, k) for k in load])
        mark = perf.begin()
        for k in inserts:
            index.insert(k, k)
        insert_ns = perf.end(mark).time_ns / len(inserts)
        stats = index.stats()
        space = index.key_store_bytes()
        metrics.append(
            {
                "lower": lower,
                "insert_ns": insert_ns,
                "retrains": stats.retrain_count,
                "space": space,
            }
        )
        rows.append(
            [
                lower,
                f"{insert_ns:.0f}",
                stats.retrain_count,
                f"{space / (1 << 20):.2f}MB",
            ]
        )
    table = format_table(
        ["lower density", "insert (sim ns)", "retrains", "key store"],
        rows,
        title="Ablation — ALEX density bounds (space vs update performance)",
    )
    return {"ablation_alex_density": table}, metrics


def claims(metrics):
    gappy, dense = metrics[0], metrics[-1]
    return [
        claim("abl-density.gaps-cost-space", gappy["space"], ">",
              dense["space"]),
        claim("abl-density.gaps-cut-retrains", gappy["retrains"], "<=",
              dense["retrains"]),
        claim("abl-density.gaps-cut-insert-cost", gappy["insert_ns"], "<",
              dense["insert_ns"]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
