"""Fig 15 — read-write-mixed YCSB workloads (A, B, D, F).

Paper shape: ALEX maintains good throughput across every mix; every other
learned index drops sharply on YCSB-D, whose writes are *insertions*
(read-latest) rather than updates — "the insertion operation causes the
learned index to be continuously inserted and retrained".
"""

from _common import N_OPS, SMALL_N, WRITE_CASE, dataset, store_result
from repro.bench import claim, format_table, run_bench, tightest
from repro.workloads import YCSB_A, YCSB_B, YCSB_D, YCSB_F, generate_operations
from repro.workloads.ycsb import split_load_and_inserts

WORKLOADS = (YCSB_A, YCSB_B, YCSB_D, YCSB_F)


def run():
    keys = dataset("ycsb", SMALL_N)
    load, insert_pool = split_load_and_inserts(keys, 0.5, seed=15)
    rows = []
    results = {}
    for spec in WORKLOADS:
        ops = generate_operations(spec, N_OPS, load, insert_pool, seed=15)
        for name, factory in WRITE_CASE.items():
            result = store_result(factory, load, ops, name, spec.name)
            results[(spec.name, name)] = result
            rows.append(
                [
                    spec.name,
                    name,
                    f"{result.throughput_mops:.3f}",
                    f"{result.p999_ns / 1000:.2f}",
                ]
            )
    table = format_table(
        ["workload", "index", "Mops/s", "p99.9 (us)"],
        rows,
        title="Fig 15 — read-write-mixed YCSB (simulated single-thread)",
    )
    return {"fig15_mixed": table}, results


def claims(results):
    mops = {k: r.throughput_mops for k, r in results.items()}
    learned = ("FITing-tree-inp", "FITing-tree-buf", "PGM", "XIndex")

    def drop(name):  # YCSB-D (insert-heavy) over YCSB-B (read-heavy)
        return mops[("YCSB-D", name)] / mops[("YCSB-B", name)]

    return [
        tightest("fig15.alex-best-learned-every-mix",
                 ((mops[(w.name, "ALEX")], ">",
                   max(mops[(w.name, n)] for n in learned))
                  for w in WORKLOADS)),
        claim("fig15.xindex-drops-more-than-alex-on-d", drop("XIndex"), "<",
              drop("ALEX")),
        claim("fig15.buf-drops-more-than-alex-on-d", drop("FITing-tree-buf"),
              "<", drop("ALEX")),
        claim("fig15.alex-no-drop-on-d", drop("ALEX"), ">=", 1.0),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
