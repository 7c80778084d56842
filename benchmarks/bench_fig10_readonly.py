"""Fig 10 — end-to-end read-only evaluation (YCSB & OSM, two sizes).

Paper shape to reproduce: ALEX best overall and clearly above the
traditional sorted indexes; learned > traditional tree indexes; RS strong
at the small size but degrading at the large one; RMI slightly above PGM
on throughput with a far worse tail; every learned index degrades on OSM
(complex CDF) while traditional indexes do not.  CCEH is the unordered
reference line.
"""

from _common import (
    N_OPS,
    READ_CASE,
    SIZE_LABELS,
    SMALL_N,
    LARGE_N,
    dataset,
    loaded_store,
    run_once,
)
from repro.bench import (
    BenchResult,
    StoreAdapter,
    execute_ops,
    format_bars,
    format_table,
    write_result,
)
from repro.workloads import READ_ONLY, generate_operations


def run_readonly(dataset_name: str):
    rows = []
    results = []
    for n in (SMALL_N, LARGE_N):
        keys = dataset(dataset_name, n)
        ops = generate_operations(READ_ONLY, N_OPS, keys, seed=10)
        for name, factory in READ_CASE.items():
            store, perf = loaded_store(factory, keys)
            run = execute_ops(StoreAdapter(store), ops, perf)
            result = BenchResult.from_histogram(
                name,
                f"{dataset_name}-{SIZE_LABELS[n]}",
                run.latency,
                run.bytes_per_op,
            )
            results.append(result)
            rows.append(
                [
                    SIZE_LABELS[n],
                    name,
                    f"{result.throughput_mops:.3f}",
                    f"{result.p50_ns / 1000:.2f}",
                    f"{result.p999_ns / 1000:.2f}",
                ]
            )
    table = format_table(
        ["size", "index", "Mops/s", "p50 (us)", "p99.9 (us)"],
        rows,
        title=f"Fig 10 — read-only, dataset={dataset_name} "
        f"(simulated single-thread)",
    )
    small_label = SIZE_LABELS[SMALL_N]
    bars = format_bars(
        [
            (r.index, round(r.throughput_mops, 3))
            for r in results
            if r.workload == f"{dataset_name}-{small_label}"
        ],
        title=f"throughput at {small_label} (Mops/s)",
        unit=" Mops",
    )
    return table + "\n\n" + bars, results


def test_fig10_ycsb(benchmark):
    table, results = run_once(benchmark, lambda: run_readonly("ycsb"))
    write_result("fig10_readonly_ycsb", table)
    by_name = {
        (r.workload, r.index): r.throughput_mops for r in results
    }
    small = SIZE_LABELS[SMALL_N]
    # ALEX beats every traditional sorted index (paper's headline).
    for trad in ("BTree", "Skiplist", "Masstree", "Bwtree", "Wormhole"):
        assert (
            by_name[(f"ycsb-{small}", "ALEX")] > by_name[(f"ycsb-{small}", trad)]
        )


def test_fig10_osm(benchmark):
    table, results = run_once(benchmark, lambda: run_readonly("osm"))
    write_result("fig10_readonly_osm", table)


if __name__ == "__main__":
    for ds in ("ycsb", "osm"):
        table, _ = run_readonly(ds)
        write_result(f"fig10_readonly_{ds}", table)
