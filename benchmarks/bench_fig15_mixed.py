"""Fig 15 — read-write-mixed YCSB workloads (A, B, D, F).

Paper shape: ALEX maintains good throughput across every mix; every other
learned index drops sharply on YCSB-D, whose writes are *insertions*
(read-latest) rather than updates — "the insertion operation causes the
learned index to be continuously inserted and retrained".
"""

from _common import (
    N_OPS,
    SMALL_N,
    WRITE_CASE,
    dataset,
    loaded_store,
    run_once,
)
from repro.bench import (
    BenchResult,
    StoreAdapter,
    execute_ops,
    format_table,
    write_result,
)
from repro.workloads import YCSB_A, YCSB_B, YCSB_D, YCSB_F, generate_operations
from repro.workloads.ycsb import split_load_and_inserts

WORKLOADS = (YCSB_A, YCSB_B, YCSB_D, YCSB_F)


def run_mixed():
    keys = dataset("ycsb", SMALL_N)
    load, insert_pool = split_load_and_inserts(keys, 0.5, seed=15)
    rows = []
    results = {}
    for spec in WORKLOADS:
        ops = generate_operations(spec, N_OPS, load, insert_pool, seed=15)
        for name, factory in WRITE_CASE.items():
            store, perf = loaded_store(factory, load)
            run = execute_ops(StoreAdapter(store), ops, perf)
            result = BenchResult.from_histogram(
                name, spec.name, run.latency, run.bytes_per_op
            )
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
    return table, results


def test_fig15_mixed(benchmark):
    table, results = run_once(benchmark, run_mixed)
    write_result("fig15_mixed", table)
    # ALEX stays on top of the learned pack in every mix.
    learned = ("FITing-tree-inp", "FITing-tree-buf", "PGM", "XIndex")
    for spec in WORKLOADS:
        for other in learned:
            assert (
                results[(spec.name, "ALEX")].throughput_mops
                > results[(spec.name, other)].throughput_mops
            ), f"ALEX not best on {spec.name}"
    # YCSB-D (insert-heavy) hurts the buffer/inplace designs more than
    # their read-heavy YCSB-B numbers by a larger factor than ALEX.
    def drop(name):
        return (
            results[("YCSB-D", name)].throughput_mops
            / results[("YCSB-B", name)].throughput_mops
        )

    assert drop("XIndex") < drop("ALEX")
    assert drop("FITing-tree-buf") < drop("ALEX")


if __name__ == "__main__":
    table, _ = run_mixed()
    write_result("fig15_mixed", table)
