"""Fig 13 — end-to-end write-only evaluation (two sizes).

Paper shape: ALEX clearly best among learned indexes (gapped inserts);
FITing-tree-inp worst with >100x tail blowups from key shifting; apart from ALEX,
learned indexes show no advantage over traditional trees; XIndex and
FITing-tree-buf degrade the most from the small to the large size
(offsite buffers force batches of retrains).

``--jobs N`` fans the per-(size, index) measurements out over worker
processes (each cell is independent: its own store, its own simulated
clock), like the multithread figures do.
"""

import argparse

from _common import (
    SIZE_LABELS,
    SMALL_N,
    LARGE_N,
    WRITE_CASE,
    dataset,
    loaded_store,
    pool_map,
    run_once,
)
from repro.bench import (
    BenchResult,
    StoreAdapter,
    execute_ops,
    format_table,
    write_result,
)
from repro.workloads import WRITE_ONLY, generate_operations
from repro.workloads.ycsb import split_load_and_inserts


def _measure_cell(cell):
    """One (size, index) write-only measurement; top-level so it pickles."""
    n, name = cell
    keys = dataset("ycsb", n)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=13)
    n_ops = len(inserts) - 1
    ops = generate_operations(WRITE_ONLY, n_ops, load, inserts, seed=13)
    store, perf = loaded_store(WRITE_CASE[name], load)
    run = execute_ops(StoreAdapter(store), ops, perf)
    result = BenchResult.from_histogram(
        name, f"write-{SIZE_LABELS[n]}", run.latency, run.bytes_per_op
    )
    return n, name, result


def run_writeonly(jobs: int = 1):
    cells = [
        (n, name) for n in (SMALL_N, LARGE_N) for name in WRITE_CASE
    ]
    measured = pool_map(_measure_cell, cells, jobs)
    rows = []
    results = {}
    for n, name, result in measured:
        results[(n, name)] = result
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
        title="Fig 13 — write-only (simulated single-thread)",
    )
    return table, results


def test_fig13_writeonly(benchmark):
    table, results = run_once(benchmark, run_writeonly)
    write_result("fig13_writeonly", table)
    small = {k[1]: v for k, v in results.items() if k[0] == SMALL_N}
    large = {k[1]: v for k, v in results.items() if k[0] == LARGE_N}
    # ALEX best among the learned indexes.
    learned = ("FITing-tree-inp", "FITing-tree-buf", "PGM", "XIndex")
    for other in learned:
        assert small["ALEX"].throughput_mops > small[other].throughput_mops
    # FITing-tree-inp is the worst learned index.
    for other in ("FITing-tree-buf", "PGM", "ALEX", "XIndex"):
        assert (
            small["FITing-tree-inp"].throughput_mops
            <= small[other].throughput_mops
        )
    # Offsite-buffer designs degrade most from small to large.
    def degradation(name):
        return large[name].throughput_mops / small[name].throughput_mops

    assert degradation("XIndex") < degradation("ALEX")
    assert degradation("FITing-tree-buf") < degradation("ALEX")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the per-(size, index) measurements",
    )
    args = parser.parse_args()
    table, _ = run_writeonly(jobs=args.jobs)
    write_result("fig13_writeonly", table)
