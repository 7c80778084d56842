"""Fig 11 — read-only performance on the FACE (skewed) dataset.

Paper shape: RadixSpline collapses because "a large number of keys fall
within (0, 2^50) ... which makes the first 16 bits of the RS almost
useless" — nearly every key lands in one radix bucket and the in-bucket
search degenerates.  The other learned indexes keep their ranking.
"""

from _common import (
    N_OPS,
    READ_CASE,
    SMALL_N,
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
from repro.workloads import READ_ONLY, generate_operations


def run_face():
    keys = dataset("face", SMALL_N)
    ops = generate_operations(READ_ONLY, N_OPS, keys, seed=11)
    rows = []
    results = {}
    for name, factory in READ_CASE.items():
        store, perf = loaded_store(factory, keys)
        run = execute_ops(StoreAdapter(store), ops, perf)
        result = BenchResult.from_histogram(
            name, "face", run.latency, run.bytes_per_op
        )
        results[name] = result
        rows.append(
            [
                name,
                f"{result.throughput_mops:.3f}",
                f"{result.p50_ns / 1000:.2f}",
                f"{result.p999_ns / 1000:.2f}",
            ]
        )
    table = format_table(
        ["index", "Mops/s", "p50 (us)", "p99.9 (us)"],
        rows,
        title="Fig 11 — read-only on FACE-like skew (simulated single-thread)",
    )
    return table, results


def test_fig11_face(benchmark):
    table, results = run_once(benchmark, run_face)
    write_result("fig11_face", table)
    # RS must collapse relative to the other learned indexes.
    others = [
        results[n].throughput_mops
        for n in ("RMI", "PGM", "ALEX", "FITing-tree", "XIndex")
    ]
    assert results["RS"].throughput_mops < min(others), (
        "RS should be the slowest learned index on FACE"
    )


if __name__ == "__main__":
    table, _ = run_face()
    write_result("fig11_face", table)
