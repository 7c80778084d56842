"""Fig 11 — read-only performance on the FACE (skewed) dataset.

Paper shape: RadixSpline collapses because "a large number of keys fall
within (0, 2^50) ... which makes the first 16 bits of the RS almost
useless" — nearly every key lands in one radix bucket and the in-bucket
search degenerates.  The other learned indexes keep their ranking.
"""

from _common import N_OPS, READ_CASE, SMALL_N, dataset, store_result
from repro.bench import claim, format_table, run_bench
from repro.workloads import READ_ONLY, generate_operations


def run():
    keys = dataset("face", SMALL_N)
    ops = generate_operations(READ_ONLY, N_OPS, keys, seed=11)
    rows = []
    results = {}
    for name, factory in READ_CASE.items():
        result = store_result(factory, keys, ops, name, "face")
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
    return {"fig11_face": table}, results


def claims(results):
    mops = {n: r.throughput_mops for n, r in results.items()}
    others = ("RMI", "PGM", "FITing-tree", "XIndex")
    return [
        claim("fig11.rs-slowest-learned", mops["RS"], "<",
              min(mops[n] for n in others + ("ALEX",))),
        claim("fig11.alex-best-learned", mops["ALEX"], ">",
              max(mops[n] for n in others + ("RS",))),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
