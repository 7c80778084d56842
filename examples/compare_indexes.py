#!/usr/bin/env python3
"""Head-to-head: every registered index under YCSB-B in one store.

Reproduces the paper's end-to-end methodology in miniature: every index
in ``repro.registry`` — learned, traditional, plus the beyond-the-paper
extensions (LIPP, APEX, FINEdex) — serves the same read-mostly request
stream from the same Viper store, and the simulated throughput/tail table
shows who wins and why (the DRAM hops column is the paper's cache-miss
story).  Registering a new index makes it show up here automatically.

Run:  python examples/compare_indexes.py [n_keys]
"""

import sys

from repro import PerfContext, ViperStore, ycsb_keys
from repro.bench import StoreAdapter, execute_ops, format_table
from repro.registry import specs
from repro.workloads import YCSB_B, generate_operations
from repro.workloads.ycsb import split_load_and_inserts

# Every registered index, straight from the registry.  Skip the
# static-PGM spec: the dynamic PGM already represents the family here,
# as in the paper's mixed-workload figures.
_TAGS = {"extension": " (ext)", "hash": " (hash)"}
INDEXES = {
    spec.name
    + (" (read-only)" if not spec.build().capabilities().updatable
       else _TAGS.get(spec.category, "")): spec
    for spec in specs()
    if spec.name != "PGM-static"
}


def main(n_keys: int = 50_000) -> None:
    keys = ycsb_keys(n_keys, seed=3)
    load, _ = split_load_and_inserts(keys, 1.0, seed=3)
    ops = generate_operations(YCSB_B, 20_000, load, seed=3)

    rows = []
    for name, factory in INDEXES.items():
        perf = PerfContext()
        index = factory(perf)
        if "read-only" in name:
            # Read-only indexes cannot take YCSB-B's 5% updates; serve
            # the reads only so they still appear in the comparison.
            workload = [op for op in ops if op.kind.value == "read"]
        else:
            workload = ops
        store = ViperStore(index, perf)
        store.bulk_load([(k, k) for k in load])
        latency = execute_ops(StoreAdapter(store), workload, perf).latency
        hops = perf.counters.dram_hop / max(1, len(latency))
        rows.append(
            [
                name,
                f"{1e3 / latency.mean():.3f}",
                f"{latency.quantile(0.5) / 1000:.2f}",
                f"{latency.quantile(0.999) / 1000:.2f}",
                f"{hops:.1f}",
            ]
        )

    rows.sort(key=lambda r: -float(r[1]))
    print(
        format_table(
            ["index", "Mops/s", "p50 (us)", "p99.9 (us)", "hops/op"],
            rows,
            title=f"YCSB-B over {n_keys:,} keys (simulated single-thread)",
        )
    )
    print(
        "\nReading the table: throughput tracks DRAM hops per operation —"
        "\nthe paper's finding that every level searched down is a cache"
        "\nmiss, which is why shallow learned indexes win."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 50_000)
