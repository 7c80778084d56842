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

from _common import (
    SIZE_LABELS,
    SMALL_N,
    LARGE_N,
    WRITE_CASE,
    dataset,
    pool_map,
    store_result,
)
from repro.bench import claim, format_table, run_bench
from repro.workloads import WRITE_ONLY, generate_operations
from repro.workloads.ycsb import split_load_and_inserts


def _measure_cell(cell):
    """One (size, index) write-only measurement; top-level so it pickles."""
    n, name = cell
    keys = dataset("ycsb", n)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=13)
    n_ops = len(inserts) - 1
    ops = generate_operations(WRITE_ONLY, n_ops, load, inserts, seed=13)
    return n, name, store_result(
        WRITE_CASE[name], load, ops, name, f"write-{SIZE_LABELS[n]}"
    )


def run(jobs: int = 1):
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
    return {"fig13_writeonly": table}, results


LEARNED = ("FITing-tree-inp", "FITing-tree-buf", "PGM", "ALEX", "XIndex")
TRADITIONAL = ("BTree", "Skiplist", "Masstree", "Bwtree", "Wormhole")


def claims(results):
    small = {k[1]: r.throughput_mops for k, r in results.items()
             if k[0] == SMALL_N}
    large = {k[1]: r.throughput_mops for k, r in results.items()
             if k[0] == LARGE_N}

    def degradation(name):
        return large[name] / small[name]

    others = [n for n in LEARNED if n != "ALEX"]
    trees = max(small[n] for n in TRADITIONAL)
    return [
        claim("fig13.alex-best-learned", small["ALEX"], ">",
              max(small[n] for n in others)),
        claim("fig13.alex-beats-traditional", small["ALEX"], ">", trees),
        claim("fig13.inp-worst-learned", small["FITing-tree-inp"], "<=",
              min(small[n] for n in LEARNED if n != "FITing-tree-inp")),
        claim("fig13.others-no-advantage-over-trees",
              max(small[n] for n in others), "<=", trees),
        claim("fig13.xindex-degrades-more-than-alex", degradation("XIndex"),
              "<", degradation("ALEX")),
        claim("fig13.buf-degrades-more-than-alex",
              degradation("FITing-tree-buf"), "<", degradation("ALEX")),
        claim("fig13.alex-no-degradation", large["ALEX"], ">=", small["ALEX"]),
        claim("fig13.cceh-on-top", small["CCEH"], ">",
              max(t for n, t in small.items() if n != "CCEH")),
        claim("fig13.dev-xindex-drops-under-1pct", 1 - degradation("XIndex"),
              "<", 0.01),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
