"""Fig 16 — index build/recovery time after a crash (two sizes).

Recovery = scan every NVM record + rebuild the DRAM index.  Paper shape:
Stx-BTree and Wormhole recover fastest; RS is the fastest *learned* index
("it only needs Single-Pass to recover"); PGM is moderate; ALEX and
XIndex are the slowest (gap redistribution / group construction), and the
spread widens with the dataset.
"""

from _common import (
    LARGE_N,
    READ_CASE,
    SIZE_LABELS,
    SMALL_N,
    dataset,
)
from repro import BPlusTree, PerfContext, ViperStore
from repro.bench import claim, format_table, run_bench


def run():
    rows = []
    times = {}
    for n in (SMALL_N, LARGE_N):
        keys = dataset("ycsb", n)
        items = [(k, k) for k in keys]
        for name, factory in READ_CASE.items():
            # Stage the records once with a cheap index, then crash and
            # measure recovery with the index under test.
            perf = PerfContext()
            store = ViperStore(BPlusTree(perf=perf), perf)
            store.bulk_load(items)
            store.crash()
            elapsed_ns = store.recover(lambda: factory(perf))
            times[(n, name)] = elapsed_ns
            rows.append(
                [
                    SIZE_LABELS[n],
                    name,
                    f"{elapsed_ns / 1e6:.2f}",
                ]
            )
    table = format_table(
        ["size", "index", "recovery (sim ms)"],
        rows,
        title="Fig 16 — crash recovery: NVM scan + index rebuild",
    )
    return {"fig16_recovery": table}, times


LEARNED = ("RMI", "RS", "FITing-tree", "PGM", "ALEX", "XIndex")
TREES = ("BTree", "Wormhole", "Bwtree")


def claims(times):
    large = {name: t for (n, name), t in times.items() if n == LARGE_N}
    fast = max(large[n] for n in ("RS", "PGM", "FITing-tree"))
    return [
        claim("fig16.rs-fastest-learned", large["RS"], "<",
              min(large[n] for n in LEARNED if n != "RS")),
        claim("fig16.alex-slower-than-fast-learned", large["ALEX"], ">", fast),
        claim("fig16.xindex-slower-than-fast-learned", large["XIndex"], ">",
              fast),
        claim("fig16.btree-beats-learned", large["BTree"], "<",
              min(large[n] for n in LEARNED)),
        claim("fig16.trees-fastest", max(large[n] for n in TREES), "<",
              min(t for n, t in large.items() if n not in TREES)),
        claim("fig16.dev-alex-rs-ratio-below-paper",
              large["ALEX"] / large["RS"], "<", 6.2),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
