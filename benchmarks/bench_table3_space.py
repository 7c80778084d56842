"""Table III — space overhead in three DRAM-budget scenarios.

Paper shape: learned index *structures* are orders of magnitude smaller
than a B+tree (ALEX 129KB vs BTree 155MB at 200M), but once the sorted
keys (index+key) or full records (index+KV) must also live in DRAM the
totals converge — "the space advantage of learned indexes is not
significant in many practical environments".
"""

from _common import READ_CASE, SMALL_N, dataset, loaded_store
from repro.bench import claim, format_table, run_bench


def _fmt(n_bytes):
    if n_bytes >= 1 << 20:
        return f"{n_bytes / (1 << 20):.2f}MB"
    return f"{n_bytes / 1024:.2f}KB"


def run():
    keys = dataset("ycsb", SMALL_N)
    rows = []
    overheads = {}
    for name, factory in READ_CASE.items():
        store, _ = loaded_store(factory, keys)
        o = store.space_overhead()
        overheads[name] = o
        rows.append(
            [name, _fmt(o["index"]), _fmt(o["index+key"]), _fmt(o["index+kv"])]
        )
    table = format_table(
        ["index", "index size", "index+key size", "index+KV size"],
        rows,
        title=f"Table III — space overhead ({SMALL_N} records of 208B)",
    )
    return {"table3_space": table}, overheads


def claims(overheads):
    index = {n: o["index"] for n, o in overheads.items()}
    key = {n: o["index+key"] for n, o in overheads.items()}
    kv = [o["index+kv"] for o in overheads.values()]
    btree = index["BTree"]
    return [
        claim("table3.alex-smallest-index", index["ALEX"], "<",
              min(v for n, v in index.items() if n != "ALEX")),
        claim("table3.pla-below-quarter-btree",
              max(index[n] for n in ("PGM", "RS", "FITing-tree")), "<",
              btree / 4),
        claim("table3.gaps-and-buffers-inflate-index-key",
              min(key["ALEX"], key["XIndex"]), ">", key["PGM"] * 1.2),
        claim("table3.index-kv-converges", max(kv), "<", min(kv) * 1.3),
        # n/32 second-stage models keep RMI's structure near the B+tree's.
        claim("table3.dev-rmi-not-below-quarter-btree", index["RMI"], ">=",
              btree / 4),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
