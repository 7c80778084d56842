"""Ablation — §V-B2's sequential-insert warning, measured.

"Since sequential data will always be inserted at the end of the storage
space, the inplace insertion strategy proposed by ALEX will waste much
space.  Therefore, we should design different insertion strategies
according to different target data."  This ablation appends
monotonically increasing keys to ALEX, FITing-tree-buf and a B+tree and
compares (a) key-store space per live key and (b) insert cost — on
append-only data the gapped array's reserved space buys nothing.
"""

from _common import SMALL_N
from repro import ALEXIndex, BPlusTree, FITingTree, PerfContext
from repro.bench import claim, format_table, run_bench
from repro.workloads import sequential_keys

CANDIDATES = {
    "ALEX": lambda p: ALEXIndex(perf=p),
    "FITing-tree-buf": lambda p: FITingTree(strategy="buffer", perf=p),
    "BTree": lambda p: BPlusTree(perf=p),
}


def run():
    keys = sequential_keys(SMALL_N, step=8)
    half = SMALL_N // 2
    load = [(k, k) for k in keys[:half]]
    appends = keys[half:]
    rows = []
    metrics = {}
    for name, factory in CANDIDATES.items():
        perf = PerfContext()
        index = factory(perf)
        index.bulk_load(load)
        mark = perf.begin()
        for k in appends:
            index.insert(k, k)
        insert_ns = perf.end(mark).time_ns / len(appends)
        per_key = index.key_store_bytes() / len(index)
        metrics[name] = {"insert_ns": insert_ns, "bytes_per_key": per_key}
        rows.append([name, f"{insert_ns:.0f}", f"{per_key:.1f}"])
    table = format_table(
        ["index", "append insert (sim ns)", "key-store bytes/key"],
        rows,
        title="Ablation — append-only inserts (the §V-B2 scenario)",
    )
    return {"ablation_sequential": table}, metrics


def claims(metrics):
    return [
        claim("abl-sequential.alex-gaps-waste-space",
              metrics["ALEX"]["bytes_per_key"], ">",
              metrics["FITing-tree-buf"]["bytes_per_key"] * 1.1),
        claim("abl-sequential.appends-cheap",
              max(m["insert_ns"] for m in metrics.values()), "<", 3000),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
