"""Ablation — are the reproduced rankings an artefact of the cost model?

The whole reproduction rests on a calibrated event-cost model (DESIGN.md
§2), so the conclusions must not hinge on the exact nanosecond constants.
This ablation re-runs a compact read benchmark under strongly perturbed
cost models — cache misses 2x cheaper/dearer, NVM 2x faster/slower, flat
arithmetic — and asserts that the paper's headline orderings survive
every perturbation.
"""

from _common import SMALL_N, dataset
from repro import (
    ALEXIndex,
    BPlusTree,
    PerfContext,
    PGMIndex,
    RMIIndex,
    SkipList,
    ViperStore,
)
from repro.bench import format_table, run_bench, tightest
from repro.perf import CostModel
from repro.workloads import READ_ONLY, generate_operations

PERTURBATIONS = {
    "baseline": CostModel(),
    "cheap-misses": CostModel(dram_hop_ns=45.0),
    "dear-misses": CostModel(dram_hop_ns=180.0),
    "fast-nvm": CostModel(nvm_read_ns=150.0, nvm_write_ns=50.0),
    "slow-nvm": CostModel(nvm_read_ns=600.0, nvm_write_ns=200.0),
    "dear-compare": CostModel(compare_ns=4.0),
}

INDEXES = {
    "RMI": lambda perf: RMIIndex(perf=perf),
    "PGM": lambda perf: PGMIndex(perf=perf),
    "ALEX": lambda perf: ALEXIndex(perf=perf),
    "BTree": lambda perf: BPlusTree(perf=perf),
    "Skiplist": lambda perf: SkipList(perf=perf),
}

N_OPS_SMALL = 8000


def run():
    keys = dataset("ycsb", SMALL_N)
    ops = generate_operations(READ_ONLY, N_OPS_SMALL, keys, seed=33)
    rows = []
    ranking = {}
    for label, cost_model in PERTURBATIONS.items():
        mops = {}
        for name, factory in INDEXES.items():
            perf = PerfContext(cost_model)
            store = ViperStore(factory(perf), perf)
            store.bulk_load([(k, k) for k in keys])
            mark = perf.begin()
            for op in ops:
                store.get(op.key)
            measured = perf.end(mark)
            mops[name] = len(ops) / measured.time_ns * 1e3
            rows.append([label, name, f"{mops[name]:.3f}"])
        ranking[label] = mops
    table = format_table(
        ["cost model", "index", "Mops/s"],
        rows,
        title="Ablation — ranking stability under cost-model perturbation",
    )
    return {"ablation_cost_model": table}, ranking


def claims(ranking):
    def everywhere(cid, fast, op, slow, factor=1.0):
        return tightest(
            cid, ((m[fast], op, m[slow] * factor) for m in ranking.values())
        )

    return [
        everywhere("abl-cost.alex-above-btree", "ALEX", ">", "BTree"),
        everywhere("abl-cost.pgm-above-btree", "PGM", ">", "BTree"),
        everywhere("abl-cost.alex-above-skiplist", "ALEX", ">", "Skiplist"),
        everywhere("abl-cost.btree-above-skiplist", "BTree", ">", "Skiplist"),
        everywhere("abl-cost.alex-near-rmi", "ALEX", ">=", "RMI", 0.95),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
