"""Ablation — the §III-A1 methodology decision, measured.

The paper swaps FITing-tree's greedy FSW approximator for PGM's Opt-PLA
("proved to be theoretically better ... this will help us compare the
other design dimensions") without measuring the difference.  This
ablation measures it: same index, same epsilon, only the approximation
algorithm changes.  Expected: Opt-PLA produces no more leaves, hence a
shallower/cheaper inner B+tree, at equal bounded leaf-search cost.
"""

import random

from _common import SMALL_N, dataset
from repro import FITingTree, PerfContext
from repro.bench import format_table, run_bench, tightest

EPSILONS = (8, 16, 32, 64)
N_PROBES = 5000


def run():
    keys = list(dataset("ycsb", SMALL_N))
    items = [(k, k) for k in keys]
    rng = random.Random(32)
    probes = rng.sample(keys, N_PROBES)
    rows = []
    results = {}
    for eps in EPSILONS:
        for algo in ("greedy", "optpla"):
            perf = PerfContext()
            index = FITingTree(
                eps=eps, strategy="buffer", approximation=algo, perf=perf
            )
            index.bulk_load(items)
            mark = perf.begin()
            for key in probes:
                index.get(key)
            read_ns = perf.end(mark).time_ns / len(probes)
            stats = index.stats()
            results[(eps, algo)] = {
                "leaves": stats.leaf_count,
                "read_ns": read_ns,
            }
            rows.append(
                [eps, algo, stats.leaf_count, f"{read_ns:.0f}"]
            )
    table = format_table(
        ["eps", "approximation", "leaves", "read (sim ns)"],
        rows,
        title="Ablation — FITing-tree with greedy-PLA vs Opt-PLA leaves",
    )
    return {"ablation_approximation": table}, results


def claims(results):
    pairs = [(results[(e, "optpla")], results[(e, "greedy")])
             for e in EPSILONS]
    return [
        tightest("abl-approx.optpla-no-more-leaves",
                 ((opt["leaves"], "<=", greedy["leaves"])
                  for opt, greedy in pairs)),
        tightest("abl-approx.optpla-not-slower",
                 ((opt["read_ns"], "<=", greedy["read_ns"] * 1.05)
                  for opt, greedy in pairs)),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
