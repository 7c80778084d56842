"""Ablation — hyper-parameter tuning, and whether our defaults are sane.

Reproduces the paper's selection step (§III-A1: per-index grids, best
configuration wins) for three representative indexes, and checks that the
library's *default* configurations land near the grid optimum — i.e. the
reproduced rankings are not an artefact of mis-tuned competitors.
"""

import random

from _common import SMALL_N, dataset
from repro import FITingTree, PGMIndex, PerfContext, RMIIndex
from repro.bench import format_table, run_bench, tightest
from repro.bench.tuning import grid_search

GRIDS = {
    "PGM": (
        lambda eps, eps_internal, perf: PGMIndex(
            eps=eps, eps_internal=eps_internal, perf=perf
        ),
        {"eps": (4, 16, 64, 256), "eps_internal": (2, 4, 8)},
        lambda perf: PGMIndex(perf=perf),
    ),
    "RMI": (
        lambda branching, perf: RMIIndex(branching=branching, perf=perf),
        {"branching": (64, 256, 1024, 4096)},
        lambda perf: RMIIndex(perf=perf),
    ),
    "FITing-tree": (
        lambda eps, btree_fanout, perf: FITingTree(
            eps=eps, btree_fanout=btree_fanout, strategy="buffer", perf=perf
        ),
        {"eps": (8, 16, 64), "btree_fanout": (8, 16, 64)},
        lambda perf: FITingTree(strategy="buffer", perf=perf),
    ),
}

N_PROBES = 2000


def run():
    keys = list(dataset("ycsb", SMALL_N))
    items = [(k, k) for k in keys]
    rng = random.Random(38)
    probes = rng.sample(keys, N_PROBES)
    rows = []
    outcome = {}
    for name, (factory, grid, default_factory) in GRIDS.items():
        result = grid_search(factory, grid, items, probes)

        perf = PerfContext()
        default = default_factory(perf)
        default.bulk_load(items)
        mark = perf.begin()
        for key in probes:
            default.get(key)
        default_ns = perf.end(mark).time_ns / len(probes)

        outcome[name] = {
            "best_ns": result.best.read_ns,
            "default_ns": default_ns,
            "best_params": result.best.params,
        }
        rows.append(
            [
                name,
                str(result.best.params),
                f"{result.best.read_ns:.0f}",
                f"{default_ns:.0f}",
                f"{default_ns / result.best.read_ns:.2f}x",
            ]
        )
    table = format_table(
        ["index", "grid best params", "best read (ns)", "default read (ns)", "default/best"],
        rows,
        title="Ablation — per-index hyper-parameter grids (paper §III-A1)",
    )
    return {"ablation_tuning": table}, outcome


def claims(outcome):
    # FITing-tree keeps fanout-16 inner nodes for fidelity although a
    # fanout-64 tree saves one level at our fence counts.
    return [
        tightest("abl-tuning.defaults-near-optimum",
                 ((o["default_ns"], "<=", o["best_ns"] * 1.5)
                  for o in outcome.values())),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
