"""Fig 17(c) — internal structures: leaf count vs. root-to-leaf query time.

Paper shape: ATS has the minimum query time at every leaf count (variable
depth — hot paths are short); LRS ~ BTREE at few leaves but clearly
faster at many leaves (calculation beats comparison); fewer leaves is
cheaper for every structure.
"""

import random

from _common import SMALL_N, dataset
from repro.bench import claim, format_table, run_bench, tightest
from repro.core.structures import (
    ATSStructure,
    BTreeStructure,
    LRSStructure,
    RMIStructure,
)
from repro.perf import PerfContext

LEAF_COUNTS = (500, 2_000, 10_000, 40_000)
N_PROBES = 3000

STRUCTURES = [
    ("RMI", lambda perf: RMIStructure(branching=1024, perf=perf)),
    ("ATS", lambda perf: ATSStructure(max_node_fences=32, perf=perf)),
    ("BTREE", lambda perf: BTreeStructure(fanout=16, perf=perf)),
    ("LRS", lambda perf: LRSStructure(eps=4, perf=perf)),
]


def run():
    keys = list(dataset("ycsb", SMALL_N))
    rng = random.Random(18)
    probes = rng.sample(keys, N_PROBES)
    rows = []
    series = {}
    for name, make in STRUCTURES:
        points = []
        for leaves in LEAF_COUNTS:
            step = max(1, len(keys) // leaves)
            fences = keys[::step][:leaves]
            perf = PerfContext()
            structure = make(perf)
            structure.build(fences)
            mark = perf.begin()
            for key in probes:
                structure.lookup(key)
            cost = perf.end(mark).time_ns / len(probes)
            points.append((len(fences), cost))
            rows.append([name, len(fences), f"{cost:.0f}"])
        series[name] = points
    table = format_table(
        ["structure", "leaves", "lookup (sim ns)"],
        rows,
        title="Fig 17(c) — internal structure query time vs leaf count",
    )
    return {"fig17c_structures": table}, series


def claims(series):
    cost = {name: [c for _, c in points] for name, points in series.items()}
    at = range(len(LEAF_COUNTS))
    return [
        tightest("fig17c.ats-cheapest",
                 ((cost["ATS"][i], "<=", cost[other][i] * 1.05)
                  for i in at for other in ("RMI", "BTREE", "LRS"))),
        claim("fig17c.lrs-beats-btree-at-many-leaves", cost["LRS"][-1], "<",
              cost["BTREE"][-1]),
        tightest("fig17c.btree-most-expensive",
                 ((cost["BTREE"][i], ">",
                   max(c[i] for n, c in cost.items() if n != "BTREE"))
                  for i in at)),
        tightest("fig17c.cost-rises-with-leaves",
                 ((c[0], "<", c[-1]) for c in cost.values())),
        tightest("fig17c.dev-ats-within-5pct-of-rmi",
                 ((abs(cost["ATS"][i] / cost["RMI"][i] - 1), "<", 0.05)
                  for i in at)),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
