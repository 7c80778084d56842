"""Fig 17(d) — per-index scatter: structure query cost vs. leaf query cost.

Each published learned index is decomposed into its structure dimension
(measured at the leaf count its approximator actually produces) and its
approximation dimension (measured on its leaves).  Paper shape: "the
closer the record is to the bottom left corner ... the better.  Obviously,
ALEX is the best" — its CDF-reshaping approximator yields so few leaves
that both coordinates are small simultaneously.
"""

import random

from _common import SMALL_N, dataset
from bench_fig17a_approximation import leaf_query_cost_ns
from repro.bench import claim, format_table, run_bench
from repro.core.approximation import (
    LSAApproximator,
    LSAGapApproximator,
    OptPLAApproximator,
    SplineApproximator,
)
from repro.core.structures import (
    ATSStructure,
    BTreeStructure,
    LRSStructure,
    RadixTableStructure,
    RMIStructure,
)
from repro.perf import PerfContext

N_PROBES = 2500

#: index -> (its approximator, its structure factory)
DECOMPOSITION = {
    "RMI": (
        lambda: LSAApproximator(segment_size=64),
        lambda perf: RMIStructure(branching=1024, perf=perf),
    ),
    "RS": (
        lambda: SplineApproximator(eps=8),
        lambda perf: RadixTableStructure(r_bits=8, perf=perf),
    ),
    "FITing-tree": (
        lambda: OptPLAApproximator(eps=16),
        lambda perf: BTreeStructure(fanout=16, perf=perf),
    ),
    "PGM": (
        lambda: OptPLAApproximator(eps=16),
        lambda perf: LRSStructure(eps=4, perf=perf),
    ),
    "ALEX": (
        lambda: LSAGapApproximator(segment_size=16384, density=0.7),
        lambda perf: ATSStructure(max_node_fences=32, perf=perf),
    ),
    "XIndex": (
        lambda: LSAApproximator(segment_size=256),
        lambda perf: RMIStructure(branching=1024, perf=perf),
    ),
}


def run():
    keys = list(dataset("ycsb", SMALL_N))
    rng = random.Random(19)
    probes = rng.sample(keys, N_PROBES)
    rows = []
    points = {}
    for name, (make_approx, make_structure) in DECOMPOSITION.items():
        approx = make_approx().fit(keys)

        perf = PerfContext()
        structure = make_structure(perf)
        structure.build(approx.fences)
        mark = perf.begin()
        for key in probes:
            structure.lookup(key)
        structure_ns = perf.end(mark).time_ns / len(probes)

        leaf_perf = PerfContext()
        leaf_ns = leaf_query_cost_ns(approx, keys, probes, leaf_perf)

        points[name] = (structure_ns, leaf_ns)
        rows.append(
            [
                name,
                approx.leaf_count,
                f"{structure_ns:.0f}",
                f"{leaf_ns:.0f}",
                f"{structure_ns + leaf_ns:.0f}",
            ]
        )
    table = format_table(
        ["index", "leaves", "structure (ns)", "leaf (ns)", "total (ns)"],
        rows,
        title="Fig 17(d) — structure cost vs leaf cost per learned index",
    )
    return {"fig17d_leaf_vs_structure": table}, points


def claims(points):
    structure = {n: s for n, (s, _) in points.items() if n != "ALEX"}
    leaf = {n: l for n, (_, l) in points.items() if n != "ALEX"}
    alex_structure, alex_leaf = points["ALEX"]
    return [
        claim("fig17d.alex-lowest-total", alex_structure + alex_leaf, "<=",
              min(structure[n] + leaf[n] for n in structure)),
        claim("fig17d.alex-lowest-structure", alex_structure, "<",
              min(structure.values())),
        claim("fig17d.dev-alex-leaf-not-lowest", alex_leaf, ">",
              min(leaf.values())),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
