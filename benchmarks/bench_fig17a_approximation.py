"""Fig 17(a) — approximation algorithms: average error vs. leaf query time.

Paper shape: "the lower the error, the higher the query performance, only
for the leaf node inside" — leaf query time grows with the model's average
error for every algorithm, and LSA-gap sits at the far low-error end.
"""

import random

from _common import SMALL_N, dataset, run_once
from repro.bench import format_table, write_result
from repro.core.approximation import (
    LSAApproximator,
    LSAGapApproximator,
    OptPLAApproximator,
)
from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.gapped import GappedLeaf
from repro.core.search import rank_search
from repro.perf import Event, PerfContext

CONFIGS = [
    ("LSA", lambda p: LSAApproximator(segment_size=p), (128, 512, 2048, 8192)),
    ("Opt-PLA", lambda p: OptPLAApproximator(eps=p), (4, 16, 64, 256)),
    (
        "LSA-gap",
        lambda p: LSAGapApproximator(segment_size=p, density=0.7),
        (128, 512, 2048, 8192),
    ),
]

N_PROBES = 3000


def leaf_query_cost_ns(approx, keys, probes, perf):
    """Average simulated cost of locating a key *within* its leaf."""
    gapped_leaves = {
        id(seg): GappedLeaf(seg, [None] * seg.n, perf)
        for seg in approx.segments
        if isinstance(seg, GappedSegment)
    }
    mark_all = perf.begin()
    for key in probes:
        seg = approx.segment_for(key)
        perf.charge(Event.DRAM_HOP)  # reach the leaf
        perf.charge(Event.MODEL_EVAL)
        if isinstance(seg, GappedSegment):
            gapped_leaves[id(seg)]._rank_slot(key)
        else:
            guess = seg.start + seg.predict(key)
            rank_search(keys, 0, len(keys) - 1, key, guess, perf)
    return perf.end(mark_all).time_ns / len(probes)


def run_fig17a():
    keys = list(dataset("ycsb", SMALL_N))
    rng = random.Random(17)
    probes = rng.sample(keys, N_PROBES)
    rows = []
    series = {}
    for name, make, params in CONFIGS:
        points = []
        for param in params:
            perf = PerfContext()
            approx = make(param).fit(keys)
            cost = leaf_query_cost_ns(approx, keys, probes, perf)
            points.append((approx.avg_error, cost, approx.leaf_count))
            rows.append(
                [
                    name,
                    param,
                    f"{approx.avg_error:.2f}",
                    f"{cost:.0f}",
                    approx.leaf_count,
                ]
            )
        series[name] = points
    table = format_table(
        ["algorithm", "param", "avg error", "leaf query (sim ns)", "leaves"],
        rows,
        title="Fig 17(a) — approximation algorithms: error vs leaf query time",
    )
    return table, series


def test_fig17a(benchmark):
    table, series = run_once(benchmark, run_fig17a)
    write_result("fig17a_approximation", table)
    # Within each algorithm, lower error => faster leaf query.
    for name, points in series.items():
        by_err = sorted(points)
        costs = [c for _, c, _ in by_err]
        assert costs[0] < costs[-1], f"{name}: cost not increasing with error"
    # LSA-gap achieves far lower error than plain LSA at equal leaf
    # counts — dramatically so once LSA's error is non-trivial.
    lsa = {leaves: err for err, _, leaves in series["LSA"]}
    gap = {leaves: err for err, _, leaves in series["LSA-gap"]}
    for leaves in set(lsa) & set(gap):
        if lsa[leaves] >= 4.0:
            assert gap[leaves] < lsa[leaves] / 3
        else:
            assert gap[leaves] <= lsa[leaves]


if __name__ == "__main__":
    table, _ = run_fig17a()
    write_result("fig17a_approximation", table)
