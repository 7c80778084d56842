"""Fig 17(a) — approximation algorithms: average error vs. leaf query time.

Paper shape: "the lower the error, the higher the query performance, only
for the leaf node inside" — leaf query time grows with the model's average
error for every algorithm, and LSA-gap sits at the far low-error end.
"""

import random

from _common import SMALL_N, dataset
from repro.bench import format_table, run_bench, tightest
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


def run():
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
    return {"fig17a_approximation": table}, series


def claims(series):
    lsa = {leaves: err for err, _, leaves in series["LSA"]}
    gap = {leaves: err for err, _, leaves in series["LSA-gap"]}
    shared = set(lsa) & set(gap)
    return [
        # Cost at the lowest error below cost at the highest.
        tightest("fig17a.cost-rises-with-error",
                 ((min(points)[1], "<", max(points)[1])
                  for points in series.values())),
        tightest("fig17a.gap-error-below-third-of-lsa",
                 ((gap[n], "<", lsa[n] / 3) for n in shared if lsa[n] >= 4.0)),
        tightest("fig17a.gap-error-at-most-lsa",
                 ((gap[n], "<=", lsa[n]) for n in shared if lsa[n] < 4.0)),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
