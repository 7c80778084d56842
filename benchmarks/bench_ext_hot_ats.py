"""Extension — hot-aware asymmetric tree (the paper's §V-B1 direction).

"The asymmetric tree structure can support the hot data to be placed
closer to the root node, which can shorten the total number of queries
and improve query performance, which is also our future research
direction."  This bench builds the same fence set twice — once with the
plain ATS rule, once weighting model errors by a zipfian access
distribution — and replays zipfian lookups against both.
"""

from _common import SMALL_N, dataset
from repro.bench import claim, format_table, run_bench
from repro.core.structures import ATSStructure, HotATSStructure
from repro.perf import PerfContext
from repro.workloads.distributions import ZipfianGenerator

N_FENCES = 20_000
N_TRAIN = 200_000
N_PROBES = 20_000


def run():
    keys = list(dataset("osm", SMALL_N))
    step = max(1, len(keys) // N_FENCES)
    fences = keys[::step]

    zipf = ZipfianGenerator(len(fences), seed=36)
    weights = [0.0] * len(fences)
    for _ in range(N_TRAIN):
        weights[zipf.next() % len(fences)] += 1.0

    probe_zipf = ZipfianGenerator(len(fences), seed=37)
    probes = [fences[probe_zipf.next() % len(fences)] for _ in range(N_PROBES)]

    rows = []
    results = {}
    for label, structure, builder in (
        (
            "ATS (plain)",
            ATSStructure(max_node_fences=16, error_threshold=4,
                         perf=PerfContext()),
            lambda s: s.build(fences),
        ),
        (
            "ATS (hot-aware)",
            HotATSStructure(max_node_fences=16, error_threshold=4,
                            perf=PerfContext()),
            lambda s: s.build_weighted(fences, weights),
        ),
    ):
        builder(structure)
        perf = structure.perf
        mark = perf.begin()
        for key in probes:
            structure.lookup(key)
        cost = perf.end(mark).time_ns / len(probes)
        results[label] = {"cost": cost, "depth": structure.avg_depth()}
        rows.append(
            [
                label,
                f"{cost:.0f}",
                f"{structure.avg_depth():.2f}",
                structure.max_depth(),
            ]
        )
    table = format_table(
        ["structure", "zipf lookup (sim ns)", "avg depth", "max depth"],
        rows,
        title="Extension — hot-aware ATS under zipfian access",
    )
    return {"ext_hot_ats": table}, results


def claims(results):
    plain, hot = results["ATS (plain)"], results["ATS (hot-aware)"]
    return [
        claim("ext-hot-ats.hot-aware-cheaper", hot["cost"], "<",
              plain["cost"]),
        claim("ext-hot-ats.hot-aware-shallower", hot["depth"], "<",
              plain["depth"]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
