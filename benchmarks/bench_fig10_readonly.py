"""Fig 10 — end-to-end read-only evaluation (YCSB & OSM, two sizes).

Paper shape to reproduce: ALEX best overall and clearly above the
traditional sorted indexes; learned > traditional tree indexes; RS strong
at the small size but degrading at the large one; RMI slightly above PGM
on throughput with a far worse tail; every learned index degrades on OSM
(complex CDF) while traditional indexes do not.  CCEH is the unordered
reference line.
"""

from _common import (
    N_OPS,
    READ_CASE,
    SIZE_LABELS,
    SMALL_N,
    LARGE_N,
    dataset,
    store_result,
)
from repro.bench import (
    claim,
    fact,
    format_bars,
    format_table,
    run_bench,
    tightest,
)
from repro.workloads import READ_ONLY, generate_operations


def _run_dataset(dataset_name: str):
    rows = []
    results = []
    for n in (SMALL_N, LARGE_N):
        keys = dataset(dataset_name, n)
        ops = generate_operations(READ_ONLY, N_OPS, keys, seed=10)
        for name, factory in READ_CASE.items():
            result = store_result(
                factory, keys, ops, name, f"{dataset_name}-{SIZE_LABELS[n]}"
            )
            results.append(result)
            rows.append(
                [
                    SIZE_LABELS[n],
                    name,
                    f"{result.throughput_mops:.3f}",
                    f"{result.p50_ns / 1000:.2f}",
                    f"{result.p999_ns / 1000:.2f}",
                ]
            )
    table = format_table(
        ["size", "index", "Mops/s", "p50 (us)", "p99.9 (us)"],
        rows,
        title=f"Fig 10 — read-only, dataset={dataset_name} "
        f"(simulated single-thread)",
    )
    small_label = SIZE_LABELS[SMALL_N]
    bars = format_bars(
        [
            (r.index, round(r.throughput_mops, 3))
            for r in results
            if r.workload == f"{dataset_name}-{small_label}"
        ],
        title=f"throughput at {small_label} (Mops/s)",
        unit=" Mops",
    )
    return table + "\n\n" + bars, results


def run():
    """Both datasets; results keyed by ``(workload, index)``."""
    tables, results = {}, {}
    for ds in ("ycsb", "osm"):
        tables[f"fig10_readonly_{ds}"], measured = _run_dataset(ds)
        results.update({(r.workload, r.index): r for r in measured})
    return tables, results


LEARNED = ("RMI", "RS", "FITing-tree", "PGM", "ALEX", "XIndex")
TRADITIONAL = ("BTree", "Skiplist", "Masstree", "Bwtree", "Wormhole")


def claims(results):
    sizes = small, large = SIZE_LABELS[SMALL_N], SIZE_LABELS[LARGE_N]

    def mops(name, size=small, ds="ycsb"):
        return results[(f"{ds}-{size}", name)].throughput_mops

    def p999(name, size=small):
        return results[(f"ycsb-{size}", name)].p999_ns

    def best(names, size=small, ds="ycsb"):
        return max(mops(n, size, ds) for n in names)

    others = [n for n in LEARNED if n != "ALEX"]
    return [
        tightest("fig10.alex-best-learned",
                 ((mops("ALEX", s), ">", best(others, s)) for s in sizes)),
        claim("fig10.alex-beats-traditional", mops("ALEX"), ">",
              best(TRADITIONAL)),
        tightest("fig10.learned-beat-traditional",
                 ((min(mops(n, s) for n in LEARNED), ">",
                   best(TRADITIONAL, s)) for s in sizes)),
        tightest("fig10.rmi-above-pgm",
                 ((mops("RMI", s), ">", mops("PGM", s)) for s in sizes)),
        tightest("fig10.rmi-tail-above-pgm",
                 ((p999("RMI", s), ">", p999("PGM", s)) for s in sizes)),
        claim("fig10.rmi-tail-grows", p999("RMI", large), ">", p999("RMI")),
        claim("fig10.rs-drops-at-large", mops("RS", large), "<", mops("RS")),
        claim("fig10.alex-tail-grows", p999("ALEX", large), ">", p999("ALEX")),
        tightest("fig10.osm-learned-no-gain",
                 ((mops(n, s, "osm"), "<=", mops(n, s))
                  for n in LEARNED for s in sizes)),
        fact("fig10.osm-traditional-unchanged",
             all(mops(n, s, "osm") == mops(n, s)
                 for n in TRADITIONAL for s in sizes)),
        tightest("fig10.cceh-ceiling",
                 ((mops("CCEH", s, ds), ">",
                   best(LEARNED + TRADITIONAL, s, ds))
                  for s in sizes for ds in ("ycsb", "osm"))),
        claim("fig10.dev-pgm-within-1pct-of-fiting",
              abs(mops("PGM") / mops("FITing-tree") - 1), "<", 0.01),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
