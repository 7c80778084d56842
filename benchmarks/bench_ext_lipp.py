"""Extension — the evaluation the paper could not run: LIPP vs. ALEX.

§V-B: the authors predict that an asymmetric tree paired with an
approximation that *actively* reshapes the stored layout should beat
ALEX, name LIPP as the system that did it, and note "since it is not
open source now, we cannot evaluate it".  This bench closes that loop
with our LIPP implementation: precise positions remove the leaf
correction search entirely, so reads should beat ALEX; inserts remain
competitive because conflicts are absorbed by tiny child nodes.
"""

from _common import EXTENSIONS, N_OPS, SMALL_N, dataset, loaded_store
from repro.bench import (
    StoreAdapter,
    claim,
    execute_ops,
    fact,
    format_table,
    run_bench,
    tightest,
)
from repro.registry import resolve
from repro.workloads import READ_ONLY, generate_operations
from repro.workloads.ycsb import split_load_and_inserts

# The paper's updatable baselines plus the extension indexes under test
# (LIPP and FINEdex), all resolved from the one registry.
CANDIDATES = {
    "ALEX": resolve("alex"),
    "PGM": resolve("pgm"),
    "LIPP": EXTENSIONS["LIPP"],
    "FINEdex": EXTENSIONS["FINEdex"],
}


def run():
    keys = dataset("ycsb", SMALL_N)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=31)
    read_ops = generate_operations(READ_ONLY, N_OPS, load, seed=31)

    rows = []
    results = {}
    for name, factory in CANDIDATES.items():
        store, perf = loaded_store(factory, load)
        read_lat = execute_ops(StoreAdapter(store), read_ops, perf).latency

        mark = perf.begin()
        for k in inserts:
            store.put(k, k)
        insert_ns = perf.end(mark).time_ns / len(inserts)

        stats = store.index.stats()
        results[name] = {
            "read_mops": 1e3 / read_lat.mean(),
            "read_p999": read_lat.quantile(0.999),
            "insert_ns": insert_ns,
            "depth": stats.depth_avg,
            "concurrent_write": store.index.capabilities().concurrent_write,
        }
        rows.append(
            [
                name,
                f"{1e3 / read_lat.mean():.3f}",
                f"{read_lat.quantile(0.999) / 1000:.2f}",
                f"{insert_ns:.0f}",
                f"{stats.depth_avg:.2f}",
            ]
        )
    table = format_table(
        ["index", "read Mops/s", "read p99.9 (us)", "insert (sim ns)", "avg depth"],
        rows,
        title="Extension — LIPP vs ALEX vs PGM (the §V-B prediction)",
    )
    return {"ext_lipp": table}, results


def claims(results):
    read = {n: r["read_mops"] for n, r in results.items()}
    insert = {n: r["insert_ns"] for n, r in results.items()}
    return [
        claim("ext-lipp.reads-beat-alex", read["LIPP"], ">", read["ALEX"]),
        claim("ext-lipp.reads-beat-pgm", read["LIPP"], ">", read["PGM"]),
        claim("ext-lipp.inserts-beat-alex", insert["LIPP"], "<",
              insert["ALEX"]),
        claim("ext-lipp.inserts-within-5x-pgm", insert["LIPP"], "<",
              insert["PGM"] * 5),
        tightest("ext-lipp.finedex-reads-between-pgm-and-alex",
                 [(read["FINEdex"], ">", read["PGM"]),
                  (read["FINEdex"], "<", read["ALEX"])]),
        fact("ext-lipp.finedex-concurrent-write",
             results["FINEdex"]["concurrent_write"]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
