"""Extension — the evaluation the paper could not run: LIPP vs. ALEX.

§V-B: the authors predict that an asymmetric tree paired with an
approximation that *actively* reshapes the stored layout should beat
ALEX, name LIPP as the system that did it, and note "since it is not
open source now, we cannot evaluate it".  This bench closes that loop
with our LIPP implementation: precise positions remove the leaf
correction search entirely, so reads should beat ALEX; inserts remain
competitive because conflicts are absorbed by tiny child nodes.
"""

from _common import EXTENSIONS, N_OPS, SMALL_N, dataset, loaded_store, run_once
from repro.bench import StoreAdapter, execute_ops, format_table, write_result
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


def run_lipp_comparison():
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
    return table, results


def test_ext_lipp(benchmark):
    table, results = run_once(benchmark, run_lipp_comparison)
    write_result("ext_lipp", table)
    # The §V-B prediction: precise positions beat ALEX on reads.
    assert results["LIPP"]["read_mops"] > results["ALEX"]["read_mops"]
    assert results["LIPP"]["read_mops"] > results["PGM"]["read_mops"]
    # ...while staying a practical writer (same order of magnitude).
    assert results["LIPP"]["insert_ns"] < results["PGM"]["insert_ns"] * 5


if __name__ == "__main__":
    table, _ = run_lipp_comparison()
    write_result("ext_lipp", table)
