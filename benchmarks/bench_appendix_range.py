"""Appendix — range-query performance of the sorted indexes.

The paper: "We evaluated the performance of a range query for learned
indexes and included the results in the appendix."  Each operation is a
YCSB-E style scan: position at a random key, read the next 50 records
through the store.  Expected shape: scan cost = positioning cost (where
the indexes differ) + sequential record reads (where they do not), so the
read-only ranking compresses but survives; CCEH cannot serve scans.

Every index is measured twice — the scalar ``scan`` loop and the
vectorized ``scan_many`` batch path — and two claims require them to
agree exactly in results *and* simulated time (the batch path's
contract).  The table holds simulated time only, so a re-run reproduces
it byte for byte.  ``--jobs N`` fans the per-index measurements across
worker processes via the shared ``pool_map`` (output order stays
registry order).
"""

import random

from _common import (
    READ_CASE,
    SMALL_N,
    dataset,
    loaded_store,
    pool_map,
)
from repro.bench import claim, fact, format_table, run_bench
from repro.errors import UnsupportedOperationError

SCAN_LENGTH = 50
N_SCANS = 3000
BATCH = 512


def _scan_workload():
    keys = dataset("ycsb", SMALL_N)
    rng = random.Random(35)
    return keys, rng.sample(keys, N_SCANS)


def measure_range_case(name: str) -> dict:
    """Scalar + batched scan profile of one read-figure index.

    A picklable top-level entry point so ``pool_map`` can fan the
    per-index measurements out across ``--jobs`` processes.
    """
    keys, starts = _scan_workload()
    store, perf = loaded_store(READ_CASE[name], keys)
    try:
        mark = perf.begin()
        scalar = [store.scan(start, SCAN_LENGTH) for start in starts]
        scalar_sim = perf.end(mark)

        mark = perf.begin()
        batched = []
        for lo in range(0, len(starts), BATCH):
            batched.extend(
                store.scan_many(starts[lo : lo + BATCH], SCAN_LENGTH)
            )
        batched_sim = perf.end(mark)
    except UnsupportedOperationError:
        return {"name": name, "supported": False}
    return {
        "name": name,
        "supported": True,
        "per_scan_ns": scalar_sim.time_ns / N_SCANS,
        "same_answers": batched == scalar,
        "same_time": batched_sim.time_ns == scalar_sim.time_ns,
    }


def run(jobs: int = 1):
    measured = pool_map(measure_range_case, list(READ_CASE), jobs)
    rows = []
    results = {}
    for m in measured:
        if not m["supported"]:
            rows.append([m["name"], "-", "unsupported"])
            continue
        results[m["name"]] = m
        rows.append(
            [
                m["name"],
                f"{m['per_scan_ns'] / 1000:.2f}",
                "ok",
            ]
        )
    table = format_table(
        [
            "index",
            f"scan of {SCAN_LENGTH} (sim us)",
            "status",
        ],
        rows,
        title="Appendix — range scans through the store (scalar vs batched)",
    )
    return {"appendix_range": table}, results


def claims(results):
    per_scan = [m["per_scan_ns"] for m in results.values()]
    return [
        fact("appendix-range.batch-answers-equal-scalar",
             all(m["same_answers"] for m in results.values())),
        fact("appendix-range.batch-time-equals-scalar",
             all(m["same_time"] for m in results.values())),
        fact("appendix-range.cceh-cannot-scan", "CCEH" not in results),
        fact("appendix-range.every-sorted-index-scans",
             len(results) == len(READ_CASE) - 1),
        claim("appendix-range.alex-below-btree",
              results["ALEX"]["per_scan_ns"], "<",
              results["BTree"]["per_scan_ns"]),
        # The 50 sequential record reads dominate every index's scan.
        claim("appendix-range.costs-compress", max(per_scan) / min(per_scan),
              "<", 4.0),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
