#!/usr/bin/env python3
"""Wall-clock micro-benchmark for the vectorized hot paths (PR 2, PR 3).

Unlike every ``bench_fig*`` module — which reports *simulated* nanoseconds
from the cost model — this one measures real wall-clock throughput of the
Python implementation itself, tracking the perf trajectory of the
vectorized fast paths across PRs.  Fixed seed, fixed query sets, so two
runs on the same machine are comparable.

Measured per index (PGM, RS, BTree, ALEX — one LSM learned index, one
static learned index, one traditional baseline, one gapped learned
index):

* ``bulk_load``    — keys/s building the index from a sorted array.
* ``get``          — scalar point lookups per second.
* ``get_many``     — the same query set answered through the batch API.
* ``insert``       — fresh-key scalar inserts per second (static RS skips
  every write case).
* ``insert_many``  — fresh-key inserts through the batch API, on a fresh
  copy of the index.
* ``put``          — scalar ``ViperStore.put`` (index + simulated NVM).
* ``put_many``     — the same fresh keys through ``ViperStore.put_many``.

Usage::

    python benchmarks/bench_micro.py --quick            # CI smoke scale
    python benchmarks/bench_micro.py --out BENCH_MICRO.json
    python benchmarks/bench_micro.py --quick --check    # fail on regression

The cyclic garbage collector is off while an index is measured.

``--check`` exits non-zero if a batch API is slower than its scalar
counterpart on an index with a native batch path — the batch APIs' whole
point is to beat the per-key loop there — or more than modestly slower on
a fallback index (a fallback batch *is* the per-key loop plus list
bookkeeping, so parity minus that overhead is its ceiling).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

from repro.perf.context import PerfContext
from repro.registry import has_native_batch, has_native_batch_insert, resolve
from repro.store.viper import ViperStore

SEED = 42

#: Registry aliases of the four representative indexes.
INDEXES = ("pgm", "rs", "btree", "alex")

#: Fallback indexes answer batches with the scalar loop plus a result
#: list; allow that bookkeeping overhead before calling it a regression.
FALLBACK_FLOOR = 0.75

#: Full-scale parameters (the committed BENCH_PR3.json and
#: BENCH_MICRO.json numbers).
FULL = {
    "n_keys": 1_000_000,
    "n_scalar": 5_000,
    "n_batch": 200_000,
    "n_write": 50_000,
}
#: ``--quick`` parameters (CI perf-smoke job).
QUICK = {
    "n_keys": 50_000,
    "n_scalar": 2_000,
    "n_batch": 20_000,
    "n_write": 3_000,
}


def _make_keys(n: int, rng: random.Random):
    """Sorted unique uint64-range keys, deterministic in ``rng``."""
    return sorted(rng.sample(range(1, 2**50), n + n // 10))


def _ops_per_sec(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("inf")


def bench_index(alias: str, scale: dict, rng: random.Random) -> dict:
    spec = resolve(alias)
    n_keys = scale["n_keys"]
    all_keys = _make_keys(n_keys, rng)
    # Hold out every 11th key (the n//10 surplus) as insert targets so
    # fresh writes interleave across the whole key range, as in the YCSB
    # insert workloads — a sorted-prefix split would aim every write at
    # the top leaf and measure retrain churn instead of the write path.
    load_keys = [k for i, k in enumerate(all_keys) if i % 11 != 5]
    extra_keys = [k for i, k in enumerate(all_keys) if i % 11 == 5]
    n_keys = len(load_keys)
    write_keys = rng.sample(extra_keys, min(scale["n_write"], len(extra_keys)))
    items = [(k, k) for k in load_keys]
    write_items = [(k, k) for k in write_keys]

    scalar_queries = [
        k + rng.choice((0, 1)) for k in rng.sample(load_keys, scale["n_scalar"])
    ]
    batch_queries = [
        k + rng.choice((0, 1))
        for k in rng.choices(load_keys, k=scale["n_batch"])
    ]

    index = spec.build(PerfContext())

    t0 = time.perf_counter()
    index.bulk_load(items)
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    for q in scalar_queries:
        index.get(q)
    t_scalar = time.perf_counter() - t0

    t0 = time.perf_counter()
    index.get_many(batch_queries)
    t_batch = time.perf_counter() - t0

    row = {
        "name": spec.name,
        "native_batch": has_native_batch(index),
        "native_batch_insert": has_native_batch_insert(index),
        "n_keys": n_keys,
        "bulk_load_keys_s": _ops_per_sec(n_keys, t_build),
        "get_ops_s": _ops_per_sec(len(scalar_queries), t_scalar),
        "get_many_ops_s": _ops_per_sec(len(batch_queries), t_batch),
        "insert_ops_s": None,
        "insert_many_ops_s": None,
        "insert_batch_speedup": None,
        "put_ops_s": None,
        "put_many_ops_s": None,
        "put_batch_speedup": None,
    }
    row["batch_speedup"] = row["get_many_ops_s"] / row["get_ops_s"]

    if not index.capabilities().updatable:
        return row

    # Scalar inserts mutate the already-queried index (as before PR 3);
    # every batch case below starts from a fresh bulk-loaded copy so each
    # write path sees the identical pre-state.
    insert_keys = write_keys[: min(2_000, len(write_keys))]
    t0 = time.perf_counter()
    for k in insert_keys:
        index.insert(k, k)
    t_insert = time.perf_counter() - t0
    row["insert_ops_s"] = _ops_per_sec(len(insert_keys), t_insert)

    fresh = spec.build(PerfContext())
    fresh.bulk_load(items)
    t0 = time.perf_counter()
    fresh.insert_many(write_items)
    t_insert_many = time.perf_counter() - t0
    row["insert_many_ops_s"] = _ops_per_sec(len(write_items), t_insert_many)
    row["insert_batch_speedup"] = row["insert_many_ops_s"] / row["insert_ops_s"]

    put_keys = write_keys[: min(scale["n_scalar"], len(write_keys))]
    perf = PerfContext()
    store = ViperStore(spec.build(perf), perf)
    store.bulk_load(items)
    t0 = time.perf_counter()
    for k in put_keys:
        store.put(k, k)
    t_put = time.perf_counter() - t0
    row["put_ops_s"] = _ops_per_sec(len(put_keys), t_put)

    perf = PerfContext()
    store = ViperStore(spec.build(perf), perf)
    store.bulk_load(items)
    t0 = time.perf_counter()
    store.put_many(write_items)
    t_put_many = time.perf_counter() - t0
    row["put_many_ops_s"] = _ops_per_sec(len(write_items), t_put_many)
    row["put_batch_speedup"] = row["put_many_ops_s"] / row["put_ops_s"]
    return row


def run(scale: dict) -> dict:
    results = {}
    for alias in INDEXES:
        # One RNG stream per index so adding an index never shifts the
        # keys/queries of the others between runs.
        rng = random.Random(f"{SEED}:{alias}")
        # The cyclic collector stays off while an index is timed, as
        # ``timeit`` keeps it: at 1M keys one full collection takes as
        # long as a whole timed scalar loop, and where it lands depends
        # on allocation counts, not on the path being measured.
        gc.collect()
        gc.disable()
        try:
            row = bench_index(alias, scale, rng)
        finally:
            gc.enable()
        results[alias] = row
        write_part = (
            f"  insert_many {row['insert_many_ops_s']:>11,.0f} op/s"
            f" ({row['insert_batch_speedup']:.1f}x)"
            f"  put_many {row['put_many_ops_s']:>11,.0f} op/s"
            f" ({row['put_batch_speedup']:.1f}x)"
            if row["insert_many_ops_s"]
            else "  writes -"
        )
        print(
            f"{row['name']:8s} bulk_load {row['bulk_load_keys_s']:>12,.0f} keys/s"
            f"  get_many {row['get_many_ops_s']:>13,.0f} op/s"
            f" ({row['batch_speedup']:.1f}x)" + write_part,
            flush=True,
        )
    return {
        "schema": "bench-micro-v2",
        "seed": SEED,
        "scale": scale,
        "python": sys.version.split()[0],
        "indexes": results,
    }


def _check(report: dict) -> list:
    """Batch-vs-scalar regressions; empty when every gate holds."""
    slow = []
    for row in report["indexes"].values():
        read_floor = 1.0 if row["native_batch"] else FALLBACK_FLOOR
        if row["batch_speedup"] < read_floor:
            slow.append(f"{row['name']} get_many ({row['batch_speedup']:.2f}x)")
        write_floor = 1.0 if row["native_batch_insert"] else FALLBACK_FLOOR
        if (
            row["insert_batch_speedup"] is not None
            and row["insert_batch_speedup"] < write_floor
        ):
            slow.append(
                f"{row['name']} insert_many "
                f"({row['insert_batch_speedup']:.2f}x)"
            )
        if (
            row["put_batch_speedup"] is not None
            and row["put_batch_speedup"] < write_floor
        ):
            slow.append(
                f"{row['name']} put_many ({row['put_batch_speedup']:.2f}x)"
            )
    return slow


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (50K keys)"
    )
    parser.add_argument("--out", default="", help="write JSON results here")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if a batch API is slower than its scalar counterpart",
    )
    args = parser.parse_args()

    report = run(QUICK if args.quick else FULL)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[saved to {args.out}]")

    if args.check:
        slow = _check(report)
        if slow:
            print(
                f"FAIL: batch API regressed vs scalar for: {', '.join(slow)}",
                file=sys.stderr,
            )
            return 1
        print("check ok: no batch-vs-scalar regression")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
