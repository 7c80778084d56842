#!/usr/bin/env python3
"""Wall-clock micro-benchmark for the vectorized scan engine (PR 8).

Like ``bench_micro.py`` this measures real wall-clock throughput of the
Python implementation, not simulated nanoseconds: fixed seed, fixed
start-key sets, so two runs on the same machine are comparable.

Measured per index (PGM-static — the read figure's "PGM"; the dynamic
LSM variant keeps the per-item fallback by design — plus ALEX, BTree
and XIndex):

* ``scan``        — scalar 50-record scans per second.
* ``scan_many``   — the same start keys answered through the batch API.
* ``ycsbe``       — a YCSB-E mix (95% scans of 1..50 records, 5%
  inserts) through the executor at ``batch_size=1``.
* ``ycsbe_batched`` — the same op stream at ``batch_size=2048``
  (read-only indexes skip the insert-bearing mix).

Usage::

    python benchmarks/bench_scan.py --quick            # CI smoke scale
    python benchmarks/bench_scan.py --out BENCH_SCAN.json
    python benchmarks/bench_scan.py --quick --check    # fail on regression

``--check`` verifies a small ``scan_many`` sample against the scalar
loop bit-for-bit, then gates the speedups: at full scale a native batch
scan path must beat the scalar loop >= 5x (the vectorized engine's
acceptance floor on 1M keys / 50-record scans); at ``--quick`` scale a
looser floor guards against the path silently degrading to per-item
work.  The JSON report is ``repro.obs.regress``-compatible.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

from repro.bench.runner import IndexAdapter, execute_ops
from repro.perf.context import PerfContext
from repro.registry import has_native_batch_scan, resolve
from repro.workloads import YCSB_E, generate_operations
from repro.workloads.ycsb import split_load_and_inserts

SEED = 43

#: Registry aliases of the measured indexes.  XIndex's row guards the
#: composed indexes' small batches: YCSB-E draws a scan length per op, so
#: nearly every batched call of its ``ycsbe_batched`` mix is a one-start
#: ``scan_many``, which must keep the per-start walk.
INDEXES = ("pgm-static", "alex", "btree", "xindex")

SCAN_LENGTH = 50
#: Starts per scan_many call — the serving stack's batch granularity.
BATCH = 1024
#: Timed repetitions per measurement; the minimum is reported.
REPS = 3

#: Scalar-vs-batch floors for --check, per alias as (full, quick).
#: PGM and ALEX replay their whole search ledger vectorized, so they must
#: clear the acceptance bar (>= 5x at 1M keys / 50-record scans); BTree
#: has no model to replay — its batch path only vectorizes extraction —
#: so it merely has to stay ahead of the scalar loop.  Anything unlisted
#: is a generic fallback: the scalar loop plus list bookkeeping, gated
#: only against pathological slowdown.
FLOORS = {
    "pgm-static": (5.0, 4.0),
    "alex": (5.0, 5.0),
    "btree": (1.0, 0.9),
}
FALLBACK_FLOOR = 0.75

#: Full-scale parameters (the committed BENCH_SCAN.json numbers).
FULL = {"n_keys": 1_000_000, "n_scans": 20_000, "n_ops": 30_000}
#: ``--quick`` parameters (CI perf-smoke job).
QUICK = {"n_keys": 50_000, "n_scans": 4_000, "n_ops": 6_000}


def _ops_per_sec(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("inf")


def bench_index(alias: str, scale: dict, rng: random.Random) -> dict:
    spec = resolve(alias)
    keys = sorted(rng.sample(range(1, 2**50), scale["n_keys"]))
    items = [(k, k) for k in keys]
    starts = rng.choices(keys, k=scale["n_scans"])

    index = spec.build(PerfContext())
    index.bulk_load(items)
    # Drop the build-time pair list and collect before timing: a million
    # dead tuples on the heap slow every allocation in both timed loops.
    del items
    gc.collect()

    # Best-of-REPS on both sides: scan latency at this scale is dominated
    # by allocator and cache state, and the minimum is the standard
    # noise-robust estimator for a fixed-work micro-benchmark.
    t_scalar = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for start in starts:
            index.scan(start, SCAN_LENGTH)
        t_scalar = min(t_scalar, time.perf_counter() - t0)

    t_batch = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for lo in range(0, len(starts), BATCH):
            index.scan_many(starts[lo : lo + BATCH], SCAN_LENGTH)
        t_batch = min(t_batch, time.perf_counter() - t0)

    # Bit-identity spot check outside the timed loops.
    sample = starts[: min(200, len(starts))]
    identical = index.scan_many(sample, SCAN_LENGTH) == [
        index.scan(start, SCAN_LENGTH) for start in sample
    ]

    row = {
        "name": spec.name,
        "native_batch_scan": has_native_batch_scan(index),
        "identical": identical,
        "n_keys": scale["n_keys"],
        "scan_ops_s": _ops_per_sec(len(starts), t_scalar),
        "scan_many_ops_s": _ops_per_sec(len(starts), t_batch),
        "ycsbe_ops_s": None,
        "ycsbe_batched_ops_s": None,
        "ycsbe_batch_speedup": None,
    }
    row["scan_speedup"] = row["scan_many_ops_s"] / row["scan_ops_s"]

    if not index.capabilities().updatable:
        return row  # static index: the insert-bearing E mix cannot run

    load, insert_pool = split_load_and_inserts(keys, 0.9, seed=SEED)
    n_ops = min(scale["n_ops"], (len(insert_pool) - 1) * 10)
    ops = generate_operations(YCSB_E, n_ops, load, insert_pool, seed=SEED)
    load_items = [(k, k) for k in load]

    for batch_size, metric in ((1, "ycsbe_ops_s"), (2048, "ycsbe_batched_ops_s")):
        perf = PerfContext()
        fresh = spec.build(perf)
        fresh.bulk_load(load_items)
        t0 = time.perf_counter()
        execute_ops(IndexAdapter(fresh), ops, perf, batch_size=batch_size)
        row[metric] = _ops_per_sec(len(ops), time.perf_counter() - t0)
    row["ycsbe_batch_speedup"] = row["ycsbe_batched_ops_s"] / row["ycsbe_ops_s"]
    return row


def run(scale: dict) -> dict:
    results = {}
    for alias in INDEXES:
        # One RNG stream per index so adding an index never shifts the
        # keys/starts of the others between runs.
        rng = random.Random(f"{SEED}:{alias}")
        row = bench_index(alias, scale, rng)
        results[alias] = row
        mix_part = (
            f"  ycsbe_batched {row['ycsbe_batched_ops_s']:>10,.0f} op/s"
            f" ({row['ycsbe_batch_speedup']:.1f}x)"
            if row["ycsbe_batched_ops_s"]
            else "  ycsbe -"
        )
        print(
            f"{row['name']:10s} scan {row['scan_ops_s']:>10,.0f} op/s"
            f"  scan_many {row['scan_many_ops_s']:>11,.0f} op/s"
            f" ({row['scan_speedup']:.1f}x)" + mix_part,
            flush=True,
        )
    return {
        "schema": "bench-scan-v1",
        "seed": SEED,
        "scale": scale,
        "python": sys.version.split()[0],
        "indexes": results,
    }


def _check(report: dict, full_scale: bool) -> list:
    """Failures; empty when every gate holds."""
    bad = []
    for alias, row in report["indexes"].items():
        if not row["identical"]:
            bad.append(f"{row['name']} scan_many diverges from scalar scan")
        pair = FLOORS.get(alias)
        floor = pair[0 if full_scale else 1] if pair else FALLBACK_FLOOR
        if row["scan_speedup"] < floor:
            bad.append(
                f"{row['name']} scan_many {row['scan_speedup']:.2f}x "
                f"< {floor:.2f}x floor"
            )
        if (
            row["ycsbe_batch_speedup"] is not None
            and row["ycsbe_batch_speedup"] < FALLBACK_FLOOR
        ):
            bad.append(
                f"{row['name']} ycsbe batched "
                f"({row['ycsbe_batch_speedup']:.2f}x)"
            )
    return bad


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (50K keys)"
    )
    parser.add_argument("--out", default="", help="write JSON results here")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on scalar/batch divergence or a speedup below floor",
    )
    args = parser.parse_args()

    report = run(QUICK if args.quick else FULL)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[saved to {args.out}]")

    if args.check:
        bad = _check(report, full_scale=not args.quick)
        if bad:
            print(f"FAIL: {'; '.join(bad)}", file=sys.stderr)
            return 1
        print("check ok: scan batch paths identical and above speed floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
