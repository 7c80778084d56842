#!/usr/bin/env python3
"""Wall-clock scaling benchmark for the process-parallel sharded engine.

Like ``bench_micro`` — and unlike the ``bench_fig*`` modules — this
measures *real* wall-clock throughput, not simulated nanoseconds: the
point of :mod:`repro.concurrency.parallel` is that K worker processes
on K cores serve more operations per wall second than one interpreter,
and that claim is only checkable on a real clock.

Measured per index (PGM — learned, native batch paths; BTree — the
traditional baseline) at each ``--workers`` count:

* ``get_many_w{K}_ops_s``     — batched point lookups through K workers.
* ``insert_many_w{K}_ops_s``  — fresh-key batched inserts through K.
* ``get_many_w{K}_speedup``   — vs. the same engine at 1 worker.
* plus an in-process (no engine) baseline and a measured-vs-sim
  comparison table at the same worker counts.

Every engine run is cross-checked bit-for-bit against the in-process
answers before it is timed — a wrong fast engine is not a fast engine.

Usage::

    python benchmarks/bench_parallel.py --quick --workers 1,2
    python benchmarks/bench_parallel.py --out BENCH_PARALLEL.json
    python benchmarks/bench_parallel.py --quick --check

``--check`` exits non-zero on any correctness mismatch, and — only on a
host with >= 4 cores, where parallel speedup is physically available —
if PGM's 4-worker ``get_many`` fails to reach 2x its 1-worker figure
(the scaling floor the engine is expected to clear).  ``cpu_count`` is
recorded in the report so committed numbers from a small host are
interpretable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from _common import pool_map
from repro.bench import format_table, thread_scaling, write_result
from repro.concurrency.parallel import parallel_sharded_index
from repro.perf.context import PerfContext
from repro.registry import resolve

SEED = 42

#: One learned index with native batch paths, one traditional baseline.
INDEXES = ("pgm", "btree")

DEFAULT_WORKERS = (1, 2, 4)

#: Full-scale parameters (the committed BENCH_PARALLEL.json numbers).
FULL = {"n_keys": 1_000_000, "n_batch": 200_000, "n_write": 50_000}
#: ``--quick`` parameters (CI perf-smoke job).
QUICK = {"n_keys": 50_000, "n_batch": 20_000, "n_write": 5_000}

#: The acceptance floor: 4-worker get_many vs 1-worker, gated only on
#: hosts with at least this many cores.
SPEEDUP_FLOOR = 2.0
SPEEDUP_FLOOR_CORES = 4


def _make_case(alias: str, scale: dict) -> dict:
    """Deterministic keys/queries for one index (bench_micro convention:
    one RNG stream per index, every 11th key held out as insert fuel)."""
    rng = random.Random(f"{SEED}:{alias}")
    n = scale["n_keys"]
    all_keys = sorted(rng.sample(range(1, 2**50), n + n // 10))
    load_keys = [k for i, k in enumerate(all_keys) if i % 11 != 5]
    extra_keys = [k for i, k in enumerate(all_keys) if i % 11 == 5]
    write_keys = rng.sample(extra_keys, min(scale["n_write"], len(extra_keys)))
    queries = [
        k + rng.choice((0, 1))
        for k in rng.choices(load_keys, k=scale["n_batch"])
    ]
    return {
        "alias": alias,
        "items": [(k, k) for k in load_keys],
        "write_items": [(k, k) for k in write_keys],
        "queries": queries,
    }


def _ops_per_sec(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("inf")


def inproc_baseline(case: dict) -> dict:
    """In-process (no engine) reference: wall ops/s, expected answers,
    and the simulated single-op profile the sim projection needs.

    Top-level and picklable so ``--jobs`` can fan the per-index
    baselines out through :func:`_common.pool_map`.
    """
    spec = resolve(case["alias"])
    perf = PerfContext()
    index = spec.build(perf)
    index.bulk_load(case["items"])

    mark = perf.begin()
    t0 = time.perf_counter()
    expected = index.get_many(case["queries"])
    t_get = time.perf_counter() - t0
    op = perf.end(mark)

    fresh = spec.build(PerfContext())
    fresh.bulk_load(case["items"])
    t0 = time.perf_counter()
    fresh.insert_many(case["write_items"])
    t_insert = time.perf_counter() - t0

    n = len(case["queries"])
    return {
        "expected": expected,
        "inproc_get_many_ops_s": _ops_per_sec(n, t_get),
        "inproc_insert_many_ops_s": _ops_per_sec(
            len(case["write_items"]), t_insert
        ),
        "sim_mean_ns": op.time_ns / n,
        "sim_bytes_per_op": op.bytes / n,
    }


def bench_engine(case: dict, workers: int, expected: list) -> dict:
    """One engine at one worker count: verify answers, then time it."""
    engine = parallel_sharded_index(case["alias"], workers)
    try:
        t0 = time.perf_counter()
        engine.bulk_load(case["items"])
        t_build = time.perf_counter() - t0

        # Warm the transport (first shipment pays page-fault and pipe
        # setup costs), then verify before timing: the answers must be
        # bit-identical to the in-process index.
        got = engine.get_many(case["queries"][:2048])
        mismatch = got != expected[:2048]
        t0 = time.perf_counter()
        got = engine.get_many(case["queries"])
        t_get = time.perf_counter() - t0
        mismatch = mismatch or got != expected

        t0 = time.perf_counter()
        engine.insert_many(case["write_items"])
        t_insert = time.perf_counter() - t0
        probe = case["write_items"][:: max(1, len(case["write_items"]) // 64)]
        mismatch = mismatch or engine.get_many(
            [k for k, _ in probe]
        ) != [v for _, v in probe]
    finally:
        engine.close()
    return {
        "build_keys_s": _ops_per_sec(len(case["items"]), t_build),
        "get_many_ops_s": _ops_per_sec(len(case["queries"]), t_get),
        "insert_many_ops_s": _ops_per_sec(len(case["write_items"]), t_insert),
        "mismatch": mismatch,
    }


def run_parallel(workers=(1, 2), scale=None, jobs: int = 1):
    """Benchmark every index at every worker count.

    Returns ``(table, report)`` — the rendered comparison table and the
    JSON-ready report dict.
    """
    scale = dict(QUICK if scale is None else scale)
    workers = tuple(workers)
    cases = [_make_case(alias, scale) for alias in INDEXES]
    baselines = pool_map(inproc_baseline, cases, jobs)

    results = {}
    comparison = []
    for case, base in zip(cases, baselines):
        alias = case["alias"]
        spec = resolve(alias)
        row = {
            "name": spec.name,
            "n_keys": len(case["items"]),
            "inproc_get_many_ops_s": base["inproc_get_many_ops_s"],
            "inproc_insert_many_ops_s": base["inproc_insert_many_ops_s"],
            "mismatches": [],
        }
        sim_rows = {
            r["threads"]: r
            for r in thread_scaling(
                base["sim_mean_ns"],
                base["sim_mean_ns"] * 2,
                base["sim_bytes_per_op"],
                workers,
                concurrency=spec.concurrency,
                seed=SEED,
            )
        }
        for w in workers:
            r = bench_engine(case, w, base["expected"])
            row[f"get_many_w{w}_ops_s"] = r["get_many_ops_s"]
            row[f"insert_many_w{w}_ops_s"] = r["insert_many_ops_s"]
            row[f"build_w{w}_keys_s"] = r["build_keys_s"]
            if r["mismatch"]:
                row["mismatches"].append(w)
            comparison.append(
                {
                    "index": spec.name,
                    "workers": w,
                    "measured_mops": r["get_many_ops_s"] / 1e6,
                    "sim_mops": sim_rows[w]["throughput_mops"],
                }
            )
        base_w = workers[0]
        for w in workers:
            row[f"get_many_w{w}_speedup"] = (
                row[f"get_many_w{w}_ops_s"] / row[f"get_many_w{base_w}_ops_s"]
            )
            row[f"insert_many_w{w}_speedup"] = (
                row[f"insert_many_w{w}_ops_s"]
                / row[f"insert_many_w{base_w}_ops_s"]
            )
        results[alias] = row
        print(
            f"{spec.name:8s} inproc get_many "
            f"{row['inproc_get_many_ops_s']:>11,.0f} op/s  "
            + "  ".join(
                f"w{w} {row[f'get_many_w{w}_ops_s']:>11,.0f} op/s "
                f"({row[f'get_many_w{w}_speedup']:.2f}x)"
                for w in workers
            )
            + (f"  MISMATCH at {row['mismatches']}" if row["mismatches"] else ""),
            flush=True,
        )

    table = format_table(
        ["index", "workers", "measured Mops/s", "sim Mops/s", "meas/sim"],
        [
            [
                c["index"],
                c["workers"],
                f"{c['measured_mops']:.3f}",
                f"{c['sim_mops']:.2f}",
                f"{c['measured_mops'] / c['sim_mops']:.3f}",
            ]
            for c in comparison
        ],
        title=f"Parallel engine: measured wall-clock vs simulated "
        f"({os.cpu_count()} cores on this host)",
    )
    report = {
        "schema": "bench-parallel-v1",
        "seed": SEED,
        "scale": scale,
        "workers": list(workers),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "indexes": results,
        "comparison": comparison,
    }
    return table, report


def _check(report: dict) -> list:
    """Hard failures: any mismatch; the scaling floor on capable hosts."""
    problems = []
    for row in report["indexes"].values():
        if row["mismatches"]:
            problems.append(
                f"{row['name']}: engine answers diverged from in-process "
                f"at workers={row['mismatches']}"
            )
    cores = report["cpu_count"] or 1
    gate_w = SPEEDUP_FLOOR_CORES
    pgm = report["indexes"].get("pgm", {})
    speedup = pgm.get(f"get_many_w{gate_w}_speedup")
    if cores >= SPEEDUP_FLOOR_CORES and speedup is not None:
        if speedup < SPEEDUP_FLOOR:
            problems.append(
                f"PGM get_many at {gate_w} workers is only {speedup:.2f}x "
                f"the 1-worker figure (floor {SPEEDUP_FLOOR}x on a "
                f"{cores}-core host)"
            )
    return problems


def _parse_workers(text: str):
    counts = sorted({int(part) for part in text.split(",") if part.strip()})
    if not counts or any(w < 1 for w in counts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated counts >= 1, got {text!r}"
        )
    return tuple(counts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (50K keys)"
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=DEFAULT_WORKERS,
        help='worker counts to measure, e.g. "1,2,4"',
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the in-process baselines",
    )
    parser.add_argument("--out", default="", help="write JSON results here")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any correctness mismatch, or (on a >= 4-core "
        "host) if PGM misses the 4-worker scaling floor",
    )
    args = parser.parse_args()

    table, report = run_parallel(
        workers=args.workers,
        scale=QUICK if args.quick else FULL,
        jobs=args.jobs,
    )
    write_result("bench_parallel", table, data=report)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[saved to {args.out}]")

    if args.check:
        problems = _check(report)
        if problems:
            print("FAIL: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("check ok: answers bit-identical, scaling floor satisfied")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
