"""Concurrency smoke bench: simulator + sharded-store regression gate.

A deliberately small, fixed-scale run (independent of ``REPRO_SCALE``)
over one index per CC scheme, producing a ``repro.obs.regress``-
compatible report:

* per-index single-thread measured profile, projected to 4 threads by
  the discrete-event concurrency simulator (read and write), and
* a 2-shard store run on the shared simulated clock, through the
  sharded engine's in-process loopback transport.

Every number is deterministic simulated time, so CI can re-run this
quickly and diff it against the committed ``BENCH_CONCURRENCY.json``
baseline with a tight threshold — any drift means the simulator, the
cost model, or an index changed behaviour.

Usage::

    python benchmarks/bench_concurrency.py [--out BENCH_CONCURRENCY.json]
"""

import argparse
import json

from _common import dataset, loaded_store, run_once
from repro import PerfContext, ViperStore
from repro.bench import (
    StoreAdapter,
    execute_ops,
    format_table,
    thread_scaling,
    write_result,
)
from repro.concurrency import parallel_sharded_store, retrain_cadence
from repro.registry import resolve
from repro.workloads import READ_ONLY, WRITE_ONLY, generate_operations
from repro.workloads.ycsb import split_load_and_inserts

#: Fixed mini-scale: big enough for stable profiles, small enough for CI.
KEYS = 8_000
OPS = 3_000
THREADS = (1, 4)
SHARDS = 2
SEED = 21

#: One representative per CC scheme (plus both retrain-blocking learned
#: indexes), keyed by CLI name for the report.
CASES = ("alex", "xindex", "btree", "bwtree", "cceh", "finedex")


def _read_profile(spec):
    keys = dataset("ycsb", KEYS)
    ops = generate_operations(READ_ONLY, OPS, list(keys), seed=SEED)
    store, perf = loaded_store(spec.build, keys)
    result = execute_ops(StoreAdapter(store), ops, perf)
    return result.latency, result.bytes_per_op, len(ops)


def _write_profile(spec):
    keys = dataset("ycsb", KEYS)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=SEED)
    ops = generate_operations(
        WRITE_ONLY, len(inserts) - 1, load, inserts, seed=SEED
    )
    store, perf = loaded_store(spec.build, load)
    result = execute_ops(StoreAdapter(store), ops, perf)
    return (
        result.latency,
        result.bytes_per_op,
        len(ops),
        *retrain_cadence(store.index.stats(), len(ops)),
    )


def _sharded_run(spec):
    """Read-only ops through a 2-shard store on one shared clock."""
    keys = dataset("ycsb", KEYS)
    ops = generate_operations(READ_ONLY, OPS, list(keys), seed=SEED)
    perf = PerfContext()
    with parallel_sharded_store(
        spec, SHARDS, perf=perf, transport="loopback"
    ) as store:
        store.bulk_load([(k, k) for k in keys])
        latency = execute_ops(StoreAdapter(store), ops, perf).latency
    return 1e9 / latency.mean()


def measure_concurrency() -> dict:
    """The full report: ``{"scale": ..., "indexes": {cli_name: metrics}}``."""
    indexes = {}
    for cli_name in CASES:
        spec = resolve(cli_name)
        read_lat, read_bytes, _ = _read_profile(spec)
        write_lat, write_bytes, wops, r_every, r_stall = _write_profile(spec)
        read_curve = thread_scaling(
            read_lat.mean(), read_lat.quantile(0.999), read_bytes, THREADS,
            concurrency=spec.concurrency, write_fraction=0.0, seed=SEED,
        )
        write_curve = thread_scaling(
            write_lat.mean(), write_lat.quantile(0.999), write_bytes, THREADS,
            concurrency=spec.concurrency, write_fraction=1.0,
            retrain_every=r_every, retrain_stall_ns=r_stall, seed=SEED,
        )
        read1 = read_curve[0]["throughput_mops"] * 1e6
        read4 = read_curve[-1]["throughput_mops"] * 1e6
        write4 = write_curve[-1]["throughput_mops"] * 1e6
        indexes[cli_name] = {
            "name": spec.name,
            "concurrency": spec.concurrency.describe(),
            "sim_read_ops_s": read1,
            "sim_read4_ops_s": read4,
            "sim_write4_ops_s": write4,
            "sim_read_scale_speedup": read4 / read1,
            "shard2_read_ops_s": _sharded_run(spec),
        }
    return {
        "scale": {
            "keys": KEYS,
            "ops": OPS,
            "threads": THREADS[-1],
            "shards": SHARDS,
        },
        "indexes": indexes,
    }


def render(report: dict) -> str:
    rows = [
        [
            name,
            m["concurrency"],
            f"{m['sim_read_ops_s'] / 1e6:.2f}",
            f"{m['sim_read4_ops_s'] / 1e6:.2f}",
            f"{m['sim_write4_ops_s'] / 1e6:.2f}",
            f"{m['sim_read_scale_speedup']:.2f}",
            f"{m['shard2_read_ops_s'] / 1e6:.2f}",
        ]
        for name, m in report["indexes"].items()
    ]
    return format_table(
        ["index", "concurrency", "read x1", "read x4", "write x4",
         "read scale", "shard x2"],
        rows,
        title=f"Concurrency smoke — sim at {THREADS[-1]} threads, "
        f"{SHARDS}-shard store (Mops/s, simulated)",
    )


def run_concurrency():
    report = measure_concurrency()
    return render(report), report


def test_concurrency_smoke(benchmark):
    table, report = run_once(benchmark, run_concurrency)
    write_result("concurrency_smoke", table, data=report)
    by = report["indexes"]
    # CCEH's per-segment latching wins the 4-thread read aggregate.
    assert by["cceh"]["sim_read4_ops_s"] == max(
        m["sim_read4_ops_s"] for m in by.values()
    )
    # Global-locked ALEX scales reads worse than per-segment CCEH.
    assert (
        by["alex"]["sim_read_scale_speedup"]
        < by["cceh"]["sim_read_scale_speedup"]
    )
    # A 2-shard store on one shared clock serves the same ops — the
    # throughput stays within 2x of the unsharded single-thread rate
    # (routing adds no simulated cost; it is a partitioning, not a cache).
    for m in by.values():
        assert 0.5 <= m["shard2_read_ops_s"] / m["sim_read_ops_s"] <= 2.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--out", default="",
        help="also write the regress-compatible JSON report here",
    )
    args = parser.parse_args()
    table, report = run_concurrency()
    write_result("concurrency_smoke", table, data=report)
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"[saved report to {args.out}]")
