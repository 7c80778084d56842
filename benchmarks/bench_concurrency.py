"""Concurrency smoke bench: simulator + sharded-store regression gate.

A deliberately small, fixed-scale run (independent of ``REPRO_SCALE``)
over one index per CC scheme, producing a ``repro.obs.regress``-
compatible report:

* per-index single-thread measured profile, projected to 4 threads by
  the discrete-event concurrency simulator (read and write), and
* a 2-shard store run on the shared simulated clock, through the
  sharded engine's in-process loopback transport.

Every number is deterministic simulated time, so CI re-runs this and
diffs ``results/concurrency_smoke.{txt,json}`` exactly, like every other
simulated table — any drift means the simulator, the cost model, or an
index changed behaviour.  The JSON is ``repro.obs.regress``-compatible.
"""

from _common import dataset, loaded_store
from repro import PerfContext
from repro.bench import (
    StoreAdapter,
    claim,
    execute_ops,
    format_table,
    run_bench,
    thread_scaling,
    tightest,
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


def _curve(spec, write: bool):
    """One profile run projected to :data:`THREADS`: reads of every key,
    or inserts of a held-out half (with the run's retrain cadence)."""
    keys = dataset("ycsb", KEYS)
    if write:
        load, inserts = split_load_and_inserts(keys, 0.5, seed=SEED)
        ops = generate_operations(
            WRITE_ONLY, len(inserts) - 1, load, inserts, seed=SEED
        )
    else:
        load = keys
        ops = generate_operations(READ_ONLY, OPS, list(keys), seed=SEED)
    store, perf = loaded_store(spec.build, load)
    result = execute_ops(StoreAdapter(store), ops, perf)
    every, stall = retrain_cadence(store.index.stats(), len(ops))
    return thread_scaling(
        result.latency.mean(), result.latency.quantile(0.999),
        result.bytes_per_op, THREADS, concurrency=spec.concurrency,
        write_fraction=1.0 if write else 0.0, retrain_every=every,
        retrain_stall_ns=stall, seed=SEED,
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
        read_curve, write_curve = _curve(spec, False), _curve(spec, True)
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


def run():
    report = measure_concurrency()
    return {"concurrency_smoke": (render(report), report)}, report


def claims(report):
    by = report["indexes"]
    return [
        claim("concurrency.cceh-highest-read4", by["cceh"]["sim_read4_ops_s"],
              ">=", max(m["sim_read4_ops_s"] for n, m in by.items()
                        if n != "cceh")),
        claim("concurrency.alex-scales-below-cceh",
              by["alex"]["sim_read_scale_speedup"], "<",
              by["cceh"]["sim_read_scale_speedup"]),
        # Routing adds no simulated cost: a partitioning, not a cache.
        tightest("concurrency.shard2-within-2x",
                 ((m["shard2_read_ops_s"] / m["sim_read_ops_s"], op, bound)
                  for m in by.values()
                  for op, bound in ((">=", 0.5), ("<=", 2.0)))),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
