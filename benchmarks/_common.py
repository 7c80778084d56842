"""Shared benchmark infrastructure: scales, index registry, dataset cache.

Scale is controlled by the ``REPRO_SCALE`` environment variable:

* ``small`` (default) — 50K/200K keys, 20K ops: minutes of wall clock.
* ``paper``           — 200K/800K keys, 100K ops: the 1/1000-scaled
  equivalent of the paper's 200M/800M datasets.

All performance numbers are *simulated* nanoseconds from the cost model
(see DESIGN.md §2); wall-clock time only affects how long the bench takes
to run, never the reported values.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, Tuple

from repro import PerfContext, ViperStore
from repro.registry import factories, resolve
from repro.registry import specs as registry_specs
from repro.workloads import face_keys, osm_keys, uniform_keys, ycsb_keys

_SCALES = {
    "small": {"small_n": 50_000, "large_n": 200_000, "ops": 20_000},
    "paper": {"small_n": 200_000, "large_n": 800_000, "ops": 100_000},
}

SCALE_NAME = os.environ.get("REPRO_SCALE", "small")
SCALE = _SCALES.get(SCALE_NAME, _SCALES["small"])
SMALL_N = SCALE["small_n"]
LARGE_N = SCALE["large_n"]
N_OPS = SCALE["ops"]

#: Labels mirroring the paper's 200M / 800M dataset sizes.
SIZE_LABELS = {SMALL_N: "200M*", LARGE_N: "800M*"}


# ---------------------------------------------------------------- registry
#
# Every factory table is a filtered view over ``repro.registry`` — the
# single place an index is declared.  Registering an index there (with
# the right figure membership) makes it appear in every figure module.

IndexFactory = Callable[[PerfContext], object]

#: RS's prefix width is tuned once, for the small size, and then held
#: fixed — the paper's 18 bits for 200M keys, scaled to our key counts.
#: Keeping it fixed across sizes is what §III-B blames for RS's 800M drop.
RS_BITS = max(6, min(18, SMALL_N.bit_length() - 10))

#: Benchmark-local tuning, keyed by canonical registry name.
_TUNING = {"RS": {"eps": 8, "r_bits": RS_BITS}}

_LEARNED = ("learned-readonly", "learned-updatable")

LEARNED_READONLY = factories(
    figure="read", category=_LEARNED, overrides=_TUNING
)
LEARNED_UPDATABLE = factories(figure="write", category=_LEARNED)
TRADITIONAL = factories(category="traditional")
CCEH_FACTORY = factories(category="hash")
#: Beyond-the-paper indexes (LIPP, APEX, FINEdex) for ``bench_ext_*``.
EXTENSIONS = factories(category="extension")

READ_CASE = factories(figure="read", overrides=_TUNING)
WRITE_CASE = factories(figure="write")

#: Figs 12/14's concurrent-writer set: among the paper's learned indexes
#: only XIndex supports concurrent writes (Table I), compared against the
#: traditional indexes and CCEH; FINEdex joins as the second
#: retrain-blocking learned competitor from the extensions.
CONCURRENT_WRITE_CASE = {
    "XIndex": resolve("XIndex"),
    **TRADITIONAL,
    **CCEH_FACTORY,
    "FINEdex": resolve("FINEdex"),
}

#: The measurement tables ``measure_baseline`` can draw from, keyed by
#: the figure family.  Iteration order of each table is registry
#: (presentation) order — result files list indexes in this order no
#: matter which ``--jobs`` worker finished first.
BASELINE_CASES = {
    "read": READ_CASE,
    "write": CONCURRENT_WRITE_CASE,
}

#: Figure label -> the index's declared CC scheme, per figure family.
#: Resolved through the *figure labels*, not ``resolve(label)`` — the
#: read figure calls the static PGM just "PGM", which the registry would
#: resolve to the dynamic (global-locked) variant.
CASE_CONCURRENCY = {
    "read": {
        spec.label_in("read"): spec.concurrency
        for spec in registry_specs(figure="read")
    },
    "write": {
        name: resolve(name).concurrency for name in CONCURRENT_WRITE_CASE
    },
}

#: Figure label -> the registry spec behind it, per figure family — what
#: the measured-projection branches of Figs 12/14 hand to the
#: process-parallel engine (which builds from the spec *name* inside each
#: worker).  Same label convention as :data:`CASE_CONCURRENCY`.
CASE_SPECS = {
    "read": {
        spec.label_in("read"): spec for spec in registry_specs(figure="read")
    },
    "write": {name: resolve(name) for name in CONCURRENT_WRITE_CASE},
}


def case_overrides(name: str) -> dict:
    """Benchmark-local constructor overrides for one figure label."""
    return dict(_TUNING.get(name, {}))


#: Worker counts for the measured (real-process) scaling runs.  Shorter
#: than the projection's THREADS tuple on purpose: each point builds K
#: real indexes in K real processes, and past the machine's core count
#: the measurement only re-measures scheduler thrash.
MEASURED_THREADS = (1, 2, 4)


def baseline_workload(table_key: str, seed: int):
    """The ``(load_items, ops)`` the per-family baselines measure.

    Shared by :func:`measure_baseline` (in-process, simulated clock) and
    :func:`measured_scaling_curves` (real worker processes, wall clock)
    so the measured-vs-sim comparison runs the *same* operations.
    """
    from repro.workloads import READ_ONLY, WRITE_ONLY, generate_operations
    from repro.workloads.ycsb import split_load_and_inserts

    keys = dataset("ycsb", SMALL_N)
    if table_key == "read":
        load, insert_pool = list(keys), None
        ops = generate_operations(READ_ONLY, N_OPS, load, seed=seed)
    else:
        load, insert_pool = split_load_and_inserts(keys, 0.5, seed=seed)
        ops = generate_operations(
            WRITE_ONLY, len(insert_pool) - 1, load, insert_pool, seed=seed
        )
    return load, ops


def measured_scaling_curves(
    table_key: str, measured, threads=MEASURED_THREADS, seed: int = 0
) -> dict:
    """Measured wall-clock scaling per figure label: the real engine.

    For each index in ``measured`` (the :func:`measure_baselines` output)
    runs the process-parallel engine
    (:func:`repro.concurrency.parallel.measure_scaling`) over the same
    workload at each worker count.  These are wall-clock numbers on this
    machine — the ground truth the simulator's projection is validated
    against — so absolute values vary per host; the comparison tables
    focus on scaling shape.
    """
    from repro.concurrency.parallel import measure_scaling

    load, ops = baseline_workload(table_key, seed)
    items = [(k, k) for k in load]
    return {
        m["name"]: measure_scaling(
            CASE_SPECS[table_key][m["name"]],
            items,
            ops,
            threads,
            batch_size=2048,
            overrides=case_overrides(m["name"]),
        )
        for m in measured
    }


def comparison_rows(meas_curves, sim_curves) -> list:
    """Aligned measured/sim rows, one per (index, worker count)."""
    rows = []
    for name, mrows in meas_curves.items():
        sim_by_t = {p["threads"]: p for p in sim_curves[name]}
        for p in mrows:
            t = p["threads"]
            rows.append(
                {
                    "index": name,
                    "threads": t,
                    "measured_mops": p["throughput_mops"],
                    "sim_mops": sim_by_t[t]["throughput_mops"],
                    "measured_vs_sim": (
                        p["throughput_mops"] / sim_by_t[t]["throughput_mops"]
                    ),
                    "measured_speedup": (
                        p["throughput_mops"]
                        / meas_curves[name][0]["throughput_mops"]
                    ),
                }
            )
    return rows


def comparison_table(rows, title: str) -> str:
    """Render :func:`comparison_rows` output as an aligned text table."""
    from repro.bench import format_table

    return format_table(
        [
            "index",
            "workers",
            "measured Mops/s",
            "sim Mops/s",
            "meas/sim",
            "meas speedup",
        ],
        [
            [
                r["index"],
                r["threads"],
                f"{r['measured_mops']:.3f}",
                f"{r['sim_mops']:.2f}",
                f"{r['measured_vs_sim']:.3f}",
                f"{r['measured_speedup']:.2f}x",
            ]
            for r in rows
        ],
        title=title,
    )


# ---------------------------------------------------------------- datasets

_DATASET_MAKERS = {
    "ycsb": ycsb_keys,
    "osm": osm_keys,
    "face": face_keys,
    "uniform": uniform_keys,
}


@lru_cache(maxsize=16)
def dataset(name: str, n: int, seed: int = 0) -> Tuple[int, ...]:
    """Cached key set (tuple so lru_cache can hold it safely)."""
    return tuple(_DATASET_MAKERS[name](n, seed=seed))


def loaded_store(
    factory: IndexFactory, keys, value_of=lambda k: k
) -> Tuple[ViperStore, PerfContext]:
    """A Viper store bulk-loaded with ``keys`` on a fresh perf context."""
    perf = PerfContext()
    store = ViperStore(factory(perf), perf)
    store.bulk_load([(k, value_of(k)) for k in keys])
    return store, perf


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value.

    The experiments are deterministic in simulated time, so repeated
    timing rounds would only re-measure CPython overhead.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def pool_workers(jobs: int) -> int:
    """Worker-process count for a ``--jobs`` request, capped at the
    machine's cores — oversubscribing processes only adds scheduler
    thrash to wall-clock time."""
    return max(1, min(jobs, os.cpu_count() or 1))


def pool_map(fn, items, jobs: int = 1) -> list:
    """``[fn(item) for item in items]``, fanned across ``jobs`` processes.

    The one process-pool fan-out every benchmark module shares (the Fig
    12/13/14 baselines and ``run_all`` all route through here): ``fn``
    must be a picklable top-level callable.  Results come back in
    ``items`` order regardless of which worker finished first, and with
    ``jobs == 1`` (or a single item) no pool is spawned at all — the
    degenerate case stays a plain comprehension for clean tracebacks.
    """
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    workers = pool_workers(jobs)
    if workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def measure_baseline(case: Tuple[str, str], seed: int = 0) -> dict:
    """Single-thread profile of one index under one figure family.

    ``case`` is ``(table_key, name)`` into :data:`BASELINE_CASES` — a
    picklable top-level entry point shared by every multithread figure
    module, so ``ProcessPoolExecutor.map`` can fan the per-index
    measurements out.  Returns everything the thread-scaling projection
    needs: the measured mean/p99.9/bytes-per-op profile plus the
    measured retrain cadence (``retrain_every`` writes between retrains,
    ``retrain_stall_ns`` per blocking retrain) for the simulator.
    """
    from repro.bench import StoreAdapter, execute_ops
    from repro.concurrency import retrain_cadence

    table_key, name = case
    factory = BASELINE_CASES[table_key][name]
    load, ops = baseline_workload(table_key, seed)
    store, perf = loaded_store(factory, load)
    result = execute_ops(StoreAdapter(store), ops, perf)
    retrain_every, retrain_stall_ns = retrain_cadence(
        store.index.stats(), len(ops)
    )
    return {
        "name": name,
        "mean_ns": result.latency.mean(),
        "p999_ns": result.latency.quantile(0.999),
        "bytes_per_op": result.bytes_per_op,
        "ops": len(ops),
        "retrain_every": retrain_every,
        "retrain_stall_ns": retrain_stall_ns,
    }


def measure_baselines(table_key: str, seed: int, jobs: int = 1) -> list:
    """Measure every index in one figure family, in registry order.

    ``--jobs`` only changes which process does the measuring; the result
    list order (and therefore every emitted curve and result file) is
    the registry presentation order.
    """
    from functools import partial

    cases = [(table_key, name) for name in BASELINE_CASES[table_key]]
    measured = pool_map(partial(measure_baseline, seed=seed), cases, jobs)
    order = {name: i for i, name in enumerate(BASELINE_CASES[table_key])}
    return sorted(measured, key=lambda m: order[m["name"]])
