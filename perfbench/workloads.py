"""The benchmark's three workloads: inputs, expected answers, targets.

Every input is generated here from the run's ``--seed``; the system under
test only ever sees the generated keys and operations.  All workloads are
one client driving the store in a closed loop through
:func:`repro.bench.runner.execute_ops`: the next call is issued only
after the previous one returned.

``ycsb-a``
    A :class:`~repro.store.viper.ViperStore` over ALEX bulk-loaded with
    200K YCSB keys; YCSB-A (50% reads / 50% updates, scrambled zipfian),
    one op per call (``batch_size=1``).  Stationary, so one store serves
    every pass; passes cycle through a fixed pool of op slices.
``batch-rw``
    A ViperStore over ALEX loaded with half of a YCSB key set, the other
    half held out so no insert key repeats.  The stream is runs of 1024
    same-kind ops — uniform reads, fresh inserts, short scans, 6:3:1 by
    run — served by ``execute_ops(batch_size=1024)``.  The index grows
    during a stream, so each pass is an *epoch*: a freshly built store
    replays the same stream, which keeps passes comparable and makes
    every epoch's simulated ledger identical.
``engine-rw``
    The same seed and stream as ``batch-rw`` through a 2-worker
    :class:`~repro.concurrency.parallel.ParallelShardedStore` (shm
    transport, default telemetry); each epoch spawns a fresh engine.

Values are the keys themselves (the executor writes ``key`` as the value
of a write), so the oracle is the set of present keys: a read answers
its key, a scan answers consecutive present keys paired with themselves.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.bench.runner import StoreAdapter
from repro.concurrency.parallel import ParallelShardedStore
from repro.perf.context import PerfContext
from repro.registry import resolve
from repro.store.viper import ViperStore
from repro.workloads.datasets import ycsb_keys
from repro.workloads.ycsb import (
    YCSB_A,
    Operation,
    OpKind,
    generate_operations,
    split_load_and_inserts,
)

INDEX = "alex"
BATCH = 1024
ENGINE_WORKERS = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes for one workload family."""

    #: ycsb-a: keys bulk-loaded into the store.
    ycsb_keys: int
    #: ycsb-a: ops per timed pass, and passes in the op pool it cycles.
    ycsb_pass_ops: int
    ycsb_pool_passes: int
    #: batch-rw / engine-rw: keys bulk-loaded (as many more are held out).
    batch_load_keys: int
    #: batch-rw / engine-rw: runs per epoch as (read, insert, scan).
    batch_runs: Tuple[int, int, int]
    batch_size: int


SCALES = {
    "full": Scale(
        ycsb_keys=200_000,
        ycsb_pass_ops=2048,
        ycsb_pool_passes=8,
        # An epoch inserts 6144 keys, 15% of the load: enough to push
        # gapped leaves past their upper density, so expansions happen.
        batch_load_keys=40_000,
        batch_runs=(12, 6, 2),
        batch_size=BATCH,
    ),
    # Seconds-long inputs for the benchmark's own tests.
    "tiny": Scale(
        ycsb_keys=4_000,
        ycsb_pass_ops=256,
        ycsb_pool_passes=2,
        batch_load_keys=3_000,
        batch_runs=(6, 3, 1),
        batch_size=64,
    ),
}


@dataclass
class Plan:
    """Everything a run of one workload needs, generated from the seed."""

    workload: str
    seed: int
    batch_size: int
    load_items: List[Tuple[int, int]]
    #: Op slices; a pass runs one slice.
    slices: List[List[Operation]]
    #: Expected answer of every executor call, per slice.
    expected: List[List[object]]
    #: True: every pass runs on a freshly built target (index grows).
    epoch: bool
    #: Sorted keys present once a pass completes (epoch) / always.
    final_keys: List[int]
    #: Process-parallel engine with this many workers (0 = in-process).
    workers: int = 0
    #: Highest tail percentile the run's call count is sized for.
    tail_cap: float = 99.0
    writes_per_slice: List[int] = field(default_factory=list)


def make_plan(workload: str, seed: int, scale: str = "full") -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; one of {sorted(WORKLOADS)}"
        )
    return WORKLOADS[workload](seed, SCALES[scale])


def _ycsb_a_plan(seed: int, sc: Scale) -> Plan:
    keys = ycsb_keys(sc.ycsb_keys, seed=seed)
    pool = generate_operations(
        YCSB_A, sc.ycsb_pass_ops * sc.ycsb_pool_passes, keys, seed=seed
    )
    slices = [
        pool[i : i + sc.ycsb_pass_ops]
        for i in range(0, len(pool), sc.ycsb_pass_ops)
    ]
    # Every key stays present and every value is its key: a read answers
    # its key, an update answers nothing.
    expected = [
        [op.key if op.kind is OpKind.READ else None for op in sl]
        for sl in slices
    ]
    return Plan(
        workload="ycsb-a",
        seed=seed,
        batch_size=1,
        load_items=[(k, k) for k in keys],
        slices=slices,
        expected=expected,
        epoch=False,
        final_keys=keys,
        tail_cap=99.9,
        writes_per_slice=[
            sum(op.kind is OpKind.UPDATE for op in sl) for sl in slices
        ],
    )


def _batch_stream(seed: int, sc: Scale):
    """One epoch's op stream plus the expected answer of every call."""
    keys = ycsb_keys(2 * sc.batch_load_keys, seed=seed)
    load, held_out = split_load_and_inserts(keys, 0.5, seed=seed)
    rng = random.Random(seed)
    n_read, n_insert, n_scan = sc.batch_runs
    kinds = (
        [OpKind.READ] * n_read
        + [OpKind.INSERT] * n_insert
        + [OpKind.SCAN] * n_scan
    )
    rng.shuffle(kinds)
    b = sc.batch_size
    present = list(load)  # arrival order, for uniform picks
    ordered = list(load)  # sorted oracle, for scans
    fresh = iter(held_out)
    ops: List[Operation] = []
    expected: List[object] = []
    for kind in kinds:
        if kind is OpKind.READ:
            run = [present[rng.randrange(len(present))] for _ in range(b)]
            ops.extend(Operation(kind, k) for k in run)
            expected.append(list(run))
        elif kind is OpKind.INSERT:
            run = [next(fresh) for _ in range(b)]
            ops.extend(Operation(kind, k) for k in run)
            expected.append(None)
            present.extend(run)
            arr = np.union1d(np.asarray(ordered, dtype=np.uint64),
                             np.asarray(run, dtype=np.uint64))
            ordered = arr.tolist()
        else:
            length = rng.randint(4, 16)
            run = [present[rng.randrange(len(present))] for _ in range(b)]
            ops.extend(Operation(kind, k, length) for k in run)
            expected.append(
                [
                    [(k, k) for k in ordered[i : i + length]]
                    for i in (bisect.bisect_left(ordered, s) for s in run)
                ]
            )
    return load, ops, expected, ordered, n_insert * b


def _batch_plan(workload: str, workers: int):
    def plan(seed: int, sc: Scale) -> Plan:
        load, ops, expected, final, writes = _batch_stream(seed, sc)
        return Plan(
            workload=workload,
            seed=seed,
            batch_size=sc.batch_size,
            load_items=[(k, k) for k in load],
            slices=[ops],
            expected=[expected],
            epoch=True,
            final_keys=final,
            workers=workers,
            # Each epoch replays the same 20 calls, so the latencies form
            # one cluster per call; p98 of a run's ~1000 calls falls inside
            # the slowest call's cluster rather than between two clusters.
            tail_cap=98.0,
            writes_per_slice=[writes],
        )

    return plan


WORKLOADS: dict = {
    "ycsb-a": _ycsb_a_plan,
    "batch-rw": _batch_plan("batch-rw", 0),
    "engine-rw": _batch_plan("engine-rw", ENGINE_WORKERS),
}


# ------------------------------------------------------------ targets


class Target:
    """A built system under test: the store, its adapter, its ledger."""

    def __init__(self, store, perf: PerfContext, engine=None):
        self.store = store
        self.perf = perf
        self.engine = engine
        self.adapter = StoreAdapter(store)

    def stats(self):
        if self.engine is not None:
            return self.engine.stats()
        return self.store.index.stats()

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


def build_target(plan: Plan) -> Target:
    """Construct the store and bulk-load it (what ``setup_s`` times)."""
    perf = PerfContext()
    if plan.workers:
        engine = ParallelShardedStore(
            INDEX, plan.workers, perf=perf, transport="shm"
        )
        try:
            engine.bulk_load(plan.load_items)
        except BaseException:
            engine.close()
            raise
        return Target(engine, perf, engine=engine)
    store = ViperStore(resolve(INDEX).build(perf), perf)
    store.bulk_load(plan.load_items)
    return Target(store, perf)


def check_final_state(target: Target, keys: List[int]) -> int:
    """Read back the whole store; returns the number of wrong keys."""
    store = target.store
    wrong = abs(len(store) - len(keys))
    got = store.get_many(keys)
    wrong += sum(1 for k, v in zip(keys, got) if v != k)
    run = store.scan_many([0], len(keys))[0] if keys else []
    if run != [(k, k) for k in keys]:
        wrong += 1
    return wrong
