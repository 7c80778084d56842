"""Concurrency modeling: CC declarations, a discrete-event simulator,
and the range-sharded serving engine.

* :mod:`repro.concurrency.spec` — :class:`ConcurrencySpec`, the per-index
  concurrency-control declaration (scheme, latch domains, blocking
  retrains) carried on every registry entry.
* :mod:`repro.concurrency.sim` — the deterministic discrete-event
  simulator that schedules N per-thread op streams on the simulated
  clock, charging latch waits, optimistic retries, and retrain stalls on
  top of the shared memory-bandwidth pool.  Figs 12/14 are produced by
  driving it with each index's measured single-thread profile.
* :mod:`repro.concurrency.sharding` — :class:`ShardRouter` and
  ``merge_index_stats``: the range partition and the per-shard stats
  merge.
* :mod:`repro.concurrency.parallel` — :class:`ParallelShardedIndex` and
  :class:`ParallelShardedStore`: one engine that runs any registry spec
  across K range shards, bit-identically to the unsharded instance,
  over one of two transports — worker *processes* with shared-memory op
  transport (measured wall-clock scaling) or ``transport="loopback"``,
  the same shards served in the caller's process (``--shards K``).
* :mod:`repro.concurrency.supervise` — :class:`WorkerSupervisor` and
  :class:`FaultPlan`: fail-recover supervision for the parallel engine
  (respawn, rebuild, exactly-once replay, bounded backoff, degraded
  modes) plus the deterministic fault-injection harness.
"""

from repro.concurrency.spec import (
    CC_SCHEMES,
    ConcurrencySpec,
    GLOBAL_LOCK,
    LOCK_FREE,
)
from repro.concurrency.sim import (
    FailureModel,
    OpProfile,
    RWLOCK_BOUNCE_NS,
    SimResult,
    make_streams,
    simulate,
    simulate_scaling,
)
from repro.concurrency.supervise import (
    FaultDirective,
    FaultPlan,
    WorkerSupervisor,
)
from repro.concurrency.sharding import ShardRouter
from repro.concurrency.parallel import (
    ParallelShardedIndex,
    ParallelShardedStore,
    ParallelSortedShardedIndex,
    measure_scaling,
    parallel_sharded_index,
    parallel_sharded_store,
)

__all__ = [
    "CC_SCHEMES",
    "ConcurrencySpec",
    "FailureModel",
    "FaultDirective",
    "FaultPlan",
    "GLOBAL_LOCK",
    "LOCK_FREE",
    "OpProfile",
    "WorkerSupervisor",
    "RWLOCK_BOUNCE_NS",
    "SimResult",
    "make_streams",
    "simulate",
    "simulate_scaling",
    "ShardRouter",
    "ParallelShardedIndex",
    "ParallelShardedStore",
    "ParallelSortedShardedIndex",
    "measure_scaling",
    "parallel_sharded_index",
    "parallel_sharded_store",
]
