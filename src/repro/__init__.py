"""repro — reproduction of "Cutting Learned Index into Pieces" (ICDE 2023).

Quickstart::

    from repro import ALEXIndex, PerfContext, ViperStore, ycsb_keys

    perf = PerfContext()
    store = ViperStore(ALEXIndex(perf=perf), perf)
    keys = ycsb_keys(100_000)
    store.bulk_load([(k, f"value-{k}") for k in keys])
    store.get(keys[0])
    print(f"simulated time so far: {perf.elapsed_ns() / 1e6:.2f} ms")

Subpackages:

* :mod:`repro.core` — the four design dimensions, recombinable.
* :mod:`repro.registry` — the index registry: every index, one table,
  consumed by the CLI, the benchmarks, and the contract tests.
* :mod:`repro.learned` — RMI, RadixSpline, FITing-tree, PGM, ALEX, XIndex.
* :mod:`repro.traditional` — B+tree, Skiplist, Masstree, Bw-tree,
  Wormhole, CCEH.
* :mod:`repro.store` — the Viper-like NVM key-value store.
* :mod:`repro.workloads` — datasets and YCSB workloads.
* :mod:`repro.perf` — the deterministic cost-model simulator.
* :mod:`repro.concurrency` — CC declarations, the discrete-event
  multithread simulator, and the range-sharded serving engine.
* :mod:`repro.bench` — measurement harness.
"""

from repro.concurrency import ConcurrencySpec, simulate_scaling
from repro.core import ComposedIndex
from repro.perf import BandwidthModel, CostModel, PerfContext
from repro.registry import IndexSpec, UnknownIndexError, resolve, specs
from repro.store import PMemDevice, ViperStore
from repro.workloads import (
    face_keys,
    osm_keys,
    sequential_keys,
    uniform_keys,
    ycsb_keys,
)

__version__ = "1.0.0"

# Index classes are exported from the registry — registering an index is
# what makes it importable as ``from repro import <Class>``.  One spec per
# variant may share a class (FITing-tree inp/buf), hence the dedup.
_INDEX_CLASSES = {spec.factory.__name__: spec.factory for spec in specs()}
globals().update(_INDEX_CLASSES)

__all__ = [
    "ComposedIndex",
    "ConcurrencySpec",
    "simulate_scaling",
    "IndexSpec",
    "UnknownIndexError",
    "resolve",
    "specs",
    "BandwidthModel",
    "CostModel",
    "PerfContext",
    "PMemDevice",
    "ViperStore",
    "face_keys",
    "osm_keys",
    "sequential_keys",
    "uniform_keys",
    "ycsb_keys",
    "__version__",
    *sorted(_INDEX_CLASSES),
]
