"""Bit-identity contract for the vectorized scan engine.

``scan_many(starts, count)`` must be indistinguishable from the scalar
``scan`` loop everywhere it is offered: same tuples, same order, and the
same simulated hardware charges (counter deltas compare equal) — for
every sorted registry spec, flat and through the Viper store, and
through the sharded engine over both its in-process loopback transport
and worker processes.  Edge cases pinned
here: scans spanning leaf boundaries, empty ranges past the last key,
duplicate start keys, post-insert buffers, hostile starts (negative,
non-integer, at or past 2^64), counts of 0 or less (``[]``, no charge),
and hash indexes failing with :class:`UnsupportedOperationError`, never
``AttributeError``.
"""

import bisect
import random

import pytest

from repro import PerfContext, ViperStore
from repro.bench.runner import IndexAdapter, execute_ops
from repro.concurrency.parallel import (
    parallel_sharded_index,
    parallel_sharded_store,
)
from repro.core.interfaces import SortedIndex
from repro.errors import UnsupportedOperationError
from repro.registry import has_native_batch_scan, resolve, specs
from repro.workloads.ycsb import Operation, OpKind

SPECS = list(specs())
SHARD_COUNTS = (1, 2, 7)
WORKER_COUNTS = (1, 2, 4)

N_KEYS = 2000


def _spec_params():
    return [pytest.param(spec, id=spec.name) for spec in SPECS]


def _keys(n=N_KEYS, seed=4321):
    rng = random.Random(seed)
    return sorted(rng.sample(range(1, 2**48), n))


def _start_batches(keys, n=80):
    """Start-key batches covering the contract's edge cases."""
    rng = random.Random(17)
    present = rng.sample(keys, n)
    return {
        "random": present,
        "duplicates": present[:20] * 4,
        "between_keys": [k + 1 for k in present[: n // 2]],
        "below_min": [0, max(0, keys[0] - 1)],
        "past_max": [keys[-1] + 1, keys[-1] + 10_000],  # empty ranges
        "empty": [],
    }


def _assert_parity(obj, perf, starts, count, label=""):
    """scan_many == sequential scan in results AND charge deltas."""
    mark = perf.begin()
    scalar = [obj.scan(start, count) for start in starts]
    scalar_delta = perf.end(mark).counters
    mark = perf.begin()
    batched = obj.scan_many(starts, count)
    batched_delta = perf.end(mark).counters
    assert batched == scalar, (label, count)
    assert batched_delta == scalar_delta, (label, count)
    if count <= 0:
        assert batched == [[] for _ in starts], (label, count)
        assert scalar_delta.total() == 0, (label, count)


#: count <= 0 must answer [] and charge nothing; 1 and 50 are the
#: YCSB-E shapes, and the largest count spans several leaves (or shards).
COUNTS = (-1, 0, 1, 50)


# --------------------------------------------------------------- flat


class TestFlatIndex:
    @pytest.mark.parametrize("spec", _spec_params())
    def test_scan_many_matches_scalar(self, spec):
        perf = PerfContext()
        index = spec.build(perf)
        if not isinstance(index, SortedIndex):
            pytest.skip("hash index: covered by the raising tests")
        keys = _keys()
        index.bulk_load([(k, k * 3) for k in keys])
        batches = _start_batches(keys)
        for label, starts in batches.items():
            for count in COUNTS + (300,):
                _assert_parity(index, perf, starts, count, label)

    @pytest.mark.parametrize("spec", _spec_params())
    def test_scan_many_after_inserts(self, spec):
        """Parity survives mutation: buffers, gaps, bins, splits."""
        perf = PerfContext()
        index = spec.build(perf)
        if not isinstance(index, SortedIndex):
            pytest.skip("hash index: covered by the raising tests")
        if not index.capabilities().updatable:
            pytest.skip(f"{spec.name} is read-only")
        keys = _keys()
        index.bulk_load([(k, k * 3) for k in keys])
        rng = random.Random(7)
        key_set = set(keys)
        fresh = [
            k for k in rng.sample(range(1, 2**48), 600) if k not in key_set
        ]
        for k in fresh:
            index.insert(k, -k)
        starts = rng.sample(fresh, 40) + rng.sample(keys, 40)
        for count in (1, 50, 300):
            _assert_parity(index, perf, starts, count, "post-insert")

    def test_leaf_boundary_span_returns_global_order(self):
        """One scan crossing many leaves equals the sorted-items slice."""
        perf = PerfContext()
        index = resolve("ALEX").build(perf)
        keys = _keys()
        items = [(k, k * 3) for k in keys]
        index.bulk_load(items)
        (run,) = index.scan_many([keys[5]], 700)
        assert run == items[5 : 5 + 700]

    def test_registry_flags_native_batch_scan(self):
        flagged = set()
        for spec in SPECS:
            index = spec.build(PerfContext())
            if has_native_batch_scan(index):
                flagged.add(spec.name)
        # The vectorized paths must be recognised as native...
        assert {"PGM-static", "RS", "BTree", "ALEX", "XIndex"} <= flagged
        # ...fallback-only sorted indexes and hash indexes must not be.
        assert "Skiplist" not in flagged
        assert "CCEH" not in flagged


# --------------------------------------------------------------- store


@pytest.mark.parametrize("name", ["PGM-static", "ALEX", "BTree"])
def test_store_scan_many_matches_scalar(name):
    perf = PerfContext()
    store = ViperStore(resolve(name).build(perf), perf)
    keys = _keys()
    store.bulk_load([(k, k * 3) for k in keys])
    starts = _start_batches(keys)["random"]
    for count in COUNTS + (300,):
        _assert_parity(store, perf, starts, count, f"viper[{name}]")


# ------------------------------------------------------------- sharded


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("spec", _spec_params())
def test_sharded_scan_many_matches_scalar(spec, shards):
    perf = PerfContext()
    probe = spec.build(PerfContext())
    if not isinstance(probe, SortedIndex):
        pytest.skip("hash index: covered by the raising tests")
    keys = _keys(1200)
    rng = random.Random(23)
    starts = rng.sample(keys, 50) + [0, keys[-1] + 5] + [keys[3]] * 4
    with parallel_sharded_index(
        spec, shards, perf=perf, transport="loopback"
    ) as index:
        index.bulk_load([(k, k * 3) for k in keys])
        # count=400 forces cross-shard spill at every shard count > 1.
        for count in COUNTS + (400,):
            _assert_parity(index, perf, starts, count, f"x{shards}")


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_store_scan_many_matches_scalar(shards):
    perf = PerfContext()
    keys = _keys(1200)
    rng = random.Random(29)
    starts = rng.sample(keys, 50) + [0, keys[-1] + 5] + [keys[3]] * 4
    with parallel_sharded_store(
        "BTree", shards, perf=perf, transport="loopback"
    ) as store:
        store.bulk_load([(k, k * 3) for k in keys])
        before = list(store.worker_ops)
        store.scan_many(starts, 50)
        mid = list(store.worker_ops)
        for start in starts:
            store.scan(start, 50)
        after = list(store.worker_ops)
        # Batched and scalar visit the same shards the same number of
        # times.
        assert [m - b for m, b in zip(mid, before)] == [
            a - m for a, m in zip(after, mid)
        ]
        for count in COUNTS + (400,):
            _assert_parity(store, perf, starts, count, f"store x{shards}")


def test_engine_scan_of_no_records_makes_no_round_trip():
    """A scan of count 0 or less answers ``[]`` before any shard is
    called: no worker op is counted."""
    with parallel_sharded_store(
        "BTree", 2, perf=PerfContext(), transport="loopback"
    ) as store:
        store.bulk_load([(k, k) for k in range(10, 100, 10)])
        before = list(store.worker_ops)
        assert store.scan(15, 0) == []
        assert store.scan(15, -3) == []
        assert store.scan_many([15, 60], 0) == [[], []]
        assert store.worker_ops == before


# ------------------------------------------------------------ parallel


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("name", ["PGM-static", "ALEX", "BTree"])
def test_parallel_scan_many_matches_scalar(name, workers):
    perf = PerfContext()
    engine = parallel_sharded_index(resolve(name), workers, perf=perf)
    try:
        keys = _keys(1000)
        engine.bulk_load([(k, k * 3) for k in keys])
        rng = random.Random(31)
        starts = rng.sample(keys, 40) + [0, keys[-1] + 5] + [keys[3]] * 3
        for count in COUNTS + (400,):
            _assert_parity(engine, perf, starts, count, f"workers={workers}")
    finally:
        engine.close()


# ------------------------------------------------------ hostile starts


@pytest.mark.parametrize("spec", _spec_params())
def test_hostile_scan_starts_match_oracle(spec):
    """Every sorted spec returns the first keys at or above any start: a
    negative start scans from the smallest key, a non-integer one from
    the next integer, and one at or above 2^64 is empty."""
    perf = PerfContext()
    index = spec.build(perf)
    if not isinstance(index, SortedIndex):
        pytest.skip("hash index: covered by the raising tests")
    keys = _keys()
    index.bulk_load([(k, k * 3) for k in keys])
    mid = keys[len(keys) // 2]
    starts = [-5, -0.5, 0.5, mid - 0.5, mid + 0.5, float(mid),
              keys[-1] + 0.5, 1.5e19, 2**64 - 1, 2**64, 2**64 + 10]
    for count in (1, 50):
        oracle = [
            [(k, k * 3) for k in keys[bisect.bisect_left(keys, s) :][:count]]
            for s in starts
        ]
        assert [index.scan(s, count) for s in starts] == oracle, count
        _assert_parity(index, perf, starts, count, "hostile")


# ------------------------------------------------------------- raising


def _hash_specs():
    return [
        spec
        for spec in SPECS
        if not isinstance(spec.build(PerfContext()), SortedIndex)
    ]


def test_hash_store_scan_many_raises_cleanly():
    assert _hash_specs(), "registry lost its hash index?"
    for spec in _hash_specs():
        perf = PerfContext()
        store = ViperStore(spec.build(perf), perf)
        store.bulk_load([(k, k) for k in range(1, 200)])
        with pytest.raises(UnsupportedOperationError):
            store.scan_many([5, 50], 10)


def test_hash_index_batched_executor_raises_cleanly():
    """SCAN stays on the scalar path for unsorted targets, so a batched
    run still fails with the domain error, not ``AttributeError``."""
    for spec in _hash_specs():
        perf = PerfContext()
        index = spec.build(perf)
        index.bulk_load([(k, k) for k in range(1, 200)])
        ops = [Operation(OpKind.SCAN, key=5, scan_length=10)]
        with pytest.raises(UnsupportedOperationError):
            execute_ops(IndexAdapter(index), ops, perf, batch_size=8)


# ------------------------------------------------------------- executor


def test_executor_batches_scans_with_identical_accounting():
    """Batched SCAN dispatch records the same op count, per-kind rows,
    and simulated charges as the scalar loop."""
    perf = PerfContext()
    index = resolve("PGM-static").build(perf)
    keys = _keys(1500)
    index.bulk_load([(k, k) for k in keys])
    rng = random.Random(41)
    ops = [
        Operation(OpKind.SCAN, key=rng.choice(keys), scan_length=rng.randrange(1, 51))
        for _ in range(300)
    ]
    mark = perf.begin()
    scalar_result = execute_ops(IndexAdapter(index), ops, perf, batch_size=1)
    scalar_delta = perf.end(mark).counters
    mark = perf.begin()
    batched_result = execute_ops(IndexAdapter(index), ops, perf, batch_size=64)
    batched_delta = perf.end(mark).counters
    assert batched_delta == scalar_delta
    # One weighted record per batched call keeps the count the op count.
    assert set(batched_result.by_kind) == {OpKind.SCAN}
    assert len(batched_result.by_kind[OpKind.SCAN]) == len(ops)
    assert len(scalar_result.by_kind[OpKind.SCAN]) == len(ops)
    assert len(batched_result.latency) == len(ops)
