"""Sharded execution must be invisible: K shards, same answers.

The contract: the sharded engine over its in-process loopback transport
(``parallel_sharded_store`` / ``parallel_sharded_index`` with
``transport="loopback"``) over any registry spec returns bit-identical
get/put/scan results to the unsharded instance, for any shard count —
sharding partitions the key space, it never changes semantics.
"""

import pytest

from repro import PerfContext, ViperStore
from repro.concurrency import (
    ParallelSortedShardedIndex,
    ShardRouter,
    parallel_sharded_index,
    parallel_sharded_store,
)
from repro.core.interfaces import SortedIndex
from repro.errors import InvalidConfigurationError
from repro.registry import specs
from repro.workloads import uniform_keys

SHARD_COUNTS = (1, 2, 7)

#: Small but non-trivial: enough keys that every shard gets a spread.
N_KEYS = 600
N_EXTRA = 120


def _keys():
    keys = uniform_keys(N_KEYS + N_EXTRA, seed=5)
    return keys[:N_KEYS], keys[N_KEYS:]


def _spec_params():
    return [pytest.param(spec, id=spec.name) for spec in specs()]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("spec", _spec_params())
def test_sharded_store_matches_unsharded(spec, shards):
    load, extra = _keys()
    items = [(k, f"v{k}") for k in load]

    flat = ViperStore(spec.build(PerfContext()), PerfContext())
    flat.bulk_load(items)
    with parallel_sharded_store(spec, shards, transport="loopback") as sharded:
        sharded.bulk_load(items)
        _check_store_contract(flat, sharded, load, extra)


def _check_store_contract(flat, sharded, load, extra):
    """Answers, lengths and ops routed (``worker_ops``) match ``flat``."""
    updatable = flat.index.capabilities().updatable
    issued = 0

    # Point lookups: every loaded key, plus misses.
    probe = list(load) + list(extra)
    assert [sharded.get(k) for k in probe] == [flat.get(k) for k in probe]
    issued += len(probe)
    assert sharded.get_many(probe) == flat.get_many(probe)
    issued += len(probe)

    if updatable:
        for k in extra:
            flat.put(k, f"n{k}")
            sharded.put(k, f"n{k}")
        issued += len(extra)
        for k in load[:50]:
            flat.update(k, f"u{k}")
            sharded.update(k, f"u{k}")
        issued += 50
        assert sharded.get_many(probe) == flat.get_many(probe)
        issued += len(probe)
        for k in load[50:60]:
            assert sharded.delete(k) == flat.delete(k)
        issued += 10
        assert [sharded.get(k) for k in load[50:60]] == [None] * 10
        issued += 10

    assert len(sharded) == len(flat)
    assert sum(sharded.worker_ops) == issued

    # Ordered scans must cross shard boundaries seamlessly.
    if isinstance(flat.index, SortedIndex):
        start = sorted(load)[len(load) // 3]
        for count in (1, 25, len(load)):
            assert sharded.scan(start, count) == flat.scan(start, count)
        assert sharded.scan(min(load) - 1, 40) == flat.scan(min(load) - 1, 40)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_index_matches_unsharded(shards):
    spec = next(s for s in specs() if s.name == "BTree")
    load, extra = _keys()
    items = [(k, k * 3) for k in load]

    flat = spec.build(PerfContext())
    flat.bulk_load(items)
    with parallel_sharded_index(spec, shards, transport="loopback") as sharded:
        sharded.bulk_load(items)
        assert isinstance(sharded, ParallelSortedShardedIndex)

        probe = list(load) + list(extra)
        assert sharded.get_many(probe) == flat.get_many(probe)
        for k in extra:
            flat.insert(k, k * 3)
            sharded.insert(k, k * 3)
        assert sharded.get_many(probe) == flat.get_many(probe)
        assert len(sharded) == len(flat)
        assert sharded.stats().leaf_count >= shards

        start = sorted(load)[7]
        assert sharded.scan(start, 100) == flat.scan(start, 100)
        assert list(sharded.range(start, start + 10**17)) == list(
            flat.range(start, start + 10**17)
        )


class TestRouter:
    def test_uniform_default_covers_the_key_space(self):
        router = ShardRouter(4)
        assert router.shard_of(0) == 0
        assert router.shard_of((1 << 64) - 1) == 3

    def test_from_keys_every_shard_nonempty(self):
        keys = sorted(uniform_keys(100, seed=9))
        router = ShardRouter.from_keys(keys, 7)
        parts = router.partition([(k, None) for k in keys])
        assert len(parts) == 7
        assert all(parts)
        assert sum(len(p) for p in parts) == len(keys)

    def test_partition_preserves_in_shard_order(self):
        router = ShardRouter(2, boundaries=[50])
        items = [(10, "a"), (60, "b"), (20, "c"), (10, "d")]
        parts = router.partition(items)
        assert parts[0] == [(10, "a"), (20, "c"), (10, "d")]
        assert parts[1] == [(60, "b")]

    def test_more_shards_than_keys_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ShardRouter.from_keys([1, 2, 3], 4)

    def test_from_keys_duplicate_heavy_sample(self):
        # Regression: equal-population cuts used to land two boundaries
        # on the same repeated key and crash on the strictly-ascending
        # check.  A skewed sample (each key repeated 40x) must split.
        distinct = sorted(uniform_keys(12, seed=3))
        keys = sorted(k for k in distinct for _ in range(40))
        router = ShardRouter.from_keys(keys, 7)
        parts = router.partition([(k, None) for k in keys])
        assert len(parts) == 7
        assert all(parts)
        assert sum(len(p) for p in parts) == len(keys)

    def test_from_keys_too_few_distinct_keys_rejected(self):
        keys = sorted([5] * 50 + [9] * 50)  # 2 distinct, 3 shards
        with pytest.raises(InvalidConfigurationError) as err:
            ShardRouter.from_keys(keys, 3)
        assert "distinct" in str(err.value)

    def test_bad_boundaries_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ShardRouter(3, boundaries=[10])  # wrong count
        with pytest.raises(InvalidConfigurationError):
            ShardRouter(3, boundaries=[20, 10])  # not ascending
        with pytest.raises(InvalidConfigurationError):
            ShardRouter(0)

