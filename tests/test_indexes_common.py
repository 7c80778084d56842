"""Cross-cutting contract tests: every index, one behaviour suite.

Each index (six learned + six traditional) must honour the same
contract: bulk_load -> get finds everything; absent keys return None;
updatable indexes absorb inserts/updates; sorted indexes answer range
scans identically to a sorted-list oracle.
"""

import random

import pytest

from repro.core.interfaces import Index, SortedIndex
from repro.errors import UnsupportedOperationError
from repro.learned import (
    ALEXIndex,
    APEXIndex,
    DynamicPGMIndex,
    FINEdexIndex,
    FITingTree,
    LIPPIndex,
    PGMIndex,
    RadixSplineIndex,
    RMIIndex,
    XIndexIndex,
)
from repro.perf import PerfContext
from repro.traditional import CCEH, BPlusTree, BwTree, Masstree, SkipList, Wormhole

READ_ONLY = {
    "RMI": lambda perf: RMIIndex(perf=perf),
    "RS": lambda perf: RadixSplineIndex(perf=perf),
    "PGM-static": lambda perf: PGMIndex(perf=perf),
}

UPDATABLE = {
    "FITing-tree-inp": lambda perf: FITingTree(strategy="inplace", perf=perf),
    "FITing-tree-buf": lambda perf: FITingTree(strategy="buffer", perf=perf),
    "PGM": lambda perf: DynamicPGMIndex(perf=perf),
    "ALEX": lambda perf: ALEXIndex(segment_size=512, perf=perf),
    "XIndex": lambda perf: XIndexIndex(perf=perf),
    "LIPP": lambda perf: LIPPIndex(perf=perf),
    "APEX": lambda perf: APEXIndex(node_size=512, perf=perf),
    "FINEdex": lambda perf: FINEdexIndex(perf=perf),
    "BTree": lambda perf: BPlusTree(perf=perf),
    "Skiplist": lambda perf: SkipList(perf=perf),
    "Masstree": lambda perf: Masstree(perf=perf),
    "Bwtree": lambda perf: BwTree(perf=perf),
    "Wormhole": lambda perf: Wormhole(perf=perf),
    "CCEH": lambda perf: CCEH(segment_bits=8, perf=perf),
}

ALL = {**READ_ONLY, **UPDATABLE}

SORTED = {k: v for k, v in ALL.items() if k != "CCEH"}

DELETABLE = {
    k: ALL[k]
    for k in (
        "PGM",
        "ALEX",
        "FITing-tree-inp",
        "FITing-tree-buf",
        "XIndex",
        "LIPP",
        "APEX",
        "FINEdex",
        "BTree",
        "Skiplist",
        "Masstree",
        "Bwtree",
        "Wormhole",
        "CCEH",
    )
}


def items_for(n, seed=0, spacing=2):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(0, 10**9, spacing), n))
    return [(k, k ^ 0xABCD) for k in keys]


@pytest.mark.parametrize("name", sorted(ALL))
class TestEveryIndex:
    def test_bulk_load_then_get(self, name):
        idx = ALL[name](PerfContext())
        items = items_for(4000, seed=1)
        idx.bulk_load(items)
        assert len(idx) == len(items)
        rng = random.Random(2)
        for k, v in rng.sample(items, 400):
            assert idx.get(k) == v, f"{name} lost key {k}"

    def test_absent_keys_return_none(self, name):
        idx = ALL[name](PerfContext())
        items = items_for(2000, seed=3)
        idx.bulk_load(items)
        present = {k for k, _ in items}
        rng = random.Random(4)
        for k in rng.sample(range(0, 10**9), 300):
            if k not in present:
                assert idx.get(k) is None, f"{name} fabricated key {k}"

    def test_extreme_keys(self, name):
        idx = ALL[name](PerfContext())
        idx.bulk_load([(10, "a"), (2**62, "b")])
        assert idx.get(10) == "a"
        assert idx.get(2**62) == "b"
        assert idx.get(0) is None
        assert idx.get(2**63) is None

    def test_size_and_stats_present(self, name):
        idx = ALL[name](PerfContext())
        idx.bulk_load(items_for(1000, seed=5))
        assert idx.size_bytes() > 0
        stats = idx.stats()
        assert stats.leaf_count >= 0
        caps = idx.capabilities()
        assert isinstance(caps.updatable, bool)

    def test_contains(self, name):
        idx = ALL[name](PerfContext())
        items = items_for(100, seed=6)
        idx.bulk_load(items)
        assert items[50][0] in idx
        assert (items[50][0] + 1) not in idx


@pytest.mark.parametrize("name", sorted(READ_ONLY))
class TestReadOnlyIndexes:
    def test_insert_rejected(self, name):
        idx = READ_ONLY[name](PerfContext())
        idx.bulk_load(items_for(100))
        with pytest.raises(UnsupportedOperationError):
            idx.insert(1, 2)

    def test_capabilities_not_updatable(self, name):
        assert READ_ONLY[name](PerfContext()).capabilities().updatable is False


@pytest.mark.parametrize("name", sorted(UPDATABLE))
class TestUpdatableIndexes:
    def test_insert_and_mixed_workload_oracle(self, name):
        idx = UPDATABLE[name](PerfContext())
        items = items_for(2000, seed=7)
        idx.bulk_load(items)
        oracle = dict(items)
        rng = random.Random(8)
        for _ in range(4000):
            k = rng.randrange(0, 10**9)
            if rng.random() < 0.5:
                idx.insert(k, k + 1)
                oracle[k] = k + 1
            else:
                assert idx.get(k) == oracle.get(k), f"{name} wrong for {k}"
        assert len(idx) == len(oracle), f"{name} count drifted"

    def test_insert_overwrites(self, name):
        idx = UPDATABLE[name](PerfContext())
        idx.bulk_load(items_for(500, seed=9))
        key = items_for(500, seed=9)[250][0]
        idx.insert(key, "v2")
        assert idx.get(key) == "v2"

    def test_insert_smallest_and_largest(self, name):
        idx = UPDATABLE[name](PerfContext())
        idx.bulk_load([(1000, 1), (2000, 2), (3000, 3)])
        idx.insert(1, "min")
        idx.insert(2**62, "max")
        assert idx.get(1) == "min"
        assert idx.get(2**62) == "max"
        assert len(idx) == 5

    def test_monotonic_append_workload(self, name):
        """Sequential (YCSB-D-like latest) inserts at the right edge."""
        idx = UPDATABLE[name](PerfContext())
        idx.bulk_load([(i, i) for i in range(0, 2000, 2)])
        for i in range(2001, 4001, 2):
            idx.insert(i, i)
        assert idx.get(3999) == 3999
        assert len(idx) == 2000


@pytest.mark.parametrize("name", sorted(SORTED))
class TestSortedIndexes:
    def test_range_matches_oracle(self, name):
        idx = SORTED[name](PerfContext())
        items = items_for(3000, seed=10)
        idx.bulk_load(items)
        keys = [k for k, _ in items]
        lo, hi = keys[700], keys[2100]
        got = list(idx.range(lo, hi))
        expected = [(k, v) for k, v in items if lo <= k <= hi]
        assert got == expected, f"{name} wrong range"

    def test_empty_range(self, name):
        idx = SORTED[name](PerfContext())
        items = items_for(500, seed=11)
        idx.bulk_load(items)
        gap_lo = items[100][0] + 1
        assert list(idx.range(gap_lo, gap_lo)) == []

    def test_scan_counts(self, name):
        idx = SORTED[name](PerfContext())
        items = items_for(1000, seed=12)
        idx.bulk_load(items)
        got = idx.scan(items[0][0], 50)
        assert got == items[:50]


@pytest.mark.parametrize("name", sorted(DELETABLE))
class TestDeletes:
    def test_delete_then_get(self, name):
        idx = DELETABLE[name](PerfContext())
        items = items_for(1000, seed=13)
        idx.bulk_load(items)
        victims = [items[i][0] for i in range(0, 1000, 10)]
        for k in victims:
            assert idx.delete(k) is True
        for k in victims:
            assert idx.get(k) is None
        assert len(idx) == 1000 - len(victims)
        assert idx.delete(victims[0]) is False

    def test_delete_missing_returns_false(self, name):
        idx = DELETABLE[name](PerfContext())
        idx.bulk_load(items_for(100, seed=14))
        assert idx.delete(10**12 + 7) is False


class TestCCEHSpecifics:
    def test_range_unsupported(self):
        idx = CCEH(perf=PerfContext())
        assert idx.capabilities().sorted_order is False
        assert not isinstance(idx, SortedIndex)

    def test_directory_doubles_under_load(self):
        idx = CCEH(segment_bits=4, initial_depth=1, perf=PerfContext())
        rng = random.Random(15)
        for k in rng.sample(range(10**9), 2000):
            idx.insert(k, k)
        assert idx.global_depth > 1
        for k in rng.sample(range(10**9), 50):
            pass  # presence already asserted by oracle test; depth is the point

    def test_local_depths_consistent(self):
        idx = CCEH(segment_bits=4, initial_depth=1, perf=PerfContext())
        rng = random.Random(16)
        for k in rng.sample(range(10**9), 3000):
            idx.insert(k, k)
        for seg in idx._directory:
            assert seg.local_depth <= idx.global_depth
        # Every segment must be referenced by exactly 2^(g - l) entries.
        from collections import Counter

        refs = Counter(id(s) for s in idx._directory)
        for seg in {id(s): s for s in idx._directory}.values():
            assert refs[id(seg)] == 1 << (idx.global_depth - seg.local_depth)


class TestMasstreeLayers:
    def test_long_byte_keys_create_layers(self):
        tree = Masstree(perf=PerfContext())
        assert tree.put_bytes(b"aaaaaaaa-suffix-1", 1) is True
        assert tree.put_bytes(b"aaaaaaaa-suffix-2", 2) is True
        assert tree.put_bytes(b"aaaaaaaa-suffix-1", 10) is False  # overwrite
        assert tree.get_bytes(b"aaaaaaaa-suffix-1") == 10
        assert tree.get_bytes(b"aaaaaaaa-suffix-2") == 2
        assert tree.get_bytes(b"aaaaaaaa-suffix-3") is None

    def test_prefix_key_vs_longer_key(self):
        tree = Masstree(perf=PerfContext())
        tree.put_bytes(b"aaaaaaaa", "short")
        tree.put_bytes(b"aaaaaaaabbbbbbbb", "long")
        tree.put_bytes(b"aaaaaaaabbbbbbbbcc", "longer")
        assert tree.get_bytes(b"aaaaaaaa") == "short"
        assert tree.get_bytes(b"aaaaaaaabbbbbbbb") == "long"
        assert tree.get_bytes(b"aaaaaaaabbbbbbbbcc") == "longer"

    def test_delete_bytes(self):
        tree = Masstree(perf=PerfContext())
        tree.put_bytes(b"aaaaaaaa-x", 1)
        tree.put_bytes(b"aaaaaaaa-y", 2)
        assert tree.delete_bytes(b"aaaaaaaa-x") is True
        assert tree.get_bytes(b"aaaaaaaa-x") is None
        assert tree.get_bytes(b"aaaaaaaa-y") == 2


class TestBwTreeSpecifics:
    def test_chains_consolidate(self):
        idx = BwTree(node_size=64, consolidate_after=4, perf=PerfContext())
        idx.bulk_load([(i, i) for i in range(0, 1000, 2)])
        for i in range(1, 200, 2):
            idx.insert(i, i)
        assert max(idx._chain_len) < 4 + 1
        for i in range(1, 200, 2):
            assert idx.get(i) == i

    def test_reads_slow_down_with_chains(self):
        perf = PerfContext()
        idx = BwTree(node_size=4096, consolidate_after=1 << 30, perf=perf)
        idx.bulk_load([(i, i) for i in range(0, 2000, 2)])
        mark = perf.begin()
        idx.get(1000)
        clean_cost = perf.end(mark).time_ns
        for i in range(1, 400, 2):
            idx.insert(i, i)  # never consolidates
        mark = perf.begin()
        idx.get(1000)
        dirty_cost = perf.end(mark).time_ns
        assert dirty_cost > clean_cost


class TestDynamicPGMSpecifics:
    def test_lsm_level_discipline(self):
        idx = DynamicPGMIndex(base_level_size=16, perf=PerfContext())
        rng = random.Random(17)
        for k in rng.sample(range(10**9), 500):
            idx.insert(k, k)
        assert len(idx._buffer) < 16
        for i, level in enumerate(idx._levels):
            if level is not None:
                assert len(level) <= idx._level_capacity(i)

    def test_newer_value_wins_across_levels(self):
        idx = DynamicPGMIndex(base_level_size=4, perf=PerfContext())
        for k in range(64):
            idx.insert(k, "old")
        idx.insert(10, "new")
        assert idx.get(10) == "new"

    def test_update_leaves_a_carried_tombstone_deleted(self):
        """A tombstone carried into a level shadows the older copy below
        it: ``update`` of the deleted key answers False and stores
        nothing."""
        idx = DynamicPGMIndex(base_level_size=4, perf=PerfContext())
        idx.bulk_load([(k, k) for k in range(0, 300, 3)])
        assert idx.delete(3)
        for k in range(1000, 1008):
            idx.insert(k, k)
        assert not any(k == 3 for k, _ in idx._buffer)  # carried down
        assert idx.update(3, 99) is False
        assert idx.get(3) is None
        assert len(idx) == 107

    def test_retrain_stats_populated(self):
        idx = DynamicPGMIndex(base_level_size=8, perf=PerfContext())
        for k in range(200):
            idx.insert(k, k)
        assert idx.retrain_stats.count > 0
        assert idx.retrain_stats.avg_time_ns() > 0
