"""Deeper, index-specific tests for the traditional indexes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import PerfContext
from repro.traditional import CCEH, BPlusTree, BwTree, Masstree, SkipList, Wormhole
from repro.traditional.cceh import _hash64


class TestBPlusTreeInternals:
    def test_height_grows_logarithmically(self):
        heights = []
        for n in (100, 10_000):
            tree = BPlusTree(fanout=8, perf=PerfContext())
            tree.bulk_load([(i, i) for i in range(n)])
            heights.append(tree.stats().depth_max)
        assert heights[0] < heights[1] <= heights[0] + 4

    def test_splits_preserve_leaf_chain(self):
        tree = BPlusTree(fanout=8, perf=PerfContext())
        tree.bulk_load([(i, i) for i in range(0, 400, 2)])
        rng = random.Random(1)
        for k in rng.sample(range(1, 400, 2), 150):
            tree.insert(k, k)
        # The leaf chain must still produce globally sorted output.
        got = [k for k, _ in tree.range(0, 400)]
        assert got == sorted(got)
        assert len(got) == len(tree)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=400, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_insert_order_independence(self, keys):
        a = BPlusTree(fanout=8, perf=PerfContext())
        a.bulk_load([(k, k) for k in sorted(keys)])
        b = BPlusTree(fanout=8, perf=PerfContext())
        b.bulk_load([])
        for k in keys:
            b.insert(k, k)
        assert list(a.range(0, 10**6)) == list(b.range(0, 10**6))

    def test_batch_upsert_routes_by_fence_after_delete(self):
        """Deleting a leaf's first key raises it above the parent
        separator; a batch key between the two belongs to that leaf, not
        to the cached leaf on its left."""
        tree = BPlusTree(perf=PerfContext())
        tree.bulk_load([(k, k) for k in range(0, 1000, 10)])
        assert tree._root.keys[0] == 240  # the second leaf starts at 240
        tree.delete(240)
        tree.insert_many([(k, "u") for k in range(0, 150, 10)] + [(245, "new")])
        assert tree.get(245) == "new"
        tree.insert(245, "again")
        assert len(tree) == 100
        assert [k for k, _ in tree.scan(230, 5)] == [230, 245, 250, 260, 270]


class TestSkipListInternals:
    def test_deterministic_given_seed(self):
        a = SkipList(seed=7, perf=PerfContext())
        b = SkipList(seed=7, perf=PerfContext())
        items = [(i, i) for i in range(1000)]
        a.bulk_load(items)
        b.bulk_load(items)
        assert a.stats().depth_max == b.stats().depth_max
        assert a.size_bytes() == b.size_bytes()

    def test_tower_heights_shrink_size_after_delete(self):
        sl = SkipList(perf=PerfContext())
        sl.bulk_load([(i, i) for i in range(500)])
        before = sl.size_bytes()
        for i in range(0, 500, 2):
            sl.delete(i)
        assert sl.size_bytes() < before

    def test_search_cost_grows_with_n(self):
        costs = []
        for n in (100, 100_000):
            perf = PerfContext()
            sl = SkipList(perf=perf)
            sl.bulk_load([(i * 7, i) for i in range(n)])
            mark = perf.begin()
            for k in range(0, n * 7, max(1, n // 50 * 7)):
                sl.get(k)
            ops = perf.end(mark)
            costs.append(ops.time_ns)
        assert costs[1] > costs[0]


class TestMasstreeBytes:
    @given(
        st.lists(
            st.binary(min_size=1, max_size=24),
            min_size=1,
            max_size=120,
            unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_key_oracle(self, byte_keys):
        tree = Masstree(perf=PerfContext())
        oracle = {}
        for i, bk in enumerate(byte_keys):
            tree.put_bytes(bk, i)
            oracle[bk] = i
        for bk, v in oracle.items():
            assert tree.get_bytes(bk) == v
        # Overwrites.
        for bk in list(oracle)[:10]:
            tree.put_bytes(bk, "new")
            assert tree.get_bytes(bk) == "new"

    def test_deep_shared_prefixes(self):
        tree = Masstree(perf=PerfContext())
        prefix = b"x" * 64
        keys = [prefix + bytes([i]) for i in range(50)]
        for i, bk in enumerate(keys):
            tree.put_bytes(bk, i)
        for i, bk in enumerate(keys):
            assert tree.get_bytes(bk) == i
        assert tree.get_bytes(prefix) is None


class TestBwTreeInternals:
    def test_keys_below_the_first_fence_survive_a_split(self):
        """Keys below the bulk-loaded minimum land in the first page; when
        it splits, the new right page must be filed after it."""
        tree = BwTree(perf=PerfContext())
        tree.bulk_load([(1000, "a")])
        for k in range(300):
            tree.insert(k, k)
        tree.insert(5, "x")
        assert len(tree) == 301
        assert tree.scan(0, 3) == [(0, 0), (1, 1), (2, 2)]
        assert [k for k, _ in tree.range(0, 2000)] == list(range(300)) + [1000]

    def test_delta_chain_length_bounded(self):
        tree = BwTree(node_size=64, consolidate_after=6, perf=PerfContext())
        tree.bulk_load([(i, i) for i in range(0, 2000, 2)])
        rng = random.Random(2)
        for k in rng.sample(range(1, 2000, 2), 600):
            tree.insert(k, k)
        assert max(tree._chain_len) <= 6

    def test_delete_via_delta(self):
        tree = BwTree(consolidate_after=100, perf=PerfContext())
        tree.bulk_load([(i, i) for i in range(100)])
        assert tree.delete(50) is True
        assert tree.get(50) is None  # delete delta shadows the base entry
        assert tree.delete(50) is False
        tree.insert(50, "back")
        assert tree.get(50) == "back"

    def test_range_sees_through_deltas(self):
        tree = BwTree(consolidate_after=1000, perf=PerfContext())
        tree.bulk_load([(i, i) for i in range(0, 100, 2)])
        tree.insert(51, 51)
        tree.delete(50)
        got = dict(tree.range(48, 54))
        assert got == {48: 48, 51: 51, 52: 52, 54: 54}


class TestWormholeInternals:
    def test_leaves_split_at_capacity(self):
        wh = Wormhole(leaf_size=16, perf=PerfContext())
        wh.bulk_load([(i, i) for i in range(0, 64, 2)])
        before = wh.stats().leaf_count
        for i in range(1, 64, 2):
            wh.insert(i, i)
        assert wh.stats().leaf_count > before
        assert all(
            len(leaf.keys) <= 16 for leaf in wh._leaves
        )

    def test_fences_match_leaf_heads(self):
        wh = Wormhole(leaf_size=8, perf=PerfContext())
        wh.bulk_load([(i, i) for i in range(100)])
        rng = random.Random(3)
        for k in rng.sample(range(100, 1000), 200):
            wh.insert(k, k)
        for fence, leaf in zip(wh._fences, wh._leaves):
            assert leaf.keys[0] == fence or fence <= leaf.keys[0]


class TestCCEHInternals:
    def test_hash_is_deterministic_and_mixing(self):
        assert _hash64(42) == _hash64(42)
        # Consecutive keys land in different buckets (avalanche).
        buckets = {_hash64(k) >> 54 for k in range(64)}
        assert len(buckets) > 32

    @given(
        st.lists(st.integers(0, 2**62), min_size=1, max_size=500, unique=True),
        st.integers(0, 2**62),
    )
    @settings(max_examples=25, deadline=None)
    def test_oracle_property(self, keys, probe):
        table = CCEH(segment_bits=5, initial_depth=1, perf=PerfContext())
        for k in keys:
            table.insert(k, k * 3)
        for k in keys[:100]:
            assert table.get(k) == k * 3
        expected = probe * 3 if probe in set(keys) else None
        assert table.get(probe) == expected

    def test_delete_reinsert_cycles(self):
        table = CCEH(segment_bits=5, perf=PerfContext())
        rng = random.Random(4)
        keys = rng.sample(range(10**9), 500)
        for k in keys:
            table.insert(k, k)
        for _ in range(3):
            for k in keys[:250]:
                assert table.delete(k) is True
            for k in keys[:250]:
                table.insert(k, k)
        assert len(table) == 500
        for k in keys:
            assert table.get(k) == k
