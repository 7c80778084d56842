"""Crash-consistency tests: torn writes must never surface after recovery.

Viper persists a CRC per record; a write interrupted by power loss fails
its checksum and is dropped by the recovery scan.  These tests inject
torn writes at every interesting point in the store's lifecycle and
assert the recovered state equals the last *committed* state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ALEXIndex, BPlusTree, DynamicPGMIndex, PerfContext, ViperStore
from repro.errors import DeviceError
from repro.store import PMemDevice


class TestDeviceTornWrites:
    def test_torn_read_raises_checksum_error(self):
        dev = PMemDevice(perf=PerfContext())
        page = dev.allocate_page()
        dev.write_record_torn(page, 0, 1, "half")
        assert dev.is_torn(page, 0)
        with pytest.raises(DeviceError, match="checksum"):
            dev.read_record(page, 0)

    def test_scan_skips_torn_records(self):
        dev = PMemDevice(slots_per_page=4, perf=PerfContext())
        page = dev.allocate_page()
        dev.write_record(page, 0, 1, "a")
        dev.write_record_torn(page, 1, 2, "b")
        dev.write_record(page, 2, 3, "c")
        got = [rec for _, _, rec in dev.scan_slots() if rec is not None]
        assert got == [(1, "a"), (3, "c")]
        free = [slot for _, slot, rec in dev.scan_slots() if rec is None]
        assert free == [1, 3]  # the torn slot and the empty one

    def test_rewrite_clears_torn_state(self):
        dev = PMemDevice(perf=PerfContext())
        page = dev.allocate_page()
        dev.write_record_torn(page, 0, 1, "half")
        dev.write_record(page, 0, 1, "whole")
        assert not dev.is_torn(page, 0)
        assert dev.read_record(page, 0) == (1, "whole")

    def test_free_clears_torn_state(self):
        dev = PMemDevice(perf=PerfContext())
        page = dev.allocate_page()
        dev.write_record_torn(page, 0, 1, "half")
        dev.free_record(page, 0)
        assert not dev.is_torn(page, 0)


class TestStoreCrashDuringPut:
    def _fresh_store(self, items):
        perf = PerfContext()
        store = ViperStore(BPlusTree(perf=perf), perf)
        store.bulk_load(items)
        return store, perf

    def test_torn_insert_is_lost(self):
        items = [(i, i) for i in range(0, 100, 2)]
        store, perf = self._fresh_store(items)
        store.crash_during_put(51, "never-committed")
        store.recover(lambda: BPlusTree(perf=perf))
        assert store.get(51) is None
        assert len(store) == len(items)

    def test_torn_update_keeps_old_value(self):
        items = [(i, f"v{i}") for i in range(0, 100, 2)]
        store, perf = self._fresh_store(items)
        store.crash_during_put(50, "newer")
        store.recover(lambda: BPlusTree(perf=perf))
        # The old record was never freed, so the old value survives.
        assert store.get(50) == "v50"

    def test_store_usable_after_torn_recovery(self):
        store, perf = self._fresh_store([(1, "a")])
        store.crash_during_put(2, "torn")
        store.recover(lambda: BPlusTree(perf=perf))
        store.put(2, "committed")
        assert store.get(2) == "committed"

    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: BPlusTree(perf=p),
            lambda p: ALEXIndex(segment_size=256, perf=p),
            lambda p: DynamicPGMIndex(perf=p),
        ],
    )
    def test_committed_history_always_recovers(self, factory):
        perf = PerfContext()
        store = ViperStore(BPlusTree(perf=perf), perf)
        items = [(i, i) for i in range(0, 1000, 2)]
        store.bulk_load(items)
        oracle = dict(items)
        rng = random.Random(9)
        for k in rng.sample(range(1, 1000, 2), 200):
            store.put(k, -k)
            oracle[k] = -k
        store.crash_during_put(10**9, "torn-tail")
        store.recover(lambda: factory(perf))
        assert len(store) == len(oracle)
        for k in rng.sample(sorted(oracle), 300):
            assert store.get(k) == oracle[k]
        assert store.get(10**9) is None

    @given(
        n_commits=st.integers(0, 60),
        torn_key=st.integers(10**6, 10**7),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_recovery_equals_committed_prefix(self, n_commits, torn_key, seed):
        perf = PerfContext()
        store = ViperStore(BPlusTree(perf=perf), perf)
        store.bulk_load([(i, i) for i in range(0, 50, 2)])
        oracle = {i: i for i in range(0, 50, 2)}
        rng = random.Random(seed)
        for _ in range(n_commits):
            k = rng.randrange(1000)
            store.put(k, k + 1)
            oracle[k] = k + 1
        store.crash_during_put(torn_key, "lost")
        store.recover(lambda: BPlusTree(perf=perf))
        assert len(store) == len(oracle)
        for k, v in oracle.items():
            assert store.get(k) == v
