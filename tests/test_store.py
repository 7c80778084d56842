"""Tests for the simulated PMem device and the Viper-style store."""

import random

import pytest

from repro.errors import (
    CrashedError,
    DeviceError,
    InvalidKeysError,
    UnsupportedOperationError,
)
from repro.learned import ALEXIndex, DynamicPGMIndex, RMIIndex
from repro.perf import PerfContext
from repro.registry import specs
from repro.store import PMemDevice, ViperStore
from repro.traditional import CCEH, BPlusTree

UPDATABLE = [s for s in specs() if s.build().capabilities().updatable]
READ_ONLY = [s for s in specs() if not s.build().capabilities().updatable]
#: Keys no 8-byte key slot holds: negative, fractional, NaN, too large,
#: and a float, even an integral one.
REFUSED_KEYS = (-1, 5.5, float("nan"), 2**64, 3.0)


def make_store(index_factory, perf=None, **kwargs):
    perf = perf or PerfContext()
    return ViperStore(index_factory(perf), perf, **kwargs), perf


class TestPMemDevice:
    def test_write_read_roundtrip(self):
        perf = PerfContext()
        dev = PMemDevice(perf=perf)
        page = dev.allocate_page()
        dev.write_record(page, 0, 42, "hello")
        assert dev.read_record(page, 0) == (42, "hello")

    def test_access_charges_nvm_blocks(self):
        perf = PerfContext()
        dev = PMemDevice(record_bytes=208, perf=perf)  # 208B -> 1 block
        page = dev.allocate_page()
        before = perf.counters.nvm_write
        dev.write_record(page, 0, 1, "v")
        assert perf.counters.nvm_write == before + 1
        dev2 = PMemDevice(record_bytes=1024, perf=perf)  # 1024B -> 4 blocks
        page2 = dev2.allocate_page()
        before = perf.counters.nvm_write
        dev2.write_record(page2, 0, 1, "v")
        assert perf.counters.nvm_write == before + 4

    def test_bad_access_rejected(self):
        dev = PMemDevice(perf=PerfContext())
        with pytest.raises(DeviceError):
            dev.read_record(0, 0)
        page = dev.allocate_page()
        with pytest.raises(DeviceError):
            dev.write_record(page, 999, 1, "v")
        with pytest.raises(DeviceError):
            dev.read_record(page, 3)  # empty slot

    def test_capacity_limit(self):
        dev = PMemDevice(capacity_pages=2, perf=PerfContext())
        dev.allocate_page()
        dev.allocate_page()
        with pytest.raises(DeviceError):
            dev.allocate_page()

    def test_scan_returns_live_records_in_order(self):
        dev = PMemDevice(slots_per_page=4, perf=PerfContext())
        p0 = dev.allocate_page()
        p1 = dev.allocate_page()
        dev.write_record(p0, 0, 1, "a")
        dev.write_record(p0, 2, 2, "b")
        dev.write_record(p1, 1, 3, "c")
        dev.free_record(p0, 2)
        got = [rec for _, _, rec in dev.scan_slots() if rec is not None]
        assert got == [(1, "a"), (3, "c")]


class TestViperStore:
    def test_bulk_load_and_get(self):
        store, _ = make_store(lambda p: BPlusTree(perf=p))
        items = [(i, f"v{i}") for i in range(0, 2000, 2)]
        store.bulk_load(items)
        assert len(store) == 1000
        assert store.get(100) == "v100"
        assert store.get(101) is None

    def test_put_get_update_delete(self):
        store, _ = make_store(lambda p: BPlusTree(perf=p))
        store.bulk_load([(i, i) for i in range(0, 100, 2)])
        store.put(1, "one")
        assert store.get(1) == "one"
        assert store.update(1, "uno") is True
        assert store.get(1) == "uno"
        assert store.update(3, "x") is False
        assert store.delete(1) is True
        assert store.get(1) is None
        assert store.delete(1) is False

    def test_put_with_learned_index(self):
        store, _ = make_store(lambda p: ALEXIndex(segment_size=256, perf=p))
        items = [(i, i * 2) for i in range(0, 4000, 2)]
        store.bulk_load(items)
        rng = random.Random(1)
        for k in rng.sample(range(1, 4000, 2), 500):
            store.put(k, -k)
        for k in rng.sample(range(1, 4000, 2), 500):
            expected = -k if store.index.get(k) is not None else None
        assert store.get(3999) is None or True  # smoke
        for k, v in rng.sample(items, 200):
            assert store.get(k) == v

    def test_scan_through_sorted_index(self):
        store, _ = make_store(lambda p: DynamicPGMIndex(perf=p))
        items = [(i, i * 7) for i in range(0, 1000, 2)]
        store.bulk_load(items)
        got = store.scan(100, 10)
        assert got == [(k, k * 7) for k in range(100, 120, 2)]

    def test_scan_rejected_on_hash_index(self):
        store, _ = make_store(lambda p: CCEH(segment_bits=6, perf=p))
        store.bulk_load([(i, i) for i in range(100)])
        with pytest.raises(UnsupportedOperationError):
            store.scan(0, 10)

    def test_get_charges_nvm_read(self):
        store, perf = make_store(lambda p: BPlusTree(perf=p))
        store.bulk_load([(i, i) for i in range(100)])
        before = perf.counters.nvm_read
        store.get(50)
        assert perf.counters.nvm_read == before + 1

    def test_space_overhead_scenarios(self):
        store, _ = make_store(lambda p: BPlusTree(perf=p))
        store.bulk_load([(i, i) for i in range(1000)])
        overhead = store.space_overhead()
        assert overhead["index"] > 0
        # 16 bytes per resident key slot (key + record pointer), 200-byte
        # values on top of that for the in-memory-database scenario.
        assert overhead["index+key"] >= overhead["index"] + 16_000
        assert overhead["index+kv"] == overhead["index+key"] + 200_000

    @pytest.mark.parametrize("spec", READ_ONLY, ids=lambda s: s.name)
    def test_read_only_store_refuses_delete_like_put(self, spec):
        perf = PerfContext()
        store = ViperStore(spec.build(perf), perf)
        store.bulk_load([(k, k) for k in range(0, 100, 5)])
        with pytest.raises(UnsupportedOperationError):
            store.put(5, "x")
        with pytest.raises(UnsupportedOperationError):
            store.delete(5)
        assert store.get(5) == 5
        assert len(store) == 20


class TestSlotLifecycle:
    """Every freed slot goes straight back to the allocator: an update and
    a delete return their old slot, and recovery rebuilds the free list
    from its scan, so the device grows only with the live keys."""

    @staticmethod
    def _updated_alex_store(batch):
        """16,000 keys on 1,000 pages, then 1,600 random updates."""
        perf = PerfContext()
        store = ViperStore(ALEXIndex(perf=perf), perf)
        store.bulk_load([(k, k) for k in range(16_000)])
        rng = random.Random(1)
        keys = [rng.randrange(16_000) for _ in range(1_600)]
        for lo in range(0, len(keys), batch):
            if batch == 1:
                store.put(keys[lo], -keys[lo])
            else:
                store.put_many([(k, -k) for k in keys[lo : lo + batch]])
        return store, perf

    @pytest.mark.parametrize("batch", [1, 16])
    def test_updates_reuse_their_slots(self, batch):
        store, _ = self._updated_alex_store(batch)
        # An update that leaked its old slot grew this store to 1,100.
        assert store.device.page_count <= 1_001
        assert len(store) == 16_000

    def test_recovery_frees_every_empty_and_torn_slot(self):
        store, perf = self._updated_alex_store(1)
        for k in range(0, 1_600, 16):
            assert store.delete(k)
        store.crash_during_put(5, "torn")
        pages = store.device.page_count
        store.recover(lambda: ALEXIndex(perf=perf))
        slots = store.device.scan_slots()
        free = [(page, slot) for page, slot, rec in slots if rec is None]
        assert sorted(store._free_slots) == free
        assert len(free) == pages * store.device.slots_per_page - len(store)
        assert store.device.page_count == pages  # recovery allocated none
        # Neither do the puts that fill every free slot.
        for k in range(10**6, 10**6 + len(free)):
            store.put(k, k)
        assert store.device.page_count == pages
        assert store.get(5) == 5


class TestCrashRecovery:
    def test_crash_blocks_operations(self):
        store, _ = make_store(lambda p: BPlusTree(perf=p))
        store.bulk_load([(1, "a")])
        store.crash()
        with pytest.raises(CrashedError):
            store.get(1)
        with pytest.raises(CrashedError):
            store.put(2, "b")

    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: BPlusTree(perf=p),
            lambda p: RMIIndex(perf=p),
            lambda p: DynamicPGMIndex(perf=p),
            lambda p: ALEXIndex(segment_size=256, perf=p),
        ],
    )
    def test_recovery_restores_committed_state(self, factory):
        perf = PerfContext()
        store = ViperStore(BPlusTree(perf=perf), perf)
        items = [(i, i * 3) for i in range(0, 3000, 2)]
        store.bulk_load(items)
        oracle = dict(items)
        rng = random.Random(4)
        for k in rng.sample(range(1, 3000, 2), 300):
            store.put(k, -k)
            oracle[k] = -k
        for k in rng.sample(range(0, 3000, 2), 100):
            store.put(k, "updated")
            oracle[k] = "updated"

        store.crash()
        elapsed = store.recover(lambda: factory(perf))
        assert elapsed > 0
        assert len(store) == len(oracle)
        for k in rng.sample(sorted(oracle), 500):
            assert store.get(k) == oracle[k]

    def test_recovery_charges_nvm_scan(self):
        perf = PerfContext()
        store = ViperStore(BPlusTree(perf=perf), perf)
        store.bulk_load([(i, i) for i in range(1000)])
        store.crash()
        before = perf.counters.nvm_read
        store.recover(lambda: BPlusTree(perf=perf))
        # The scan is charged at streaming bandwidth: one read per
        # SEQ_BLOCKS_PER_READ blocks.
        from repro.store.pmem import PMemDevice

        expected = 1000 // PMemDevice.SEQ_BLOCKS_PER_READ
        assert perf.counters.nvm_read - before >= expected

    def test_store_usable_after_recovery(self):
        perf = PerfContext()
        store = ViperStore(BPlusTree(perf=perf), perf)
        store.bulk_load([(i, i) for i in range(0, 100, 2)])
        store.crash()
        store.recover(lambda: BPlusTree(perf=perf))
        store.put(1, "post-recovery")
        assert store.get(1) == "post-recovery"


class TestRefusedKeys:
    """A key outside uint64 is refused at the store boundary before a
    slot is allocated, so a refused call leaves the device as it was and
    recovery rebuilds exactly the acknowledged writes."""

    @staticmethod
    def _device_state(store):
        return (
            len(store),
            list(store.device.scan_slots()),
            store.device.used_bytes(),
        )

    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_refused_writes_persist_nothing(self, spec):
        perf = PerfContext()
        store = ViperStore(spec.build(perf), perf)
        acked = {k: k for k in range(0, 3000, 3)}
        store.bulk_load(sorted(acked.items()))
        store.put(1, "one")
        store.put_many([(2, "two"), (4, "four")])
        acked.update({1: "one", 2: "two", 4: "four"})
        before = self._device_state(store)

        for key in REFUSED_KEYS:
            with pytest.raises(InvalidKeysError):
                store.put(key, "refused")
        with pytest.raises(InvalidKeysError):
            store.put_many([(5, "five"), (5.5, "refused"), (7, "seven")])
        assert self._device_state(store) == before

        store.crash()
        store.recover(lambda: spec.build(perf))
        keys = sorted(acked)
        assert len(store) == len(acked)
        assert store.get_many(keys) == [acked[k] for k in keys]

    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_refused_bulk_load_persists_nothing(self, spec):
        perf = PerfContext()
        store = ViperStore(spec.build(perf), perf)
        before = self._device_state(store)
        with pytest.raises(InvalidKeysError):
            store.bulk_load([(1, 1), (2, 2), (2**64, 3)])
        assert self._device_state(store) == before
