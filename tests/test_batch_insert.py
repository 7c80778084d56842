"""Contract tests for the batch write APIs and the numpy gapped leaf.

Three guarantees pinned here:

1. ``insert_many`` / ``ViperStore.put_many`` are observably equivalent to
   the per-key write loop for *every* registry index — same lookups, same
   lengths, same scans, same device occupancy — on batches mixing fresh
   keys, upserts, and in-batch duplicates (where the last write wins).
2. ``GappedLeaf``'s numpy slot array is **bit-identical** to the
   list-backed oracle (``tests/oracles/gapped_list.py``): same insert
   results, same per-operation event charges, same slot layout, same
   retrain trigger points.  Unlike the batch APIs (whose event bills are
   coarse aggregates — see ``docs/performance.md``) this is a storage swap
   under an unchanged algorithm, so exact parity is the contract.
3. The bulk NVM primitives (``allocate_slots``/``write_records``) produce
   the same addresses and charge totals as the sequential walk they
   replace.
"""

import random

import pytest

from repro.bench.runner import IndexAdapter, execute_ops
from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.base import InsertResult
from repro.core.insertion.gapped import GappedLeaf
from repro.core.interfaces import SortedIndex
from repro.errors import UnsupportedOperationError
from repro.perf.context import PerfContext
from repro.registry import has_native_batch_insert, resolve, specs
from repro.store.pmem import PMemDevice
from repro.store.viper import ViperStore
from repro.workloads import generate_operations, osm_keys, ycsb_keys
from repro.workloads.ycsb import WorkloadSpec
from tests.oracles.gapped_list import ListGappedLeaf

SPECS = list(specs())
UPDATABLE = [s for s in SPECS if s.build().capabilities().updatable]
READ_ONLY = [s for s in SPECS if not s.build().capabilities().updatable]

N_KEYS = 2_000


def _load_items(rng):
    keys = sorted(rng.sample(range(1, 2**48), N_KEYS))
    return [(k, k * 3) for k in keys]


def _write_batch(load_keys, rng):
    """Fresh keys + upserts of loaded keys + in-batch duplicates, shuffled.

    Duplicate occurrences carry distinct values so last-write-wins
    violations cannot cancel out.
    """
    key_set = set(load_keys)
    fresh = [
        k for k in rng.sample(range(1, 2**48), 500) if k not in key_set
    ][:250]
    existing = rng.sample(load_keys, 120)
    batch = [(k, k * 7) for k in fresh] + [(k, -k) for k in existing]
    rng.shuffle(batch)
    for k in rng.sample(fresh, 40) + rng.sample(existing, 10):
        batch.append((k, k ^ 0xBEEF))  # duplicates appended last: they win
    return batch


def _probe_keys(load_keys, batch, rng):
    batch_keys = [k for k, _ in batch]
    absent = [k + 1 for k in rng.sample(batch_keys, 50)]
    return batch_keys + rng.sample(load_keys, 100) + absent


class TestInsertManyContract:
    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_matches_sequential_inserts(self, spec):
        rng = random.Random(31)
        items = _load_items(rng)
        load_keys = [k for k, _ in items]
        batch = _write_batch(load_keys, rng)

        seq = spec.build()
        seq.bulk_load(items)
        bat = spec.build()
        bat.bulk_load(items)

        for key, value in batch:
            seq.insert(key, value)
        bat.insert_many(batch)

        assert len(bat) == len(seq)
        probes = _probe_keys(load_keys, batch, rng)
        assert bat.get_many(probes) == seq.get_many(probes)
        if isinstance(seq, SortedIndex):
            lo, hi = load_keys[10], load_keys[-10]
            assert list(bat.range(lo, hi)) == list(seq.range(lo, hi))

    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_empty_batch_is_a_noop(self, spec):
        index = spec.build()
        index.bulk_load([(1, 1), (2, 2)])
        index.insert_many([])
        assert len(index) == 2

    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_in_batch_duplicate_last_write_wins(self, spec):
        index = spec.build()
        index.bulk_load([(10, 10), (20, 20)])
        index.insert_many([(15, 1), (15, 2), (10, 5), (15, 3), (10, 6)])
        assert index.get(15) == 3
        assert index.get(10) == 6
        assert len(index) == 3

    @pytest.mark.parametrize("spec", READ_ONLY, ids=lambda s: s.name)
    def test_read_only_indexes_refuse(self, spec):
        index = spec.build()
        index.bulk_load([(1, 1), (2, 2)])
        with pytest.raises(UnsupportedOperationError):
            index.insert_many([(3, 3)])


def test_has_native_batch_insert_classifies_fast_paths():
    flagged = {
        spec.name for spec in SPECS if has_native_batch_insert(spec.build())
    }
    # The bulk write paths must be recognised as native...
    assert {"PGM", "BTree", "ALEX"} <= flagged
    # ...and an index using the per-key fallback must not be.
    assert "Skiplist" not in flagged


class TestUpsertManyContract:
    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_matches_sequential_upserts(self, spec):
        """Old values and final state equal the per-key upsert loop —
        including in-batch duplicates, where the second occurrence must
        see the first occurrence's value as its "old"."""
        rng = random.Random(59)
        items = _load_items(rng)
        load_keys = [k for k, _ in items]
        batch = _write_batch(load_keys, rng)

        seq = spec.build()
        seq.bulk_load(items)
        bat = spec.build()
        bat.bulk_load(items)

        expected = [seq.upsert(key, value) for key, value in batch]
        assert bat.upsert_many(batch) == expected
        assert len(bat) == len(seq)
        probes = _probe_keys(load_keys, batch, rng)
        assert bat.get_many(probes) == seq.get_many(probes)


class TestPutManyContract:
    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_matches_sequential_puts(self, spec):
        rng = random.Random(47)
        items = _load_items(rng)
        load_keys = [k for k, _ in items]
        batch = _write_batch(load_keys, rng)

        perf_a = PerfContext()
        seq = ViperStore(spec.build(perf_a), perf_a)
        seq.bulk_load(items)
        perf_b = PerfContext()
        bat = ViperStore(spec.build(perf_b), perf_b)
        bat.bulk_load(items)

        for key, value in batch:
            seq.put(key, value)
        bat.put_many(batch)

        assert len(bat) == len(seq)
        # Stale records freed on both sides: live NVM footprint matches.
        assert bat.device.used_bytes() == seq.device.used_bytes()
        probes = _probe_keys(load_keys, batch, rng)
        assert bat.get_many(probes) == seq.get_many(probes)
        if isinstance(seq.index, SortedIndex):
            assert bat.scan(load_keys[5], 200) == seq.scan(load_keys[5], 200)

    def test_empty_batch_is_a_noop(self):
        perf = PerfContext()
        store = ViperStore(resolve("btree").build(perf), perf)
        store.bulk_load([(1, 1)])
        before = perf.counters.copy()
        store.put_many([])
        assert len(store) == 1
        assert perf.counters == before

    def test_put_single_probe_beats_get_plus_insert(self):
        """Satellite fix: ``put`` descends once, not get-then-insert twice."""
        perf = PerfContext()
        store = ViperStore(resolve("btree").build(perf), perf)
        store.bulk_load([(k, k) for k in range(0, 4_000, 2)])
        before = perf.counters.copy()
        store.put(2_000, -1)  # overwrite an existing key
        hops = perf.counters.delta(before).dram_hop
        before = perf.counters.copy()
        store.get(2_000)
        get_hops = perf.counters.delta(before).dram_hop
        assert hops < 2 * get_hops


class TestUpsert:
    @pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
    def test_returns_previous_value(self, spec):
        index = spec.build()
        index.bulk_load([(10, "a"), (20, "b")])
        assert index.upsert(10, "c") == "a"
        assert index.upsert(15, "d") is None
        assert index.get(10) == "c"
        assert index.get(15) == "d"
        assert len(index) == 3


# ---------------------------------------------------------------- gapped leaf


def _leaf_pair(keys, density=0.6, upper_density=0.85):
    """The list-backed oracle and the numpy leaf over the same segment."""
    segment = GappedSegment(keys[0], 0, list(keys), density)
    values = [k * 2 for k in keys]
    perf_s = PerfContext()
    scalar = ListGappedLeaf(segment, list(values), perf_s, upper_density)
    perf_v = PerfContext()
    vector = GappedLeaf(segment, list(values), perf_v, upper_density)
    return scalar, perf_s, vector, perf_v


def _assert_same(scalar, perf_s, vector, perf_v, where):
    """Full counters, move EMA, slot layout and items all agree."""
    assert perf_s.counters == perf_v.counters, f"charges diverged {where}"
    assert scalar._move_ema == vector._move_ema, f"move EMA diverged {where}"
    assert scalar.slot_layout() == vector.slot_layout(), f"layout {where}"
    assert scalar.items() == vector.items(), f"items diverged {where}"
    assert (scalar.n, scalar.first_key) == (vector.n, vector.first_key)


def _realistic_keys(dataset, n=2_500):
    maker = {"ycsb": ycsb_keys, "osm": osm_keys}[dataset]
    return sorted(set(maker(n, seed=21)))


class TestGappedLeafEquivalence:
    """The numpy leaf must be *bit-identical* to the list-backed oracle."""

    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    def test_inserts_charge_identically_until_full(self, dataset):
        keys = _realistic_keys(dataset)
        scalar, perf_s, vector, perf_v = _leaf_pair(keys)
        _assert_same(scalar, perf_s, vector, perf_v, "at construction")
        rng = random.Random(77)
        key_set = set(keys)
        news = [k for k in rng.sample(range(1, 2**48), 4_000) if k not in key_set]
        full_at = None
        for i, k in enumerate(news):
            rs = scalar.insert(k, k)
            rv = vector.insert(k, k)
            assert rs is rv, f"diverged at insert {i}"
            _assert_same(scalar, perf_s, vector, perf_v, f"at insert {i}")
            if rs is InsertResult.FULL:
                full_at = i
                break
        assert full_at is not None, "workload never filled the leaf"
        assert scalar.density() == vector.density()

    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    def test_mixed_ops_identical(self, dataset):
        keys = _realistic_keys(dataset, n=1_200)
        scalar, perf_s, vector, perf_v = _leaf_pair(keys, density=0.5)
        rng = random.Random(78)
        key_set = set(keys)
        fresh = [k for k in rng.sample(range(1, 2**48), 600) if k not in key_set]
        ops = (
            [("insert", k) for k in fresh[:200]]
            + [("upsert", k) for k in rng.sample(keys, 150)]
            + [("delete", k) for k in rng.sample(keys, 100)]
            + [("get", k) for k in rng.sample(keys + fresh[:200], 200)]
        )
        rng.shuffle(ops)
        for i, (op, k) in enumerate(ops):
            if op == "insert":
                out_s = scalar.insert(k, -k)
                out_v = vector.insert(k, -k)
            elif op == "upsert":
                out_s = scalar.upsert(k, k + 1)
                out_v = vector.upsert(k, k + 1)
            elif op == "delete":
                out_s = scalar.delete(k)
                out_v = vector.delete(k)
            else:
                out_s = scalar.get(k)
                out_v = vector.get(k)
            assert out_s == out_v, f"{op} diverged at op {i}"
            _assert_same(scalar, perf_s, vector, perf_v, f"at {op} {i}")

    def test_long_gap_runs_identical(self):
        """Ops inside gap runs far longer than a backward scan's first
        window: the runs free slot 0 and the last slot, and a live key
        sits on both edges of the middle one."""
        keys = _realistic_keys("ycsb", n=12_000)
        scalar, perf_s, vector, perf_v = _leaf_pair(keys)
        runs = [(0, 100), (3_000, 1_000), (len(keys) - 5_000, 5_000)]
        for start, length in runs:
            run = keys[start : start + length]
            # Alternate keys first, so most deletes meet a short gap and
            # the list oracle's slot walks stay cheap.
            for k in run[::2] + run[1::2]:
                assert scalar.delete(k) is vector.delete(k) is True
            _assert_same(scalar, perf_s, vector, perf_v, f"after run {length}")
        probes = [0, keys[-1] + 1]  # at slot 0 and at the last slot
        for start, length in runs:
            mid = start + length // 2
            probes += keys[max(start - 1, 0) : start + 1]  # left edge
            probes += [keys[mid], (keys[mid] + keys[mid + 1]) // 2]
            probes += keys[start + length - 1 : start + length + 1]  # right
        for k in probes:
            for op, args in (
                ("get", (k,)),
                ("insert", (k, -k)),
                ("upsert", (k, k + 1)),
                ("delete", (k,)),
            ):
                out_s = getattr(scalar, op)(*args)
                assert getattr(vector, op)(*args) == out_s, f"{op} {k}"
                _assert_same(scalar, perf_s, vector, perf_v, f"at {op} {k}")

    def test_get_many_matches_scalar_loop(self):
        keys = _realistic_keys("ycsb", n=1_500)
        _, _, vector, _ = _leaf_pair(keys, density=0.5)
        rng = random.Random(79)
        batch = [k + rng.choice((0, 1)) for k in rng.choices(keys, k=500)]
        assert vector.get_many(batch) == [vector.get(k) for k in batch]

    def test_overdense_segment_rejected(self):
        """Satellite: a leaf born over its density limit must refuse."""
        from repro.errors import InvalidConfigurationError

        keys = list(range(0, 200, 2))
        segment = GappedSegment(keys[0], 0, keys, density=0.99)
        values = [k * 2 for k in keys]
        with pytest.raises(InvalidConfigurationError):
            GappedLeaf(segment, values, PerfContext(), upper_density=0.5)


# ------------------------------------------------------------------ NVM bulk


class TestBulkNVMPrimitives:
    def test_allocate_slots_matches_sequential_walk(self):
        perf_a = PerfContext()
        seq_dev = PMemDevice(slots_per_page=16, perf=perf_a)
        perf_b = PerfContext()
        bulk_dev = PMemDevice(slots_per_page=16, perf=perf_b)
        n = 53
        seq_addrs = []
        page, slot = seq_dev.allocate_page(), 0
        for i in range(n):
            if slot >= seq_dev.slots_per_page:
                page, slot = seq_dev.allocate_page(), 0
            seq_addrs.append((page, slot))
            slot += 1
        bulk_addrs = bulk_dev.allocate_slots(n)
        assert bulk_addrs == seq_addrs
        assert perf_a.counters == perf_b.counters
        assert bulk_dev.page_count == seq_dev.page_count

    def test_write_records_matches_sequential_writes(self):
        perf_a = PerfContext()
        seq_dev = PMemDevice(slots_per_page=8, perf=perf_a)
        perf_b = PerfContext()
        bulk_dev = PMemDevice(slots_per_page=8, perf=perf_b)
        addrs_a = seq_dev.allocate_slots(20)
        addrs_b = bulk_dev.allocate_slots(20)
        for (p, s), i in zip(addrs_a, range(20)):
            seq_dev.write_record(p, s, i, -i)
        bulk_dev.write_records(addrs_b, [(i, -i) for i in range(20)])
        assert perf_a.counters == perf_b.counters
        assert bulk_dev.used_bytes() == seq_dev.used_bytes()
        for (p, s), i in zip(addrs_b, range(20)):
            assert bulk_dev.read_record(p, s) == (i, -i)

    def test_store_allocator_reuses_freed_slots_first(self):
        perf = PerfContext()
        store = ViperStore(resolve("btree").build(perf), perf)
        store.bulk_load([(k, k) for k in range(0, 100, 2)])
        store.delete(10)
        store.delete(20)
        freed = list(store._free_slots)
        addrs = store._allocate_slots(5)
        # LIFO drain of the free list, then fresh cursor slots.
        assert addrs[: len(freed)] == list(reversed(freed))
        assert len(set(addrs)) == 5


# ------------------------------------------------------------- harness wiring


def test_execute_ops_batches_writes_equivalently():
    mixed = WorkloadSpec("rw-mix", read=0.4, update=0.3, insert=0.3)
    rng = random.Random(5)
    load = sorted(rng.sample(range(1, 2**40), 1_000))
    inserts = [k for k in range(2**41, 2**41 + 2_000) ]
    ops = generate_operations(mixed, 1_500, load, inserts, seed=5)

    def run(batch_size):
        index = resolve("btree").build()
        index.bulk_load([(k, k) for k in load])
        perf = PerfContext()
        result = execute_ops(IndexAdapter(index), ops, perf, batch_size=batch_size)
        return index, result

    scalar_index, scalar_result = run(1)
    batched_index, batched_result = run(16)
    # One weighted record per batched call keeps each kind's count the
    # op count...
    assert set(batched_result.by_kind) == set(scalar_result.by_kind)
    for kind, hist in scalar_result.by_kind.items():
        assert len(batched_result.by_kind[kind]) == len(hist)
    assert sum(map(len, batched_result.by_kind.values())) == len(ops)
    assert len(batched_result.latency) == len(ops)
    # ...and the target ends in the same observable state.
    probes = [op.key for op in ops]
    assert batched_index.get_many(probes) == scalar_index.get_many(probes)
    assert len(batched_index) == len(scalar_index)
