"""Store crash differential: a ViperStore over every updatable spec against
a dict, with slot reuse on and crash points drawn at random.

A seeded stream of ``put``, ``put_many`` (with in-batch duplicates),
``delete`` and ``scan`` runs against the store and the dict.  Between
operations the stream crashes the store in one of three ways, then
recovers it:

- ``crash()``: between two acknowledged operations;
- ``crash_during_put``: a torn record that must never surface;
- an interrupted put: its record is written and the index repointed, but
  the old record is not yet freed, so the device holds two valid records
  of one key.  The put was never acknowledged, so the key may read its
  old or its new value; one more update and a second crash must then
  read that update, which holds only if recovery freed the extra record
  (slots are reused, so address order is not write order).

After every recovery the store must equal the dict exactly: every key's
value, ``len`` and the sorted scan; recovery must allocate no page, put
every slot without a live record on the free list, and count only the
live records as used device bytes.  An update-only
phase at the end must grow the device by at most one page: every freed
slot is reused.
"""

import random

import pytest

from repro.core.interfaces import SortedIndex
from repro.perf import PerfContext
from repro.registry import specs
from repro.store import ViperStore

UPDATABLE = [s for s in specs() if s.build().capabilities().updatable]
LOADED = 400
UNIVERSE = 600
OPS = 300
#: No batch is larger than a page, so an update-only phase needs at most
#: one page beyond the live records.
MAX_BATCH = 16


def _interrupted_put(store, key, value):
    """A put cut off between its index repoint and its free of the old
    record, driven through the store's allocator, device and index."""
    page, slot = store._allocate_slot()
    store.device.write_record(page, slot, key, value)
    store.index.upsert(key, (page, slot))
    store.crash()


class _Run:
    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = random.Random(seed)
        self.perf = PerfContext()
        self.store = ViperStore(spec.build(self.perf), self.perf)
        self.universe = list(range(10, 10 * UNIVERSE, 10))
        load = sorted(self.rng.sample(self.universe, LOADED))
        self.oracle = {k: ("load", k) for k in load}
        self.store.bulk_load(sorted(self.oracle.items()))
        self.sorted = isinstance(self.store.index, SortedIndex)
        self.step = 0

    def value(self):
        self.step += 1
        return ("v", self.step)

    def recover(self):
        store = self.store
        pages = store.device.page_count
        store.recover(lambda: self.spec.build(self.perf))
        # Recovery allocates no page: every slot is live or free.
        assert store.device.page_count == pages
        spp = store.device.slots_per_page
        assert len(store._free_slots) == pages * spp - len(store)
        # Only the live records count as used: a torn one is cleared.
        assert store.device.used_bytes() == len(store) * store.device.record_bytes

    def check(self):
        store, oracle = self.store, self.oracle
        assert len(store) == len(oracle)
        assert store.get_many(self.universe) == [
            oracle.get(k) for k in self.universe
        ]
        if self.sorted:
            assert store.scan(0, len(oracle) + 1) == sorted(oracle.items())

    def put(self):
        key, value = self.rng.choice(self.universe), self.value()
        self.store.put(key, value)
        self.oracle[key] = value

    def put_many(self, keys=None):
        keys = keys or self.universe
        batch = [
            (self.rng.choice(keys), self.value())
            for _ in range(self.rng.randint(1, MAX_BATCH - 1))
        ]
        batch.insert(self.rng.randrange(len(batch) + 1), (batch[0][0], "dup"))
        self.store.put_many(batch)
        self.oracle.update(batch)

    def delete(self):
        key = self.rng.choice(self.universe)
        assert self.store.delete(key) == (key in self.oracle)
        self.oracle.pop(key, None)

    def scan(self):
        if not self.sorted:
            return
        start = self.rng.randrange(-5, 10 * UNIVERSE)
        count = self.rng.randint(0, 20)
        want = sorted((k, v) for k, v in self.oracle.items() if k >= start)
        assert self.store.scan(start, count) == want[:count]

    def crash(self):
        kind = self.rng.choice(("crash", "torn", "interrupted"))
        if kind == "crash":
            self.store.crash()
            self.recover()
        elif kind == "torn":
            self.store.crash_during_put(self.rng.choice(self.universe), "torn")
            self.recover()
        else:
            self.interrupted()
        self.check()

    def interrupted(self):
        key = self.rng.choice(sorted(self.oracle) or self.universe)
        old, new = self.oracle.get(key), self.value()
        _interrupted_put(self.store, key, new)
        self.recover()
        assert self.store.get(key) in (old, new)
        self.oracle[key] = self.store.get(key)
        if self.oracle[key] is None:
            del self.oracle[key]
        self.check()
        value = self.value()
        self.store.put(key, value)
        self.oracle[key] = value
        self.store.crash()
        self.recover()
        assert self.store.get(key) == self.oracle[key]

    def run(self):
        ops = (self.put, self.put_many, self.delete, self.scan, self.crash)
        weights = (35, 20, 20, 15, 10)
        for _ in range(OPS):
            self.rng.choices(ops, weights)[0]()
        self.check()

    def update_only(self):
        pages = self.store.device.page_count
        present = sorted(self.oracle)
        for _ in range(OPS // 2):
            if self.rng.random() < 0.5:
                key, value = self.rng.choice(present), self.value()
                self.store.put(key, value)
                self.oracle[key] = value
            else:
                self.put_many(present)
        assert self.store.device.page_count <= pages + 1
        self.store.crash()
        self.recover()
        self.check()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
def test_store_recovers_exactly_the_acknowledged_state(spec, seed):
    run = _Run(spec, seed)
    run.run()
    run.update_only()
