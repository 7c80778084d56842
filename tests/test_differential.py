"""Seeded differential test: every registry spec against a dict.

Each updatable spec runs a random mix of scalar and batch operations
(``insert``, ``upsert``, ``update``, ``insert_many`` and ``upsert_many``
with in-batch duplicates, ``delete``, ``get``, ``get_many``,
``scan_many`` with counts from -1 to 20) from three starting states:
empty, one key, and a ~3,000-key bulk load holding both ends of the key
space (0 and 2^64-1).  Answers (every old value an upsert returns, and
``update``'s bool) and ``len`` are checked against the dict after every
operation.  Hash specs skip scans; read-only specs run ``bulk_load``,
``get_many`` and ``scan_many`` only.

Keys are drawn where bugs live: live keys, recently deleted keys, two
dense ranges, the whole key space and its ends.  One dense range sits at
2^60, where a float64 cannot tell adjacent keys apart.  A delete removes
a run of consecutive live keys, so leaves lose their first keys and
empty out.
"""

import bisect
import random

import pytest

from repro.perf.context import PerfContext
from repro.registry import specs

U64_MAX = 2**64 - 1
EDGES = (0, 1, U64_MAX - 1, U64_MAX)
#: Bases of the dense key ranges ``[base, base + 4096)``.
DENSE = (0, 2**60)
OPS = 300
SPECS = list(specs())
UPDATABLE = [s for s in SPECS if s.build().capabilities().updatable]
READ_ONLY = [s for s in SPECS if not s.build().capabilities().updatable]


class _Model:
    """The dict oracle, its sorted keys, and the keys deleted lately."""

    def __init__(self, rng, items):
        self.rng = rng
        self.data = dict(items)
        self.sorted = sorted(self.data)
        self.gone = []

    def put(self, key, value):
        """Store ``value`` under ``key``; returns the value it replaced."""
        if key not in self.data:
            bisect.insort(self.sorted, key)
        old = self.data.get(key)
        self.data[key] = value
        return old

    def pop(self, key):
        if key not in self.data:
            return False
        del self.data[key]
        self.sorted.pop(bisect.bisect_left(self.sorted, key))
        self.gone.append(key)
        return True

    def scan(self, start, count):
        if count <= 0:  # sorted[i : i + count] is not empty at i = 0
            return []
        i = bisect.bisect_left(self.sorted, start)
        return [(k, self.data[k]) for k in self.sorted[i : i + count]]

    def probe(self):
        r = self.rng.random()
        if self.sorted and r < 0.45:
            return self.rng.choice(self.sorted)
        if self.gone and r < 0.65:
            return self.rng.choice(self.gone[-64:])
        return _fresh(self.rng)

    def probes(self, most):
        return [self.probe() for _ in range(self.rng.randint(1, most))]


def _fresh(rng):
    r = rng.random()
    if r < 0.6:
        return rng.choice(DENSE) + rng.randrange(0, 4096)
    if r < 0.9:
        return rng.randrange(0, 2**64)
    return rng.choice(EDGES)


def _start(rng, start):
    if start == "empty":
        return []
    if start == "one":
        return [(_fresh(rng), -1)]
    keys = set(rng.sample(range(1, 4096), 1_000))
    keys.update(DENSE[1] + k for k in rng.sample(range(4096), 1_000))
    keys.update(rng.randrange(1, U64_MAX) for _ in range(1_000))
    keys.update((0, U64_MAX))
    return [(k, -k) for k in sorted(keys)]


def _build(spec, start):
    rng = random.Random(f"{spec.name}/{start}")
    index = spec.build(PerfContext())
    items = _start(rng, start)
    index.bulk_load(items)
    model = _Model(rng, items)
    assert len(index) == len(model.data)
    return rng, index, model


@pytest.mark.parametrize("start", ["empty", "one", "bulk"])
@pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
def test_updatable_spec_matches_dict(spec, start):
    rng, index, model = _build(spec, start)
    kinds = [
        "insert", "insert_many", "upsert", "upsert_many", "update",
        "delete", "get", "get_many",
    ]
    if index.capabilities().sorted_order:
        kinds.append("scan_many")
    for step in range(OPS):
        kind = rng.choice(kinds)
        where = f"{kind} at op {step}"
        if kind == "insert":
            key = model.probe()
            index.insert(key, step)
            model.put(key, step)
        elif kind == "upsert":
            key = model.probe()
            assert index.upsert(key, step) == model.put(key, step), f"{where}: {key}"
        elif kind in ("insert_many", "upsert_many"):
            batch = [(k, step * 1_000 + j) for j, k in enumerate(model.probes(200))]
            batch += [(k, v + 1) for k, v in rng.sample(batch, len(batch) // 8)]
            if kind == "insert_many":
                index.insert_many(batch)
                for key, value in batch:
                    model.put(key, value)
            else:
                # An in-batch repeat's old value is its predecessor's value.
                olds = index.upsert_many(batch)
                assert olds == [model.put(k, v) for k, v in batch], where
        elif kind == "update":
            key = model.probe()
            present = key in model.data
            assert index.update(key, step) is present, f"{where}: {key}"
            if present:
                model.put(key, step)
        elif kind == "delete":
            if model.sorted and rng.random() < 0.7:
                i = rng.randrange(len(model.sorted))
                run = model.sorted[i : i + rng.randint(1, 16)]
            else:
                run = [model.probe()]
            for key in run:
                assert index.delete(key) is model.pop(key), f"{where}: {key}"
        elif kind == "get":
            key = model.probe()
            assert index.get(key) == model.data.get(key), f"{where}: {key}"
        elif kind == "get_many":
            batch = model.probes(64)
            assert index.get_many(batch) == [model.data.get(k) for k in batch], where
        else:
            starts, count = model.probes(8), rng.randint(-1, 20)
            assert index.scan_many(starts, count) == [
                model.scan(s, count) for s in starts
            ], where
        assert len(index) == len(model.data), where


@pytest.mark.parametrize("start", ["empty", "one", "bulk"])
@pytest.mark.parametrize("spec", READ_ONLY, ids=lambda s: s.name)
def test_read_only_spec_matches_dict(spec, start):
    rng, index, model = _build(spec, start)
    for _ in range(20):
        batch = model.probes(64)
        assert index.get_many(batch) == [model.data.get(k) for k in batch]
        starts, count = model.probes(8), rng.randint(-1, 20)
        assert index.scan_many(starts, count) == [
            model.scan(s, count) for s in starts
        ]
