"""Contract tests for the batch API and the numpy approximator fits.

Two guarantees pinned here:

1. ``get_many``/``contains_many`` agree with the per-key ``get`` loop for
   *every* registry index, on sorted, shuffled, duplicate-heavy, absent,
   and empty batches, and on a shuffled batch holding every key with
   duplicates and absent keys — native fast paths and scalar fallbacks
   alike.  A ``get_many`` also bills exactly what that loop bills, on
   the bare index, through a ``ViperStore`` and through a 2-shard
   engine, on every spec but ALEX (whose gapped leaf bills a batch in
   aggregate).  A 100K-key ``ComposedIndex`` batch peaks below 100
   bytes a key.
2. The numpy approximator fits agree with their point-by-point
   references on realistic key distributions (YCSB, OSM): Greedy-PLA bit
   for bit with ``tests/oracles/greedy_scalar.py``, LSA with
   ``fit_least_squares`` to the last ulps, and LSA-gap's numpy placement
   with its point-by-point placement slot for slot.
"""

import math
import random
import tracemalloc

import pytest

import repro.core.approximation.vectorized as _vec
from repro.core.approximation import (
    GreedyPLAApproximator,
    LSAApproximator,
    LSAGapApproximator,
)
from repro.core.approximation.base import LinearModel
from repro.core.approximation.lsa import fit_least_squares
from repro.core.approximation.lsa_gap import GappedSegment
from repro.concurrency.parallel import ParallelShardedStore
from repro.perf.context import PerfContext
from repro.registry import has_native_batch, resolve, specs
from repro.store.viper import ViperStore
from repro.workloads import osm_keys, ycsb_keys
from tests.oracles.greedy_scalar import greedy_fit_scalar

SPECS = list(specs())


@pytest.fixture(scope="module")
def loaded_indexes():
    """Every registry index bulk-loaded with the same key set."""
    rng = random.Random(1234)
    keys = sorted(rng.sample(range(1, 2**48), 3000))
    items = [(k, k * 3) for k in keys]
    built = {}
    for spec in SPECS:
        index = spec.build()
        index.bulk_load(items)
        built[spec.name] = index
    return keys, built


def _batches(keys):
    rng = random.Random(99)
    present = rng.sample(keys, 150)
    key_set = set(keys)
    absent = [k for k in (p + 1 for p in present) if k not in key_set][:100]
    every_leaf = keys + absent + present
    return {
        "sorted": sorted(present),
        "shuffled": rng.sample(present, len(present)),
        "duplicates": present[:40] * 3,
        "absent": absent,
        "mixed": rng.sample(present + absent, len(present) + len(absent)),
        "every_leaf": rng.sample(every_leaf, len(every_leaf)),
        "empty": [],
    }


class TestBatchContract:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_get_many_matches_scalar(self, spec, loaded_indexes):
        keys, built = loaded_indexes
        index = built[spec.name]
        for label, batch in _batches(keys).items():
            expected = [index.get(k) for k in batch]
            assert index.get_many(batch) == expected, label

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_contains_many_matches_scalar(self, spec, loaded_indexes):
        keys, built = loaded_indexes
        index = built[spec.name]
        for label, batch in _batches(keys).items():
            expected = [index.get(k) is not None for k in batch]
            assert index.contains_many(batch) == expected, label

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_get_many_after_inserts(self, spec, loaded_indexes):
        """The contract survives mutation (buffers, LSM levels, splits)."""
        keys, built = loaded_indexes
        index = built[spec.name]
        if not index.capabilities().updatable:
            pytest.skip(f"{spec.name} is read-only")
        rng = random.Random(7)
        key_set = set(keys)
        fresh = [k for k in rng.sample(range(1, 2**48), 500) if k not in key_set]
        for k in fresh:
            index.insert(k, -k)
        batch = rng.sample(fresh, 60) + rng.sample(keys, 60) + [keys[0] - 1]
        expected = [index.get(k) for k in batch]
        assert index.get_many(batch) == expected


@pytest.mark.parametrize("name", ["alex", "xindex"])
def test_composed_get_many_converts_one_leaf_run_at_a_time(name):
    """A 100K-key batch becomes Python ints one leaf run at a time.
    Holding the whole sorted batch and its order as Python ints peaks
    near 135 bytes a key."""
    n = 100_000
    rng = random.Random(5)
    keys = sorted(rng.sample(range(1, 2**48), n))
    index = resolve(name).build(PerfContext())
    index.bulk_load([(k, k) for k in keys])
    batch = rng.sample(keys, n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = index.get_many(batch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out == batch
    assert peak / n < 100, f"{peak / n:.1f} bytes per key at peak"


def test_has_native_batch_classifies_fast_paths(loaded_indexes):
    _, built = loaded_indexes
    flagged = {name for name, idx in built.items() if has_native_batch(idx)}
    # The batch fast paths must be recognised as native...
    assert {"PGM", "RS", "BTree"} <= flagged
    # ...and a pure fallback index must not be.
    assert "Skiplist" not in flagged


def _keysets():
    out = {
        "ycsb": sorted(set(ycsb_keys(20_000, seed=3))),
        "osm": sorted(set(osm_keys(20_000, seed=3))),
    }
    return out


def _boundaries(approximation):
    return [(s.start, s.n, s.first_key) for s in approximation.segments]


def _slot_layout(keys, slot_pos, slots):
    """The slot array a placement describes, key-or-None per slot."""
    layout = [None] * slots
    for s, k in zip(slot_pos, keys):
        layout[s] = k
    return layout


class TestVectorizedFitIdentity:
    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    @pytest.mark.parametrize("eps", [4, 32])
    def test_greedy_identical_segments_and_models(self, dataset, eps):
        keys = _keysets()[dataset]
        vec = GreedyPLAApproximator(eps=eps).fit(keys)
        sca = greedy_fit_scalar(keys, eps)
        assert _boundaries(vec) == _boundaries(sca)
        for a, b in zip(vec.segments, sca.segments):
            # The blockwise window math is bit-identical, so the closing
            # slope — not just the boundary — matches exactly.
            assert a.model == b.model
            assert a.max_error == b.max_error
            assert a.avg_error == b.avg_error

    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    def test_lsa_identical_boundaries(self, dataset):
        keys = _keysets()[dataset]
        approx = LSAApproximator(segment_size=256).fit(keys)
        assert [(s.start, s.n) for s in approx.segments] == [
            (start, len(keys[start : start + 256]))
            for start in range(0, len(keys), 256)
        ]
        for seg in approx.segments:
            chunk = keys[seg.start : seg.start + seg.n]
            slope, intercept = fit_least_squares(chunk, chunk[0])
            # Pairwise vs. sequential summation: equal to the last ulps.
            assert seg.model.base_key == chunk[0]
            assert seg.model.slope == pytest.approx(slope, rel=1e-12)
            assert seg.model.intercept == pytest.approx(
                intercept, rel=1e-12, abs=1e-9
            )

    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    def test_lsa_gap_identical_boundaries(self, dataset):
        keys = _keysets()[dataset]
        density = 0.7
        approx = LSAGapApproximator(segment_size=1024, density=density).fit(keys)
        compared = grown = 0
        for seg in approx.segments:
            chunk = keys[seg.start : seg.start + seg.n]
            slots = max(seg.n, math.ceil(seg.n / density))
            grown += seg.slots > slots
            scalar = GappedSegment._place_scalar(chunk, seg.model, slots)
            layout = _slot_layout(chunk, scalar[0], scalar[1])
            # Whichever placement ran, the segment holds the point-by-point
            # layout and errors.
            assert seg.slot_pos.tolist() == scalar[0]
            assert (seg.slot_keys, seg.slots) == (layout, scalar[1])
            assert seg.max_error == scalar[2]
            assert seg.avg_error == scalar[3] / seg.n
            placed = GappedSegment._place_np(_vec.as_u64(chunk), seg.model, slots)
            if placed is not None:
                pos, *rest = placed
                assert (pos.tolist(), *rest) == scalar
                assert _slot_layout(chunk, pos.tolist(), rest[0]) == layout
                compared += 1
        # Every chunk has 1,024 exact keys, so the numpy placement takes
        # each one, including the chunks whose slot array grows.
        assert compared == len(approx.segments)
        assert grown, "no chunk grew its slot array"

    def test_measure_errors_matches_scalar_loop(self):
        rng = random.Random(5)
        keys = sorted(rng.sample(range(10**6, 2**52), 5000))
        model = LinearModel(
            slope=5000 / (keys[-1] - keys[0]), intercept=0.5, base_key=keys[0]
        )
        arr = _vec.as_u64(keys)
        vec_max, vec_sum = _vec.measure_errors(model, arr, len(keys))
        max_err = 0
        sum_err = 0
        for pos, key in enumerate(keys):
            err = abs(model.predict_clamped(key, len(keys)) - pos)
            sum_err += err
            if err > max_err:
                max_err = err
        assert (vec_max, vec_sum) == (max_err, sum_err)

    def test_as_u64_rejects_inexact_input(self):
        assert _vec.as_u64([1.5, 2.5]) is None  # floats: scalar semantics
        assert _vec.as_u64([1, -2]) is None  # negative: would wrap
        assert _vec.as_u64([1, 2**64]) is None  # overflow
        arr = _vec.as_u64([1, 2**63, 2**64 - 1])
        assert arr is not None
        assert [int(v) for v in arr] == [1, 2**63, 2**64 - 1]


# -- one bill per batch read: get_many bills the loop of get -----------------

#: ALEX's gapped leaf prices its batch rank search in aggregate (see
#: ``GappedLeaf.get_many``): its answers are held equal, not its ledger.
AGGREGATE_BILL = {"ALEX"}


def _read_batch(keys, rng):
    """512 keys: present, absent, duplicated, 0, 2^64 - 1, and keys below
    the first and above the last loaded key, shuffled."""
    key_set = set(keys)
    present = rng.sample(keys, 300)
    absent = [k + 1 for k in rng.sample(keys, 150) if k + 1 not in key_set]
    edges = [0, 2**64 - 1, keys[0] - 1, keys[-1] + 1, keys[-1] + 2]
    batch = (present + absent + edges + present)[:512]
    rng.shuffle(batch)
    return batch


def _targets(spec, perf, items):
    index = spec.build(perf)
    index.bulk_load(items)
    yield "index", index
    store = ViperStore(spec.build(perf), perf)
    store.bulk_load(items)
    yield "store", store
    engine = ParallelShardedStore(spec, 2, perf=perf, transport="loopback")
    try:
        engine.bulk_load(items)
        yield "engine", engine
    finally:
        engine.close()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_get_many_bills_the_loop_of_get(spec):
    rng = random.Random(spec.name)
    keys = sorted(rng.sample(range(10**6, 2**62), 4000))
    items = [(k, k) for k in keys]
    batch = _read_batch(keys, rng)
    perf = PerfContext()
    for label, target in _targets(spec, perf, items):
        mark = perf.begin()
        loop = [target.get(k) for k in batch]
        loop_bill = perf.end(mark).counters
        mark = perf.begin()
        many = target.get_many(batch)
        many_bill = perf.end(mark).counters
        assert many == loop, label
        if spec.name not in AGGREGATE_BILL:
            assert many_bill == loop_bill, (label, loop_bill, many_bill)
