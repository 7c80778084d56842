"""Contract tests for the batch API and the vectorized fit fast paths.

Two guarantees pinned here:

1. ``get_many``/``contains_many`` agree with the per-key ``get`` loop for
   *every* registry index, on sorted, shuffled, duplicate-heavy, absent,
   and empty batches — native fast paths and scalar fallbacks alike.
2. The vectorized approximator fits produce **identical segment
   boundaries** to the scalar implementations on realistic key
   distributions (YCSB, OSM) — the bit-identity claim the fast paths are
   built on.
"""

import random

import pytest

import repro.core.approximation.vectorized as _vec
from repro.core.approximation import (
    GreedyPLAApproximator,
    LSAApproximator,
    LSAGapApproximator,
)
from repro.core.approximation.base import LinearModel
from repro.registry import has_native_batch, specs
from repro.workloads import osm_keys, ycsb_keys

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
    return {
        "sorted": sorted(present),
        "shuffled": rng.sample(present, len(present)),
        "duplicates": present[:40] * 3,
        "absent": absent,
        "mixed": rng.sample(present + absent, len(present) + len(absent)),
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


class TestVectorizedFitIdentity:
    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    @pytest.mark.parametrize("eps", [4, 32])
    def test_greedy_identical_segments_and_models(self, dataset, eps):
        keys = _keysets()[dataset]
        vec = GreedyPLAApproximator(eps=eps, vectorized=True).fit(keys)
        sca = GreedyPLAApproximator(eps=eps, vectorized=False).fit(keys)
        assert _boundaries(vec) == _boundaries(sca)
        for a, b in zip(vec.segments, sca.segments):
            # Greedy's vectorized window math is bit-identical, so the
            # closing slope — not just the boundary — matches exactly.
            assert a.model.slope == b.model.slope
            assert a.max_error == b.max_error
            assert a.avg_error == b.avg_error

    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    def test_lsa_identical_boundaries(self, dataset):
        keys = _keysets()[dataset]
        vec = LSAApproximator(segment_size=256, vectorized=True).fit(keys)
        sca = LSAApproximator(segment_size=256, vectorized=False).fit(keys)
        assert _boundaries(vec) == _boundaries(sca)
        for a, b in zip(vec.segments, sca.segments):
            # Chunked least squares: boundaries exact, coefficients can
            # differ only by pairwise-vs-sequential summation (last ulp).
            assert a.model.slope == pytest.approx(b.model.slope, rel=1e-12)
            assert a.model.intercept == pytest.approx(
                b.model.intercept, rel=1e-12, abs=1e-9
            )

    @pytest.mark.parametrize("dataset", ["ycsb", "osm"])
    def test_lsa_gap_identical_boundaries(self, dataset):
        keys = _keysets()[dataset]
        vec = LSAGapApproximator(segment_size=1024, vectorized=True).fit(keys)
        sca = LSAGapApproximator(segment_size=1024, vectorized=False).fit(keys)
        assert _boundaries(vec) == _boundaries(sca)

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
