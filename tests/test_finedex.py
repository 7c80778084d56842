"""Tests for FINEdex and the fine-grained level-bin insertion strategy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FINEdexIndex, PerfContext
from repro.core.approximation.lsa import fit_least_squares
from repro.core.approximation.base import LinearModel
from repro.core.insertion import InsertResult
from repro.core.insertion.fine_bins import FineBinLeaf
from repro.errors import InvalidConfigurationError


def make_leaf(keys, bin_capacity=8, max_bin_fraction=1.0, perf=None):
    perf = perf or PerfContext()
    slope, intercept = fit_least_squares(keys, keys[0])
    model = LinearModel(slope, intercept, keys[0])
    return FineBinLeaf(
        keys, [k * 2 for k in keys], model, 8, bin_capacity,
        max_bin_fraction, perf,
    )


class TestFineBinLeaf:
    def test_get_from_main_and_bins(self):
        leaf = make_leaf(list(range(0, 100, 10)))
        assert leaf.get(50) == 100
        leaf.insert(55, "binned")
        assert leaf.get(55) == "binned"
        assert leaf.get(56) is None

    def test_one_bin_per_position(self):
        leaf = make_leaf(list(range(0, 100, 10)), bin_capacity=4)
        for k in (51, 52, 53, 54):
            assert leaf.insert(k, k) is InsertResult.INSERTED
        assert leaf.insert(56, 56) is InsertResult.FULL  # bin at pos full
        assert leaf.insert(61, 61) is InsertResult.INSERTED  # other bin fine

    def test_items_globally_sorted(self):
        rng = random.Random(1)
        base = sorted(rng.sample(range(0, 10**6, 2), 300))
        leaf = make_leaf(base, bin_capacity=64, max_bin_fraction=4.0)
        for k in rng.sample(range(1, 10**6, 2), 200):
            assert leaf.insert(k, k) is not InsertResult.FULL
        keys = [k for k, _ in leaf.items()]
        assert keys == sorted(keys)
        assert len(keys) == 500

    def test_delete_from_bin_and_main(self):
        leaf = make_leaf(list(range(0, 100, 10)))
        leaf.insert(55, 55)
        assert leaf.delete(55) is True
        assert leaf.get(55) is None
        assert leaf.delete(50) is True
        assert leaf.get(50) is None
        assert leaf.delete(50) is False
        keys = [k for k, _ in leaf.items()]
        assert keys == sorted(keys)

    def test_delete_main_merges_flanking_bins(self):
        leaf = make_leaf([10, 20, 30])
        leaf.insert(15, 15)  # bin before 20
        leaf.insert(25, 25)  # bin after 20
        assert leaf.delete(20) is True
        # Both binned keys must survive the merge.
        assert leaf.get(15) == 15
        assert leaf.get(25) == 25
        keys = [k for k, _ in leaf.items()]
        assert keys == [10, 15, 25, 30]

    def test_total_bin_budget_enforced(self):
        leaf = make_leaf(list(range(0, 40, 4)), bin_capacity=64,
                         max_bin_fraction=0.5)
        inserted = 0
        for k in range(1, 200, 2):
            if leaf.insert(k, k) is InsertResult.FULL:
                break
            inserted += 1
        assert inserted <= 10 * 0.5 + 1

    def test_bad_config(self):
        with pytest.raises(InvalidConfigurationError):
            make_leaf([1, 2, 3], bin_capacity=0)
        with pytest.raises(InvalidConfigurationError):
            make_leaf([1, 2, 3], max_bin_fraction=0.0)


class TestFINEdexIndex:
    def test_mixed_oracle(self):
        rng = random.Random(2)
        keys = sorted(rng.sample(range(10**9), 3000))
        idx = FINEdexIndex(perf=PerfContext())
        idx.bulk_load([(k, k) for k in keys])
        oracle = {k: k for k in keys}
        for _ in range(4000):
            k = rng.randrange(10**9)
            if rng.random() < 0.5:
                idx.insert(k, k + 1)
                oracle[k] = k + 1
            else:
                assert idx.get(k) == oracle.get(k)
        assert len(idx) == len(oracle)

    def test_retrains_are_fine_grained(self):
        """A full bin retrains one leaf, not the index: leaf count and
        retrain volume stay small relative to the data."""
        rng = random.Random(3)
        keys = sorted(rng.sample(range(10**9), 5000))
        idx = FINEdexIndex(bin_capacity=4, perf=PerfContext())
        idx.bulk_load([(k, k) for k in keys])
        for k in rng.sample(range(10**9), 5000):
            idx.insert(k, k)
        stats = idx.stats()
        assert stats.retrain_count > 0
        # Each retrain touched roughly one leaf's worth of keys.
        avg_retrained = stats.retrain_keys / stats.retrain_count
        assert avg_retrained < len(idx) / 2

    def test_deleting_every_key_drops_the_emptied_leaves(self):
        """An emptied leaf has no first key; deleting its last key must
        still drop it and its fence."""
        idx = FINEdexIndex(perf=PerfContext())
        idx.bulk_load([(k, k) for k in range(10, 51, 10)])
        for k in range(10, 51, 10):
            assert idx.delete(k)
        assert len(idx) == 0
        assert idx.leaves == []
        assert idx.scan(0, 3) == []
        idx.insert(7, "x")
        assert idx.scan(0, 3) == [(7, "x")]

    def test_capabilities(self):
        caps = FINEdexIndex.capabilities()
        assert caps.concurrent_write is True
        assert caps.bounded_error is True

    @given(
        st.lists(st.integers(0, 10**7), min_size=2, max_size=250, unique=True),
        st.lists(st.integers(0, 10**7), max_size=150),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_oracle(self, base, extra):
        idx = FINEdexIndex(bin_capacity=4, perf=PerfContext())
        idx.bulk_load([(k, k) for k in sorted(base)])
        oracle = {k: k for k in base}
        for k in extra:
            idx.insert(k, k - 1)
            oracle[k] = k - 1
        for k in list(oracle)[:80]:
            assert idx.get(k) == oracle[k]
        got = list(idx.range(0, 10**7))
        assert got == sorted(oracle.items())
