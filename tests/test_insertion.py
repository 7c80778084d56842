"""Tests for leaf insertion strategies (paper dimension #3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion import (
    BufferedLeaf,
    GappedLeaf,
    InplaceLeaf,
    InsertResult,
)
from repro.core.insertion.base import rank_search
from repro.core.insertion.strategies import fit_dense_model
from repro.perf import PerfContext


def make_inplace(keys, reserve=64, perf=None):
    perf = perf or PerfContext()
    model, max_err = fit_dense_model(keys)
    values = [k * 2 for k in keys]
    return InplaceLeaf(keys, values, model, max_err, reserve, perf)


def make_buffered(keys, capacity=64, perf=None):
    perf = perf or PerfContext()
    model, max_err = fit_dense_model(keys)
    values = [k * 2 for k in keys]
    return BufferedLeaf(keys, values, model, max_err, capacity, perf)


def make_gapped(keys, cap=None, perf=None, density=None, upper_density=0.8):
    """``cap`` mirrors the reserve/buffer parameter of the other makers:
    it sizes the gap headroom so roughly ``cap`` inserts fit."""
    perf = perf or PerfContext()
    if density is None:
        if cap is None:
            density = 0.5
        else:
            density = max(0.05, len(keys) / (len(keys) + cap))
            upper_density = 0.95
    segment = GappedSegment(keys[0], 0, keys, density)
    values = [k * 2 for k in keys]
    return GappedLeaf(segment, values, perf, upper_density)


LEAF_MAKERS = [make_inplace, make_buffered, make_gapped]


class TestRankSearch:
    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=200, unique=True).map(
            sorted
        ),
        st.integers(0, 10**6),
        st.integers(-3, 205),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_scan(self, keys, probe, guess):
        perf = PerfContext()
        got = rank_search(keys, 0, len(keys) - 1, probe, guess, perf)
        expected = -1
        for i, k in enumerate(keys):
            if k <= probe:
                expected = i
        assert got == expected


class TestLeafBasics:
    @pytest.mark.parametrize("make", LEAF_MAKERS)
    def test_bulk_loaded_keys_found(self, make):
        rng = random.Random(1)
        keys = sorted(rng.sample(range(10**9), 500))
        leaf = make(keys)
        for k in keys:
            assert leaf.get(k) == k * 2
        for k in rng.sample(range(10**9), 100):
            if k not in set(keys):
                assert leaf.get(k) is None

    @pytest.mark.parametrize("make", LEAF_MAKERS)
    def test_insert_then_get(self, make):
        rng = random.Random(2)
        keys = sorted(rng.sample(range(0, 10**9, 2), 200))
        leaf = make(keys)
        news = rng.sample(range(1, 10**9, 2), 30)
        for k in news:
            assert leaf.insert(k, -k) is InsertResult.INSERTED
        for k in news:
            assert leaf.get(k) == -k
        for k in keys:
            assert leaf.get(k) == k * 2

    @pytest.mark.parametrize("make", LEAF_MAKERS)
    def test_insert_existing_updates(self, make):
        keys = list(range(0, 1000, 10))
        leaf = make(keys)
        assert leaf.insert(500, "new") is InsertResult.UPDATED
        assert leaf.get(500) == "new"
        assert leaf.n == len(keys)

    @pytest.mark.parametrize("make", LEAF_MAKERS)
    def test_items_sorted_and_complete(self, make):
        rng = random.Random(3)
        keys = sorted(rng.sample(range(0, 10**8, 2), 300))
        leaf = make(keys)
        extra = rng.sample(range(1, 10**8, 2), 40)
        for k in extra:
            leaf.insert(k, -k)
        items = leaf.items()
        got_keys = [k for k, _ in items]
        assert got_keys == sorted(set(keys) | set(extra))

    @pytest.mark.parametrize("make", LEAF_MAKERS)
    def test_insert_below_first_key(self, make):
        leaf = make(list(range(100, 200)))
        assert leaf.insert(5, "low") is InsertResult.INSERTED
        assert leaf.get(5) == "low"
        assert leaf.first_key == 5

    def test_buffered_first_key_once_main_run_is_deleted(self):
        leaf = make_buffered([10, 20])
        leaf.insert(15, "buf")
        assert leaf.delete(10) and leaf.delete(20)
        assert leaf.first_key == 15  # only the buffer is left
        assert leaf.get(15) == "buf" and leaf.get(10) is None
        assert leaf.insert(12, "b2") is InsertResult.INSERTED
        assert leaf.delete(12)
        assert leaf.delete(15) and leaf.n == 0
        assert leaf.first_key == 10  # emptied: the build-time first key

    @pytest.mark.parametrize("make", LEAF_MAKERS)
    def test_eventually_full(self, make):
        leaf = make(list(range(0, 64, 2)), 8)  # tiny reserve/buffer
        result = None
        for k in range(1, 1000, 2):
            result = leaf.insert(k, k)
            if result is InsertResult.FULL:
                break
        assert result is InsertResult.FULL


class TestLeafOracle:
    """Randomized operation sequences checked against a dict oracle."""

    @pytest.mark.parametrize("make", LEAF_MAKERS)
    @given(ops=st.lists(st.tuples(st.integers(0, 500), st.booleans()), max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_against_oracle(self, make, ops):
        base = list(range(0, 1001, 50))
        leaf = make(base, 2048)  # big reserve so FULL never fires here
        oracle = {k: k * 2 for k in base}
        for key, is_insert in ops:
            if is_insert:
                result = leaf.insert(key, key + 7)
                assert result is not InsertResult.FULL
                oracle[key] = key + 7
            else:
                assert leaf.get(key) == oracle.get(key)
        assert [k for k, _ in leaf.items()] == sorted(oracle)


class TestInsertionCosts:
    """Fig 18(a)'s cost relationships."""

    def _avg_insert_ns(self, leaf, perf, new_keys):
        mark = perf.begin()
        for k in new_keys:
            leaf.insert(k, k)
        return perf.end(mark).time_ns / len(new_keys)

    def test_gapped_inserts_cheaper_than_inplace(self):
        rng = random.Random(7)
        keys = sorted(rng.sample(range(0, 10**8, 2), 4000))
        news = rng.sample(range(1, 10**8, 2), 500)
        perf_i = PerfContext()
        inplace = make_inplace(keys, reserve=2048, perf=perf_i)
        perf_g = PerfContext()
        gapped = make_gapped(keys, perf=perf_g)
        cost_inplace = self._avg_insert_ns(inplace, perf_i, news)
        cost_gapped = self._avg_insert_ns(gapped, perf_g, news)
        assert cost_gapped < cost_inplace

    def test_inplace_gets_worse_with_bigger_reserve(self):
        """Bigger reserve => longer shifts on average (paper §IV-D)."""
        rng = random.Random(8)
        keys = sorted(rng.sample(range(0, 10**8, 2), 2000))
        costs = []
        for reserve in (128, 1024):
            perf = PerfContext()
            leaf = make_inplace(keys, reserve=reserve, perf=perf)
            news = iter(rng.sample(range(1, 10**8, 2), 10**6))
            inserted = 0
            mark = perf.begin()
            while True:
                k = next(news)
                if leaf.insert(k, k) is InsertResult.FULL:
                    break
                inserted += 1
            costs.append(perf.end(mark).time_ns / inserted)
        assert costs[1] > costs[0]

    def test_key_moves_charged_by_inplace(self):
        perf = PerfContext()
        leaf = make_inplace(list(range(0, 2000, 2)), reserve=64, perf=perf)
        before = perf.counters.key_move
        leaf.insert(999, 1)
        assert perf.counters.key_move > before


class TestGappedLeafInternals:
    def test_density_triggers_full(self):
        leaf = make_gapped(list(range(0, 100, 2)), density=0.7, upper_density=0.8)
        results = []
        for k in range(1, 100, 2):
            results.append(leaf.insert(k, k))
            if results[-1] is InsertResult.FULL:
                break
        assert InsertResult.FULL in results
        assert leaf.density() >= 0.8 - 0.05

    def test_slots_stay_sorted_under_inserts(self):
        rng = random.Random(11)
        leaf = make_gapped(sorted(rng.sample(range(10**6), 200)), density=0.5)
        for k in rng.sample(range(10**6), 50):
            leaf.insert(k, k)
        occupied = [k for k in leaf.slot_layout() if k is not None]
        assert occupied == sorted(occupied)

    def test_gap_insert_is_often_free(self):
        """Most inserts into a fresh gapped leaf move zero keys."""
        rng = random.Random(12)
        keys = sorted(rng.sample(range(0, 10**8, 2), 2000))
        perf = PerfContext()
        leaf = make_gapped(keys, density=0.5, perf=perf)
        news = rng.sample(range(1, 10**8, 2), 200)
        zero_move_inserts = 0
        total_moves = 0
        for k in news:
            before = perf.counters.key_move
            leaf.insert(k, k)
            delta = perf.counters.key_move - before
            total_moves += delta
            if delta == 0:
                zero_move_inserts += 1
        # "There is little or no key movement when inserting a new key":
        # a solid majority of inserts land directly in a gap, and the
        # average displacement stays tiny (vs. ~n/4 for inplace).
        assert zero_move_inserts > len(news) // 2
        assert total_moves / len(news) < 8
