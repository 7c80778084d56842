"""Numerical edge cases: 64-bit extremes, degenerate shapes, precision.

Double-precision arithmetic loses integer exactness above 2^53; every
model works in segment-local coordinates to stay accurate, and these
tests pin that behaviour at the edges of the key space.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ALEXIndex,
    BPlusTree,
    PGMIndex,
    PerfContext,
    RMIIndex,
    ViperStore,
)
from repro.core.approximation import (
    GreedyPLAApproximator,
    LSAApproximator,
    LSAGapApproximator,
    OptPLAApproximator,
)
from repro.core.approximation.lsa import fit_least_squares
from repro.errors import InvalidKeysError, ReproError

U64_MAX = 2**64 - 1


def high_keys(n, seed=0):
    """Keys crowded just below 2^64."""
    rng = random.Random(seed)
    return sorted(rng.sample(range(U64_MAX - 10**9, U64_MAX), n))


class TestHighMagnitudeKeys:
    @pytest.mark.parametrize(
        "approximator",
        [
            LSAApproximator(segment_size=64),
            OptPLAApproximator(eps=8),
            GreedyPLAApproximator(eps=8),
            LSAGapApproximator(segment_size=64),
        ],
    )
    def test_approximators_survive_top_of_keyspace(self, approximator):
        keys = high_keys(2000, seed=1)
        approx = approximator.fit(keys)
        for i in range(0, 2000, 37):
            seg = approx.segment_for(keys[i])
            assert seg.start <= i < seg.start + seg.n

    def test_optpla_bound_holds_at_extremes(self):
        keys = high_keys(3000, seed=2)
        approx = OptPLAApproximator(eps=16).fit(keys)
        assert approx.max_error <= 16

    @pytest.mark.parametrize(
        "factory",
        [
            lambda p: RMIIndex(perf=p),
            lambda p: PGMIndex(perf=p),
            lambda p: ALEXIndex(segment_size=512, perf=p),
            lambda p: BPlusTree(perf=p),
        ],
    )
    def test_indexes_at_keyspace_boundaries(self, factory):
        keys = [0, 1, 2, 2**63, U64_MAX - 2, U64_MAX - 1, U64_MAX]
        idx = factory(PerfContext())
        idx.bulk_load([(k, k) for k in keys])
        for k in keys:
            assert idx.get(k) == k
        assert idx.get(3) is None
        assert idx.get(U64_MAX - 3) is None


class TestDegenerateShapes:
    def test_two_adjacent_keys(self):
        for approximator in (
            OptPLAApproximator(eps=0),
            GreedyPLAApproximator(eps=0),
        ):
            approx = approximator.fit([7, 8])
            assert approx.max_error == 0

    def test_collinear_run_with_one_outlier(self):
        keys = list(range(0, 10_000, 10)) + [2**62]
        approx = OptPLAApproximator(eps=2).fit(keys)
        assert approx.max_error <= 2
        # The collinear prefix must not fragment.
        assert approx.leaf_count <= 3

    def test_giant_gap_between_clusters(self):
        keys = list(range(1000)) + list(range(2**63, 2**63 + 1000))
        approx = OptPLAApproximator(eps=4).fit(keys)
        assert approx.max_error <= 4
        idx = PGMIndex(eps=4, perf=PerfContext())
        idx.bulk_load([(k, k) for k in keys])
        assert idx.get(999) == 999
        assert idx.get(2**63) == 2**63
        assert idx.get(10**6) is None  # inside the gap

    def test_least_squares_on_identical_span(self):
        # Keys so close that float(x) collapses: slope falls back safely.
        base = 2**63
        keys = [base, base + 1]
        slope, intercept = fit_least_squares(keys, base)
        assert slope >= 0.0

    @given(st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_constant_stride_always_one_segment(self, stride):
        keys = list(range(0, 5000 * stride, stride))
        approx = OptPLAApproximator(eps=1).fit(keys)
        assert approx.leaf_count == 1


class TestFitInputValidation:
    """Error-bounded fits reject input their segmentation math cannot model.

    A NaN or an out-of-order key would silently produce a zero/negative
    key delta inside the greedy window (division blow-up) or a
    non-monotone hull in Opt-PLA; both now fail fast with a
    :class:`ReproError` subclass instead.
    """

    APPROXIMATORS = [
        GreedyPLAApproximator(eps=8),
        GreedyPLAApproximator(eps=8, vectorized=False),
        OptPLAApproximator(eps=8),
    ]

    @pytest.mark.parametrize("approximator", APPROXIMATORS)
    def test_nan_rejected(self, approximator):
        keys = [1.0, 2.0, float("nan"), 4.0]
        with pytest.raises(ReproError, match="NaN|ascending"):
            approximator.fit(keys)

    @pytest.mark.parametrize("approximator", APPROXIMATORS)
    def test_unsorted_rejected(self, approximator):
        with pytest.raises(ReproError, match="ascending"):
            approximator.fit([10, 5, 20, 30])

    @pytest.mark.parametrize("approximator", APPROXIMATORS)
    def test_duplicates_rejected(self, approximator):
        with pytest.raises(ReproError, match="ascending"):
            approximator.fit([1, 2, 2, 3])

    @pytest.mark.parametrize("approximator", APPROXIMATORS)
    def test_large_unsorted_rejected(self, approximator):
        # Big enough to hit the numpy validation path, not the scalar one.
        keys = list(range(1, 5000))
        keys[3000], keys[3001] = keys[3001], keys[3000]
        with pytest.raises(ReproError, match="ascending"):
            approximator.fit(keys)

    @pytest.mark.parametrize("approximator", APPROXIMATORS)
    def test_valid_input_still_fits(self, approximator):
        approx = approximator.fit(list(range(0, 1000, 3)))
        assert approx.n_keys == len(range(0, 1000, 3))


class TestPrecisionInvariant:
    @given(
        st.lists(
            st.integers(2**62, U64_MAX), min_size=2, max_size=200, unique=True
        ).map(sorted),
        st.sampled_from([1, 8, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_optpla_bound_is_scale_free(self, keys, eps):
        approx = OptPLAApproximator(eps=eps).fit(keys)
        for i, key in enumerate(keys):
            seg = approx.segment_for(key)
            assert abs(seg.predict(key) - (i - seg.start)) <= eps


class TestOutOfRangeKeys:
    """A key ALEX's uint64 slot array cannot hold fails typed, and the
    index is left exactly as it was."""

    LOADED = [(k, k) for k in range(1000, 200000, 100)]
    CALLS = {
        "insert": lambda t, k: t.insert(k, 5),
        "upsert": lambda t, k: t.upsert(k, 5),
        "insert_many": lambda t, k: t.insert_many([(k, 5)]),
        "put": lambda t, k: t.put(k, 5),
    }

    @pytest.mark.parametrize("bad", [-1, 2**64])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_alex_rejects_before_moving_a_slot(self, call, bad):
        index = ALEXIndex(perf=PerfContext())
        target = ViperStore(index, PerfContext()) if call == "put" else index
        target.bulk_load(self.LOADED)
        with pytest.raises(InvalidKeysError):
            self.CALLS[call](target, bad)
        keys = [k for k, _ in index.scan(0, len(self.LOADED) + 1)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(index) == len(set(keys)) == len(self.LOADED)
        assert len(target) == len(self.LOADED)
