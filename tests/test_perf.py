"""Tests for the performance-simulation substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import (
    BandwidthModel,
    CostModel,
    Counters,
    Event,
    PerfContext,
)
from repro.perf.cost_model import EVENT_BYTES, bytes_touched


class TestCounters:
    def test_starts_at_zero(self):
        c = Counters()
        assert c.total() == 0

    def test_delta(self):
        perf = PerfContext()
        mark = perf.begin()
        perf.charge(Event.COMPARE, 3)
        perf.charge(Event.DRAM_HOP)
        op = perf.end(mark)
        assert op.counters.compare == 3
        assert op.counters.dram_hop == 1
        assert op.counters.nvm_read == 0

    def test_nested_measurements(self):
        perf = PerfContext()
        outer = perf.begin()
        perf.charge(Event.COMPARE)
        inner = perf.begin()
        perf.charge(Event.COMPARE)
        inner_op = perf.end(inner)
        outer_op = perf.end(outer)
        assert inner_op.counters.compare == 1
        assert outer_op.counters.compare == 2

    def test_add_and_copy(self):
        a = Counters()
        a.compare = 5
        b = a.copy()
        b.add(a)
        assert b.compare == 10
        assert a.compare == 5


class TestCostModel:
    def test_time_is_weighted_sum(self):
        cm = CostModel()
        c = Counters()
        c.dram_hop = 2
        c.compare = 10
        assert cm.time_ns(c) == pytest.approx(
            2 * cm.dram_hop_ns + 10 * cm.compare_ns
        )

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_monotonic_in_events(self, hops, extra):
        cm = CostModel()
        a = Counters()
        a.dram_hop = hops
        b = Counters()
        b.dram_hop = hops + extra
        assert cm.time_ns(b) >= cm.time_ns(a)

    def test_nvm_slower_than_dram(self):
        cm = CostModel()
        assert cm.nvm_read_ns > cm.dram_hop_ns

    def test_scaled(self):
        cm = CostModel().scaled(2.0)
        assert cm.dram_hop_ns == pytest.approx(180.0)

    def test_bytes_touched(self):
        c = Counters()
        c.nvm_read = 2
        c.dram_hop = 1
        assert bytes_touched(c) == 2 * EVENT_BYTES[Event.NVM_READ] + 64


class TestBandwidthModel:
    def test_no_slowdown_below_peak(self):
        bw = BandwidthModel(peak_gbps=40.0)
        assert bw.slowdown(1, bytes_per_op=100, base_ns=1000) == 1.0

    @given(st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_slowdown_monotonic_and_at_least_one(self, threads):
        bw = BandwidthModel(peak_gbps=10.0)
        s1 = bw.slowdown(threads, bytes_per_op=600, base_ns=100)
        s2 = bw.slowdown(threads + 1, bytes_per_op=600, base_ns=100)
        assert 1.0 <= s1 <= s2

    def test_throughput_saturates(self):
        bw = BandwidthModel(peak_gbps=5.0)
        t8 = bw.throughput_mops(8, bytes_per_op=600, base_ns=100)
        t32 = bw.throughput_mops(32, bytes_per_op=600, base_ns=100)
        # Past saturation, adding threads gains (almost) nothing.
        assert t32 <= t8 * 1.05

    def test_light_workload_scales_linearly(self):
        bw = BandwidthModel(peak_gbps=1000.0)
        t1 = bw.throughput_mops(1, bytes_per_op=64, base_ns=200)
        t16 = bw.throughput_mops(16, bytes_per_op=64, base_ns=200)
        assert t16 == pytest.approx(16 * t1)

    def test_tail_inflates_under_saturation(self):
        bw = BandwidthModel(peak_gbps=2.0)
        base_tail = 500.0
        quiet = bw.tail_latency_ns(1, 64, 200, base_tail)
        loud = bw.tail_latency_ns(64, 640, 200, base_tail)
        assert quiet == base_tail
        assert loud > base_tail

    def test_invalid_inputs(self):
        bw = BandwidthModel()
        with pytest.raises(ValueError):
            bw.slowdown(0, 100, 100)
        with pytest.raises(ValueError):
            bw.slowdown(1, 100, 0)
