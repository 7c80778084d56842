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
from tests.oracles import ledger_by_name as oracle

#: A full ledger of random counts, in event id order.
COUNTS = st.lists(
    st.integers(0, 2**40), min_size=len(Event.NAMES), max_size=len(Event.NAMES)
)
#: One step of a bracketed run: a charge, an opening, or a closing bracket.
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("charge"),
            st.integers(0, len(Event.NAMES) - 1),
            st.integers(0, 2**40),
        ),
        st.just(("begin",)),
        st.just(("end",)),
    ),
    max_size=60,
)


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


class TestLedgerExactness:
    """The flat ledger equals the per-name arithmetic exactly."""

    @given(COUNTS, st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_time_and_bytes_equal_the_per_name_formula(self, counts, factor):
        model = CostModel().scaled(factor)
        named = dict(zip(oracle.NAMES, counts))
        assert model.time_ns(Counters(counts)) == oracle.time_ns(model, named)
        assert bytes_touched(Counters(counts)) == oracle.bytes_touched(named)

    def test_as_dict_keys_are_the_names_in_order(self):
        assert Event.NAMES == oracle.NAMES
        assert tuple(Counters().as_dict()) == oracle.NAMES
        for event, name in enumerate(Event.NAMES):
            c = Counters()
            setattr(c, name, 7)
            assert c.counts[event] == 7 == getattr(c, name)

    @given(STEPS, st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_nested_brackets_return_the_reference_deltas(self, steps, factor):
        perf = PerfContext(CostModel().scaled(factor))
        ref = oracle.NamedLedger()
        open_marks = []
        for step in steps + [("end",)] * len(steps):
            if step[0] == "charge":
                _, event, n = step
                perf.charge(event, n)
                ref.charge(Event.NAMES[event], n)
            elif step[0] == "begin":
                open_marks.append((perf.begin(), ref.begin()))
            elif open_marks:
                mark, ref_mark = open_marks.pop()
                op = perf.end(mark)
                delta = ref.end(ref_mark)
                assert op.counters.as_dict() == delta
                assert op.time_ns == oracle.time_ns(perf.cost_model, delta)
                assert op.bytes == oracle.bytes_touched(delta)
        assert perf.counters.as_dict() == ref.counts


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

    def test_invalid_inputs(self):
        bw = BandwidthModel()
        with pytest.raises(ValueError):
            bw.slowdown(0, 100, 100)
        with pytest.raises(ValueError):
            bw.slowdown(1, 100, 0)
