"""The discrete-event concurrency simulator: scheme semantics + shapes.

Mechanism-level tests on small synthetic profiles — the paper-shape
claims on *measured* profiles live in ``benchmarks/bench_fig12*`` and
``bench_fig14*``; here we pin what each CC scheme is supposed to do.
"""

import pytest

from repro.concurrency import (
    CC_SCHEMES,
    ConcurrencySpec,
    OpProfile,
    RWLOCK_BOUNCE_NS,
    make_streams,
    retrain_cadence,
    simulate,
    simulate_scaling,
)
from repro.core.interfaces import IndexStats
from repro.errors import InvalidConfigurationError
from repro.obs import EventType, Tracer
from repro.perf import BandwidthModel, CostModel

#: A light profile far from bandwidth saturation, so scheme effects are
#: visible in isolation.
LIGHT = OpProfile(mean_ns=500.0, p999_ns=1000.0, bytes_per_op=64.0)
#: Wide bandwidth so the pool never saturates in these tests.
WIDE_BW = BandwidthModel(peak_gbps=10_000.0)


def run(spec, threads, write_fraction=0.0, profile=LIGHT, **kwargs):
    streams = make_streams(threads, 400, write_fraction, seed=7)
    return simulate(spec, profile, streams, bandwidth=WIDE_BW, seed=7, **kwargs)


class TestSpec:
    def test_scheme_validation(self):
        with pytest.raises(InvalidConfigurationError):
            ConcurrencySpec(scheme="hopeful")
        with pytest.raises(InvalidConfigurationError):
            ConcurrencySpec(latch_domains=0)
        with pytest.raises(InvalidConfigurationError):
            ConcurrencySpec(retry_base=1.5)

    def test_effective_domains(self):
        assert ConcurrencySpec(scheme="global_lock", latch_domains=64
                               ).effective_domains == 1
        assert ConcurrencySpec(scheme="lock_free").effective_domains >= 1024
        assert ConcurrencySpec(scheme="fine_grained_latch", latch_domains=64
                               ).effective_domains == 64

    def test_describe_mentions_scheme_and_blocking(self):
        spec = ConcurrencySpec(
            scheme="fine_grained_latch", latch_domains=8, retrain_blocking=True
        )
        assert "fine_grained_latch[8]" in spec.describe()
        assert "retrain-block" in spec.describe()

    def test_every_scheme_simulates(self):
        for scheme in CC_SCHEMES:
            result = run(ConcurrencySpec(scheme=scheme), 4, 0.5)
            assert result.ops == 4 * 400
            assert result.throughput_mops > 0


class TestSchemeSemantics:
    def test_lock_free_reads_never_wait(self):
        result = run(ConcurrencySpec(scheme="lock_free"), 8, 0.0)
        assert result.latch_wait_ns == 0.0
        assert result.retries == 0
        assert result.counters.latch_acquire == 0

    def test_global_lock_serialises_writers(self):
        spec = ConcurrencySpec(scheme="global_lock")
        t1 = run(spec, 1, 1.0)
        t8 = run(spec, 8, 1.0)
        # All writes fight over one domain: 8 threads gain (almost)
        # nothing over 1.
        assert t8.throughput_mops < t1.throughput_mops * 1.5
        assert t8.latch_wait_ns > 0

    def test_global_lock_readers_pay_the_lock_cacheline(self):
        spec = ConcurrencySpec(scheme="global_lock")
        t1 = run(spec, 1, 0.0)
        t8 = run(spec, 8, 0.0)
        # Read-only still degrades per-op: each read ships the lock word.
        assert t8.mean_ns >= t1.mean_ns + RWLOCK_BOUNCE_NS * 6
        # ... but reads share the lock, so aggregate throughput grows.
        assert t8.throughput_mops > t1.throughput_mops * 4

    def test_more_latch_domains_less_waiting(self):
        few = run(
            ConcurrencySpec(scheme="fine_grained_latch", latch_domains=2),
            8, 1.0,
        )
        many = run(
            ConcurrencySpec(scheme="fine_grained_latch", latch_domains=512),
            8, 1.0,
        )
        assert many.latch_wait_ns < few.latch_wait_ns
        assert many.throughput_mops > few.throughput_mops

    def test_optimistic_reads_retry_only_under_writes(self):
        spec = ConcurrencySpec(scheme="optimistic_read", retry_base=0.5)
        readonly = run(spec, 8, 0.0)
        mixed = run(spec, 8, 0.5)
        assert readonly.retries == 0
        assert mixed.retries > 0
        assert mixed.counters.opt_retry == mixed.retries

    def test_optimistic_retries_need_other_threads(self):
        spec = ConcurrencySpec(scheme="optimistic_read", retry_base=0.5)
        assert run(spec, 1, 0.5).retries == 0

    def test_retrain_blocking_stalls_the_whole_structure(self):
        blocking = ConcurrencySpec(
            scheme="fine_grained_latch", latch_domains=512,
            retrain_blocking=True,
        )
        non_blocking = ConcurrencySpec(
            scheme="fine_grained_latch", latch_domains=512,
        )
        profile = OpProfile(
            mean_ns=500.0, p999_ns=1000.0, bytes_per_op=64.0,
            retrain_every=50, retrain_stall_ns=20_000.0,
        )
        stalled = run(blocking, 8, 1.0, profile=profile)
        free = run(non_blocking, 8, 1.0, profile=profile)
        assert stalled.retrain_stalls > 0
        assert stalled.retrain_stall_ns > 0
        assert free.retrain_stalls == 0
        assert stalled.throughput_mops < free.throughput_mops
        # Amdahl: the blocked structure scales worse than the free one.
        stalled1 = run(blocking, 1, 1.0, profile=profile)
        free1 = run(non_blocking, 1, 1.0, profile=profile)
        assert (
            stalled.throughput_mops / stalled1.throughput_mops
            < free.throughput_mops / free1.throughput_mops
        )

    def test_latency_includes_waits(self):
        result = run(ConcurrencySpec(scheme="global_lock"), 8, 1.0)
        # Mean observed latency must exceed the service mean once waits
        # are charged.
        assert result.mean_ns > LIGHT.mean_ns


class TestTraceIntegration:
    def test_sim_emits_latch_wait_and_retrain_stall(self):
        tracer = Tracer()
        profile = OpProfile(
            mean_ns=500.0, p999_ns=1000.0, bytes_per_op=64.0,
            retrain_every=50, retrain_stall_ns=20_000.0,
        )
        spec = ConcurrencySpec(
            scheme="fine_grained_latch", latch_domains=4,
            retrain_blocking=True,
        )
        streams = make_streams(8, 300, 1.0, seed=3)
        result = simulate(
            spec, profile, streams, bandwidth=WIDE_BW, seed=3,
            tracer=tracer, index_name="XIndex",
        )
        assert tracer.count(EventType.LATCH_WAIT) > 0
        assert tracer.count(EventType.RETRAIN_STALL) >= result.retrain_stalls
        record = next(
            s for s in tracer.spans.spans
            if s.attrs["etype"] == EventType.LATCH_WAIT
        )
        assert record.clock == "sim"
        assert record.attrs["index"] == "XIndex"
        assert record.attrs["cost_ns"] > 0


class TestScaling:
    def test_streams_are_prefix_stable(self):
        big = make_streams(8, 100, 0.5, seed=11)
        small = make_streams(3, 100, 0.5, seed=11)
        assert big[:3] == small

    def test_simulate_scaling_matches_individual_runs(self):
        spec = ConcurrencySpec(scheme="fine_grained_latch", latch_domains=64)
        curve = simulate_scaling(
            spec, LIGHT, (1, 2, 4), write_fraction=0.5,
            ops_per_thread=200, bandwidth=WIDE_BW, seed=5,
        )
        assert [r.threads for r in curve] == [1, 2, 4]
        streams = make_streams(4, 200, 0.5, seed=5)
        solo = simulate(
            spec, LIGHT, streams[:2], bandwidth=WIDE_BW, seed=5
        )
        assert curve[1].makespan_ns == solo.makespan_ns
        assert curve[1].throughput_mops == solo.throughput_mops

    def test_bandwidth_saturation_flattens_any_scheme(self):
        heavy = OpProfile(mean_ns=500.0, p999_ns=1000.0, bytes_per_op=4096.0)
        curve = simulate_scaling(
            ConcurrencySpec(scheme="lock_free"), heavy, (1, 32),
            ops_per_thread=200, seed=5,
        )
        # 32 threads * 4KB / 500ns >> 25 GB/s: scaling must fall well
        # short of linear even with no locks at all.
        assert curve[1].bandwidth_slowdown > 1.0
        assert (
            curve[1].throughput_mops
            < curve[0].throughput_mops * 32 * 0.7
        )

    def test_retrain_cadence_from_stats(self):
        assert retrain_cadence(IndexStats(), 1000) == (0, 0.0)
        assert retrain_cadence(IndexStats(retrain_count=3), 0) == (0, 0.0)
        stats = IndexStats(retrain_count=4, retrain_keys=1000)
        # A retrain every 1000 // 4 ops, each retraining 250 keys.
        key_ns = CostModel().retrain_key_ns
        assert retrain_cadence(stats, 1000) == (250, 250 * key_ns)
        # More retrains than ops still fire on every op.
        assert retrain_cadence(stats, 2)[0] == 1

    def test_empty_and_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate(ConcurrencySpec(), LIGHT, [])
        with pytest.raises(ValueError):
            make_streams(2, 10, 1.5)
        with pytest.raises(ValueError):
            OpProfile(mean_ns=0.0, p999_ns=1.0, bytes_per_op=1.0)


class TestFailureModel:
    """The worker-failure model: fail-recover on the simulated clock."""

    def _fm(self, mtbf_ns=50_000.0, rebuild_ns=20_000.0):
        from repro.concurrency import FailureModel

        return FailureModel(mtbf_ns=mtbf_ns, rebuild_ns=rebuild_ns)

    def test_validation(self):
        from repro.concurrency import FailureModel

        with pytest.raises(ValueError):
            FailureModel(mtbf_ns=0.0)
        with pytest.raises(ValueError):
            FailureModel(mtbf_ns=1.0, rebuild_ns=-1.0)

    def test_baseline_schedule_untouched_without_model(self):
        a = run(ConcurrencySpec(), 4, 0.3)
        b = run(ConcurrencySpec(), 4, 0.3, failure=None)
        assert a.makespan_ns == b.makespan_ns
        assert a.failures == 0 and a.recovery_stall_ns == 0.0

    def test_failures_fire_and_stall(self):
        base = run(ConcurrencySpec(), 4, 0.0)
        failed = run(ConcurrencySpec(), 4, 0.0, failure=self._fm())
        assert failed.failures > 0
        assert failed.recovery_stall_ns > 0.0
        assert failed.makespan_ns > base.makespan_ns
        assert 0.0 < failed.recovery_stall_share < 1.0
        # Throughput strictly degrades under failures.
        assert failed.throughput_mops < base.throughput_mops

    def test_deterministic_given_seed(self):
        a = run(ConcurrencySpec(), 4, 0.2, failure=self._fm())
        b = run(ConcurrencySpec(), 4, 0.2, failure=self._fm())
        assert a.failures == b.failures
        assert a.makespan_ns == b.makespan_ns
        assert a.recovery_stall_ns == b.recovery_stall_ns

    def test_rarer_failures_hurt_less(self):
        often = run(ConcurrencySpec(), 2, 0.0, failure=self._fm(30_000.0))
        rare = run(
            ConcurrencySpec(), 2, 0.0, failure=self._fm(3_000_000.0)
        )
        assert often.failures > rare.failures
        assert often.recovery_stall_ns >= rare.recovery_stall_ns

    def test_restart_events_on_sim_clock(self):
        tracer = Tracer()
        result = run(
            ConcurrencySpec(), 3, 0.0, failure=self._fm(), tracer=tracer
        )
        assert tracer.count(EventType.WORKER_RESTART) == result.failures
        restarts = [
            s.attrs for s in tracer.spans.spans
            if s.attrs["etype"] == EventType.WORKER_RESTART
        ]
        assert restarts
        assert all(0 <= r["leaf"] < 3 for r in restarts)
        assert all(r["cost_ns"] == 20_000.0 for r in restarts)
        assert all(r["sim_ts_ns"] <= result.makespan_ns for r in restarts)

    def test_scaling_passthrough(self):
        curve = simulate_scaling(
            ConcurrencySpec(), LIGHT, (1, 2), ops_per_thread=300,
            seed=7, failure=self._fm(),
        )
        assert all(r.failures > 0 for r in curve)
