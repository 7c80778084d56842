"""Determinism: identical runs must produce identical simulated numbers.

The whole methodology rests on the simulated clock being a pure function
of the operation stream — no wall-clock, no unseeded randomness.  These
tests run complete experiments twice and require bit-identical results.
"""

import pytest

from repro import (
    ALEXIndex,
    CCEH,
    DynamicPGMIndex,
    LIPPIndex,
    PerfContext,
    SkipList,
    ViperStore,
)
from repro.bench import run_store_ops
from repro.workloads import YCSB_A, generate_operations, osm_keys, ycsb_keys
from repro.workloads.ycsb import split_load_and_inserts


def run_experiment(factory):
    keys = ycsb_keys(8000, seed=3)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=3)
    ops = generate_operations(YCSB_A, 3000, load, inserts, seed=3)
    perf = PerfContext()
    store = ViperStore(factory(perf), perf)
    store.bulk_load([(k, k) for k in load])
    recorder, bytes_per_op = run_store_ops(store, ops, perf)
    return (
        recorder.total_time_ns(),
        recorder.p999(),
        bytes_per_op,
        perf.counters.as_dict(),
    )


@pytest.mark.parametrize(
    "factory",
    [
        lambda p: ALEXIndex(perf=p),
        lambda p: DynamicPGMIndex(perf=p),
        lambda p: LIPPIndex(perf=p),
        lambda p: SkipList(perf=p),  # seeded RNG must make this exact too
        lambda p: CCEH(segment_bits=8, perf=p),
    ],
)
def test_end_to_end_runs_are_bit_identical(factory):
    assert run_experiment(factory) == run_experiment(factory)


def test_datasets_are_deterministic_across_calls():
    assert ycsb_keys(5000, seed=9) == ycsb_keys(5000, seed=9)
    assert osm_keys(5000, seed=9) == osm_keys(5000, seed=9)


def test_workloads_are_deterministic():
    keys = ycsb_keys(2000, seed=1)
    a = generate_operations(YCSB_A, 1000, keys, seed=5)
    b = generate_operations(YCSB_A, 1000, keys, seed=5)
    assert a == b


# ------------------------------------------------- concurrency simulator

def _sim_run(keep_schedule=True):
    from repro.concurrency import ConcurrencySpec, OpProfile, make_streams, simulate

    spec = ConcurrencySpec(
        scheme="fine_grained_latch", latch_domains=16, retrain_blocking=True
    )
    profile = OpProfile(
        mean_ns=700.0, p999_ns=2500.0, bytes_per_op=300.0,
        retrain_every=120, retrain_stall_ns=9000.0,
    )
    streams = make_streams(6, 500, 0.4, seed=17)
    result = simulate(
        spec, profile, streams, seed=17, keep_schedule=keep_schedule
    )
    return result


def test_simulator_runs_are_bit_identical():
    """Same seed + op streams => identical event schedule, wait totals,
    and final clock — the contract the Figs 12/14 projections rest on."""
    a = _sim_run()
    b = _sim_run()
    assert a.schedule == b.schedule
    assert a.latch_wait_ns == b.latch_wait_ns
    assert a.retrain_stall_ns == b.retrain_stall_ns
    assert a.makespan_ns == b.makespan_ns
    assert a.throughput_mops == b.throughput_mops
    assert a.counters.as_dict() == b.counters.as_dict()
    assert (a.retries, a.retrain_stalls) == (b.retries, b.retrain_stalls)


def test_simulator_streams_are_deterministic():
    from repro.concurrency import make_streams

    assert make_streams(4, 200, 0.3, seed=2) == make_streams(4, 200, 0.3, seed=2)
    assert make_streams(4, 200, 0.3, seed=2) != make_streams(4, 200, 0.3, seed=3)


def test_sharded_store_clock_is_deterministic():
    from repro import PerfContext
    from repro.concurrency import parallel_sharded_store

    def once():
        keys = ycsb_keys(4000, seed=6)
        perf = PerfContext()
        with parallel_sharded_store(
            "btree", 4, perf=perf, transport="loopback"
        ) as store:
            store.bulk_load([(k, k) for k in keys])
            for k in keys[:500]:
                store.get(k)
            return (
                perf.elapsed_ns(),
                tuple(store.worker_ops),
                perf.counters.as_dict(),
            )

    assert once() == once()
