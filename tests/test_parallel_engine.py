"""The sharded engine must be invisible, like sharding itself.

Contract under test: a :class:`~repro.concurrency.ParallelShardedIndex`
returns bit-identical answers to the flat in-process index for every
registry spec and every worker count, over worker *processes* (shared-
memory transport) and over in-process loopback shards alike — and a
process engine fails loudly (``WorkerDiedError``) instead of hanging
when a worker dies, and leaks no shared-memory segments on close.

Tests that take the ``transport`` fixture run over ``"shm"`` here and
again over ``"loopback"`` in :class:`TestLoopback`; fault, recovery,
shm-unlink and close-escalation tests need real processes.
"""

import os
import signal
import time

import pytest

from repro import PerfContext, ViperStore
from repro.concurrency import (
    FaultPlan,
    ParallelShardedIndex,
    ParallelShardedStore,
    ParallelSortedShardedIndex,
    parallel_sharded_index,
    parallel_sharded_store,
)
from repro.core.interfaces import SortedIndex
from repro.errors import InvalidKeysError, ReproError, WorkerDiedError
from repro.obs import MetricsRegistry, Tracer, event_counts
from repro.registry import specs
from repro.workloads import uniform_keys

WORKER_COUNTS = (1, 2, 4)

N_KEYS = 500
N_EXTRA = 100


def _keys():
    keys = uniform_keys(N_KEYS + N_EXTRA, seed=11)
    return keys[:N_KEYS], keys[N_KEYS:]


def _spec_params():
    return [pytest.param(spec, id=spec.name) for spec in specs()]


@pytest.fixture
def transport():
    """The engine transport under test (``TestLoopback`` overrides it)."""
    return "shm"


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("spec", _spec_params())
def test_engine_matches_flat_index(spec, workers, transport):
    load, extra = _keys()
    items = [(k, k * 3) for k in load]

    flat = spec.build(PerfContext())
    flat.bulk_load(items)
    engine = parallel_sharded_index(spec, workers, transport=transport)
    try:
        engine.bulk_load(items)

        probe = list(load) + list(extra)
        assert engine.get_many(probe) == flat.get_many(probe)
        assert len(engine) == len(flat)

        if flat.capabilities().updatable:
            flat.insert_many([(k, k * 3) for k in extra])
            engine.insert_many([(k, k * 3) for k in extra])
            assert engine.get_many(probe) == flat.get_many(probe)
            for k in load[:10]:
                flat.update(k, k + 1)
                engine.update(k, k + 1)
            assert engine.get_many(load[:10]) == flat.get_many(load[:10])
            for k in load[10:15]:
                assert engine.delete(k) == flat.delete(k)
            assert engine.get_many(load[10:15]) == [None] * 5
            assert len(engine) == len(flat)

        if isinstance(flat, SortedIndex):
            assert isinstance(engine, ParallelSortedShardedIndex)
            start = sorted(load)[len(load) // 3]
            for count in (1, 40, len(load)):
                assert engine.scan(start, count) == flat.scan(start, count)
            assert list(engine.range(start, start + 10**17)) == list(
                flat.range(start, start + 10**17)
            )

        stats = engine.stats()
        assert stats.leaf_count >= min(workers, flat.stats().leaf_count or 1)
    finally:
        engine.close()


@pytest.mark.parametrize("workers", (1, 3))
def test_engine_store_matches_flat_store(workers, transport):
    spec = next(s for s in specs() if s.name == "PGM")
    load, extra = _keys()
    items = [(k, f"v{k}") for k in load]

    flat = ViperStore(spec.build(PerfContext()), PerfContext())
    flat.bulk_load(items)
    engine = parallel_sharded_store(spec, workers, transport=transport)
    try:
        engine.bulk_load(items)
        probe = list(load) + list(extra)
        assert engine.get_many(probe) == flat.get_many(probe)
        for k in extra:
            flat.put(k, f"n{k}")
            engine.put(k, f"n{k}")
        assert engine.get_many(probe) == flat.get_many(probe)
        assert (load[0] in engine) and (extra[0] in engine)
        assert len(engine) == len(flat)
        start = sorted(load)[5]
        assert engine.scan(start, 30) == flat.scan(start, 30)
    finally:
        engine.close()


def test_pipe_transport_matches_shm():
    spec = next(s for s in specs() if s.name == "BTree")
    load, extra = _keys()
    items = [(k, k) for k in load]
    probe = list(load) + list(extra)

    shm_engine = parallel_sharded_index(spec, 2, transport="shm")
    pipe_engine = parallel_sharded_index(spec, 2, transport="pipe")
    try:
        shm_engine.bulk_load(items)
        pipe_engine.bulk_load(items)
        assert shm_engine.get_many(probe) == pipe_engine.get_many(probe)
        # Non-integer values force the pipe fallback inside the shm
        # engine; answers must still agree.
        extras = [(k, f"s{k}") for k in extra]
        shm_engine.upsert_many(extras)
        pipe_engine.upsert_many(extras)
        assert shm_engine.get_many(extra) == pipe_engine.get_many(extra)
    finally:
        shm_engine.close()
        pipe_engine.close()

    # The simulated ledger must not depend on the transport knob: batches
    # above ``capacity`` chunk identically over shared memory and pipe.
    pgm = next(s for s in specs() if s.name == "PGM")
    ledgers = {}
    for transport in ("shm", "pipe"):
        perf = PerfContext()
        engine = parallel_sharded_index(
            pgm, 1, perf=perf, transport=transport, capacity=64
        )
        try:
            engine.bulk_load(items)
            engine.insert_many([(k, k) for k in extra])
            engine.get_many(probe)
        finally:
            engine.close()
        ledgers[transport] = perf.counters.as_dict()
    assert ledgers["shm"] == ledgers["pipe"]


def test_codec_round_trips_every_payload():
    """Lanes carry exactly the uint64 payloads; everything else travels
    as itself, and decoding gives back an identical payload either way."""
    import numpy as np

    from repro.concurrency.parallel import _decode, _encode, _Lanes

    class Seg:  # the three lanes of a capacity-4 segment
        capacity = 4
        keys = np.zeros(4, np.uint64)
        vals = np.zeros(4, np.uint64)
        mask = np.zeros(4, np.uint8)

    in_lanes = [
        [0, 2**64 - 1], [None, 5, None], [(1, 2), (2**63, 0)],
        np.array([7, 3], np.uint64),
    ]
    as_is = [
        [-1], [2**64], [True], [1.5], ["k"], [(1, "v")], [(1, 2, 3)],
        [[(1, 1)]], [], list(range(5)), (1, 2), None, "ready",
    ]
    for seg in (Seg, None):
        for payload in in_lanes + as_is:
            wire = _encode(payload, seg)
            assert isinstance(wire, _Lanes) == (
                seg is not None and any(payload is p for p in in_lanes)
            )
            if isinstance(payload, np.ndarray):
                payload = payload.tolist()
            assert repr(_decode(wire, seg)) == repr(payload)


def test_worker_death_is_surfaced_not_hung():
    spec = next(s for s in specs() if s.name == "BTree")
    load, _ = _keys()
    engine = parallel_sharded_index(spec, 2)
    try:
        engine.bulk_load([(k, k) for k in load])
        victim = engine._handles[1].proc
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5)
        with pytest.raises(WorkerDiedError) as err:
            # Several batches: at least one routes to the dead worker.
            for _ in range(3):
                engine.get_many(load)
        assert "worker 1" in str(err.value)
        # The engine latches broken: no silent half-answers afterwards.
        with pytest.raises(WorkerDiedError):
            engine.get_many(load[:5])
    finally:
        engine.close()  # close after a crash must still succeed


def test_close_unlinks_every_shm_segment():
    shm_mod = pytest.importorskip("multiprocessing.shared_memory")
    spec = next(s for s in specs() if s.name == "BTree")
    load, _ = _keys()
    engine = parallel_sharded_index(spec, 2, transport="shm")
    names = [h.seg.shm.name for h in engine._handles]
    assert len(names) == 2
    engine.bulk_load([(k, k) for k in load])
    engine.get_many(load)
    engine.close()
    engine.close()  # idempotent
    time.sleep(0.05)
    for name in names:
        with pytest.raises(FileNotFoundError):
            shm_mod.SharedMemory(name=name)
    with pytest.raises(ReproError):
        engine.get_many(load[:1])


def test_drain_obs_merges_worker_state_into_parent(transport):
    spec = next(s for s in specs() if s.name == "PGM")
    load, extra = _keys()
    engine = parallel_sharded_index(
        spec, 2, trace_rate=1.0, seed=7, transport=transport
    )
    try:
        engine.bulk_load([(k, k) for k in load])
        engine.get_many(load)
        engine.insert_many([(k, k) for k in extra])

        metrics = MetricsRegistry()
        payloads = engine.drain_obs(metrics=metrics)
        assert len(payloads) == 2
        # Worker-side lifecycle counts land in the parent registry...
        assert sum(event_counts(metrics).values()) > 0
        # ...and command metrics in the parent registry (per-worker
        # labels; each series' count is the commands that worker served).
        served = {
            labels["worker"]: inst.count
            for name, _kind, labels, inst in metrics.collect()
            if name == "repro_worker_cmd_wall_ns"
        }
        assert set(served) == {"0", "1"}
        assert all(n > 0 for n in served.values())
    finally:
        engine.close()

    # Simulated charges flow back continuously (not only at drain time):
    # the engine's own PerfContext saw the workers' counter deltas.
    assert engine.perf.counters.total() > 0


def test_drain_obs_hands_over_each_event_once(transport):
    """A drain takes what the workers collected since the last one: a
    second drain with no work in between changes nothing, and a drain
    after more work adds exactly that work's events — the same totals
    and span ids as one drain at the end."""
    spec = next(s for s in specs() if s.name == "PGM")
    keys = uniform_keys(1_200, seed=11)
    load, first, more = keys[:500], keys[500:600], keys[600:]

    def run(early_drains):
        engine = parallel_sharded_index(
            spec, 2, trace_rate=1.0, span_rate=1.0, seed=7,
            transport=transport,
        )
        metrics = MetricsRegistry()
        try:
            engine.bulk_load([(k, k) for k in load])
            engine.insert_many([(k, k) for k in first])
            for _ in range(early_drains):
                engine.drain_obs(metrics=metrics, spans=engine.spans)
            if early_drains:
                counts = event_counts(metrics)
                assert counts
                ids = [s.span_id for s in engine.spans.spans]
                engine.drain_obs(metrics=metrics, spans=engine.spans)
                assert event_counts(metrics) == counts
                assert [s.span_id for s in engine.spans.spans] == ids
            engine.insert_many([(k, k) for k in more])
            engine.drain_obs(metrics=metrics, spans=engine.spans)
            if early_drains:
                assert event_counts(metrics) != counts  # new events landed
            return event_counts(metrics), [s.span_id for s in engine.spans.spans]
        finally:
            engine.close()

    drained_counts, drained_ids = run(early_drains=2)
    once_counts, once_ids = run(early_drains=0)
    assert len(drained_ids) == len(set(drained_ids))
    assert drained_counts == once_counts
    assert sorted(drained_ids) == sorted(once_ids)


def test_engine_perf_charges_match_in_process_sharding():
    """The simulated cost model must not notice the process boundary:
    worker processes bill exactly what loopback shards bill."""
    spec = next(s for s in specs() if s.name == "PGM")
    load, extra = _keys()
    items = [(k, k) for k in load]
    probe = list(load) + list(extra)

    ledgers = {}
    for transport in ("loopback", "shm"):
        perf = PerfContext()
        with parallel_sharded_index(
            spec, 2, perf=perf, transport=transport
        ) as engine:
            engine.bulk_load(items)
            engine.get_many(probe)
        ledgers[transport] = perf.counters.as_dict()
    assert ledgers["shm"] == ledgers["loopback"]
    assert perf.counters.total() > 0


def test_scan_many_waves_match_in_process_sharding(transport):
    """Spill rounds chunked at a small capacity and shipped to every
    worker at once still answer and bill exactly like one unchunked
    round of in-process shards."""
    spec = next(s for s in specs() if s.name == "PGM")
    load, _ = _keys()
    items = [(k, k) for k in sorted(load)]
    starts = sorted(load)[::7] + [0]
    perf_local, perf_engine = PerfContext(), PerfContext()
    local = parallel_sharded_index(
        spec, 3, perf=perf_local, transport="loopback"
    )
    local.bulk_load(items)
    engine = parallel_sharded_index(
        spec, 3, perf=perf_engine, capacity=8, transport=transport
    )
    try:
        engine.bulk_load(items)
        mark_local, mark_engine = perf_local.begin(), perf_engine.begin()
        assert engine.scan_many(starts, 200) == local.scan_many(starts, 200)
        assert (
            perf_engine.end(mark_engine).counters.as_dict()
            == perf_local.end(mark_local).counters.as_dict()
        )
    finally:
        engine.close()
        local.close()


def test_engine_utilization_and_balance_accounting(transport):
    spec = next(s for s in specs() if s.name == "BTree")
    load, _ = _keys()
    engine = parallel_sharded_index(spec, 2, transport=transport)
    try:
        engine.bulk_load([(k, k) for k in load])
        engine.get_many(load)
        assert sum(engine.worker_ops) == len(load)
        # Scalar ops and scans count too: one per worker a call visits.
        srt = sorted(load)
        engine.get(srt[0])
        engine.get(srt[-1])
        assert sum(engine.worker_ops) == len(load) + 2
        engine.scan(srt[0], 3)
        assert sum(engine.worker_ops) == len(load) + 3
        engine.scan_many([srt[0], srt[-1]], 1)
        assert sum(engine.worker_ops) == len(load) + 5
        shares = engine.worker_utilization()
        assert len(shares) == 2
        assert all(s >= 0.0 for s in shares)
        assert sum(shares) == pytest.approx(1.0)
        assert engine.name.startswith("parallel[")
    finally:
        engine.close()


@pytest.mark.parametrize("name", ("PGM", "ALEX"))
def test_out_of_range_keys_match_sharded_index(name, transport):
    """Keys outside [0, 2^64) route like any other: the engine answers
    exactly like the flat index, or raises the same typed error."""
    spec = next(s for s in specs() if s.name == name)
    load, _ = _keys()
    items = [(k, k) for k in sorted(load)]
    bad = [-1, 2**64]
    probe = bad + sorted(load)[:3] + sorted(load)[-3:]
    local = spec.build(PerfContext())
    local.bulk_load(items)
    engine = parallel_sharded_index(spec, 2, transport=transport)
    try:
        engine.bulk_load(items)
        assert engine.get_many(probe) == local.get_many(probe)
        assert engine.scan_many(probe, 2) == local.scan_many(probe, 2)
        assert [engine.get(k) for k in bad] == [local.get(k) for k in bad]
        writes = [(k, 7) for k in bad]
        try:
            local.insert_many(writes)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                engine.insert_many(writes)
        else:
            engine.insert_many(writes)
        assert engine.get_many(probe) == local.get_many(probe)
        assert len(engine) == len(local)
    finally:
        engine.close()


@pytest.mark.parametrize(
    "spec",
    [s for s in specs() if s.build().capabilities().updatable],
    ids=lambda s: s.name,
)
def test_store_refuses_a_bad_key_before_any_shard_sees_the_call(spec):
    """A store write holding a key outside uint64 is refused whole in the
    caller: no shard applies its part of a refused batch."""
    load, _ = _keys()
    items = [(k, k) for k in sorted(load)]
    first, last = items[0][0], items[-1][0]  # on different shards
    store = parallel_sharded_store(spec, 2, transport="loopback")
    try:
        store.bulk_load(items)
        with pytest.raises(InvalidKeysError):
            store.put_many([(first, "x"), (last, "x"), (5.5, "x")])
        for key in (-1, 5.5, float("nan"), 2**64):
            with pytest.raises(InvalidKeysError):
                store.put(key, "x")
        with pytest.raises(InvalidKeysError):
            store.bulk_load([(1, 1), (2**64, 2)])
        assert len(store) == len(items)
        assert store.get_many([first, last]) == [first, last]
    finally:
        store.close()


def test_bad_configuration_rejected():
    with pytest.raises(ReproError):
        ParallelShardedIndex("pgm", 0)
    with pytest.raises(ReproError):
        ParallelShardedIndex("pgm", 2, transport="carrier-pigeon")
    with pytest.raises(ReproError):
        ParallelShardedStore("no-such-spec", 2)
    # A scripted kill would SIGKILL the caller's own process.
    with pytest.raises(ReproError, match="fault_plan"):
        ParallelShardedStore(
            "pgm", 2, transport="loopback", fault_plan=FaultPlan()
        )


def _walk_to_root(span, by_id):
    while span.parent_id is not None:
        span = by_id[span.parent_id]
    return span


def test_traced_run_attaches_every_worker_event_to_its_request(transport):
    """Acceptance: a traced 2-worker run yields a span tree where every
    worker-side lifecycle event is reachable from an originating
    request span."""
    from repro.obs import children_index, subtree_events

    spec = next(s for s in specs() if s.name == "PGM")
    load, extra = _keys()
    engine = parallel_sharded_index(
        spec, 2, trace_rate=1.0, span_rate=1.0, seed=7, transport=transport
    )
    try:
        engine.bulk_load([(k, k) for k in load])
        engine.get_many(load)
        engine.insert_many([(k, k) for k in extra])
        engine.get(load[0])
        engine.drain_obs(spans=engine.spans)
        spans = list(engine.spans.spans)
    finally:
        engine.close()

    by_id = {s.span_id: s for s in spans}
    kinds = {s.kind for s in spans}
    assert kinds == {"request", "batch", "shard", "worker", "event"}
    events = [s for s in spans if s.kind == "event"]
    assert events, "a traced PGM insert run must emit lifecycle events"
    for ev in events:
        root = _walk_to_root(ev, by_id)
        assert root.kind == "request"
        assert ev.worker >= 0  # events fire inside worker processes

    # The tree is consistent both ways: walking down from the requests
    # reaches exactly the events that walk up to a request.
    index = children_index(spans)
    reachable = sum(
        len(subtree_events(r, index)) for r in spans if r.kind == "request"
    )
    assert reachable == len(events)

    # Worker command spans parent under parent-side shard spans.
    workers = [s for s in spans if s.kind == "worker"]
    assert workers
    assert all(by_id[w.parent_id].kind == "shard" for w in workers)


def test_span_counts_match_untraced_event_counters_at_rate_one(transport):
    """Acceptance: at sample rate 1.0 the event-span population equals
    the exact (pre-sampling) lifecycle counters of an untraced run."""
    spec = next(s for s in specs() if s.name == "PGM")
    load, extra = _keys()

    def run(span_rate):
        engine = parallel_sharded_index(
            spec, 2, trace_rate=1.0, span_rate=span_rate, seed=7,
            transport=transport,
        )
        try:
            engine.bulk_load([(k, k) for k in load])
            engine.get_many(load)
            engine.insert_many([(k, k) for k in extra])
            metrics = MetricsRegistry()
            engine.drain_obs(metrics=metrics, spans=engine.spans)
            spans = list(engine.spans.spans) if engine.spans else []
            return metrics, spans, engine.spans
        finally:
            engine.close()

    _, spans, recorder = run(span_rate=1.0)
    untraced_metrics, _, untraced_recorder = run(span_rate=0.0)
    assert untraced_recorder is None  # rate 0: the no-op fast path

    by_etype = {}
    for s in spans:
        if s.kind == "event":
            etype = s.attrs["etype"]
            by_etype[etype] = by_etype.get(etype, 0) + 1
    assert by_etype == event_counts(untraced_metrics)

    # Every engine API call became exactly one sampled request span.
    api_calls = 3  # bulk_load + get_many + insert_many
    assert recorder.requests == recorder.sampled_requests == api_calls
    assert sum(1 for s in spans if s.kind == "request") == api_calls


def test_partial_span_rate_still_counts_every_request(transport):
    spec = next(s for s in specs() if s.name == "BTree")
    load, _ = _keys()
    engine = parallel_sharded_index(
        spec, 2, span_rate=0.5, seed=3, transport=transport
    )
    try:
        engine.bulk_load([(k, k) for k in load])
        for _ in range(40):
            engine.get_many(load[:20])
        assert engine.spans.requests == 41  # bulk_load + 40 batches
        assert 0 < engine.spans.sampled_requests < 41
    finally:
        engine.close()


def test_worker_death_dumps_flight_recorder():
    """Acceptance: killing a worker mid-run attaches its flight-recorder
    ring to the WorkerDiedError."""
    spec = next(s for s in specs() if s.name == "BTree")
    load, _ = _keys()
    engine = parallel_sharded_index(spec, 2, span_rate=1.0)
    try:
        engine.bulk_load([(k, k) for k in load])
        engine.get_many(load)  # populate worker 1's flight ring
        victim = engine._handles[1].proc
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(5)
        with pytest.raises(WorkerDiedError) as err:
            for _ in range(3):
                engine.get_many(load)
        exc = err.value
        assert exc.worker_id == 1
        assert exc.pid == victim.pid
        assert exc.flight, "the postmortem must carry the flight ring"
        assert {e["status"] for e in exc.flight} <= {"ok", "died"}
        # Span-traced commands carry their span ids into the postmortem.
        assert any(e["span_id"] for e in exc.flight)
        assert "flight recorder (most recent last):" in str(exc)
        assert "while serving 'get_many'" in str(exc)
        assert "#" in str(exc)  # the formatted flight lines
        # The latched engine re-raises the same postmortem.
        with pytest.raises(WorkerDiedError) as again:
            engine.get_many(load[:5])
        assert again.value.flight == exc.flight
    finally:
        engine.close()


def test_health_monitor_tracks_live_engine(transport):
    spec = next(s for s in specs() if s.name == "BTree")
    load, _ = _keys()
    engine = parallel_sharded_index(spec, 2, transport=transport)
    try:
        engine.bulk_load([(k, k) for k in load])
        engine.get_many(load)
        snap = engine.health.snapshot()
        assert [row["worker"] for row in snap] == [0, 1]
        for row in snap:
            assert row["cmds_sent"] == row["cmds_done"] > 0
            assert row["last_reply_age_s"] is not None
            assert row["stalls"] == 0 and not row["stalled"]
        # The engine's busy time is the monitor's summed reply wall ns.
        assert engine.busy_ns == [wh.busy_ns for wh in engine.health.workers]
        assert all(b > 0.0 for b in engine.busy_ns)
        assert engine.health.stalled_workers() == []
        assert all(engine.health.flight(w) for w in range(2))
    finally:
        engine.close()


def test_journal_stays_empty_at_restart_budget_zero(transport):
    """At ``restart_budget=0`` nothing can read the bulk parts or the
    mutation journal, so neither grows with writes."""
    load, extra = _keys()
    engine = parallel_sharded_store("pgm", 2, transport=transport)
    try:
        engine.bulk_load([(k, k) for k in sorted(load)])
        engine.put_many([(k, k + 1) for k in extra])
        engine.put(extra[0], 9)
        assert engine._base_items == [None, None]
        assert engine._journal == [[], []]
    finally:
        engine.close()


def test_loopback_starts_no_process_and_no_segment(capfd):
    """Loopback shards live in the caller: no child process, no shared
    memory, and neither close() nor finalization reports a leak."""
    import gc
    import multiprocessing

    before = multiprocessing.active_children()
    engine = parallel_sharded_index("btree", 3, transport="loopback")
    assert multiprocessing.active_children() == before
    assert [h.seg for h in engine._handles] == [None] * 3
    load, _ = _keys()
    engine.bulk_load([(k, k) for k in sorted(load)])
    engine.close()
    with pytest.raises(ReproError):
        engine.get(load[0])
    dropped = parallel_sharded_store("btree", 2, transport="loopback")
    dropped.bulk_load([(k, k) for k in sorted(load)])
    del dropped  # finalized without close()
    gc.collect()
    assert capfd.readouterr().err == ""


class TestLoopback:
    """The contract tests that need no real process, rerun with every
    shard served in the caller's process (``transport="loopback"``)."""

    @pytest.fixture
    def transport(self):
        return "loopback"

    test_engine_matches_flat_index = staticmethod(
        test_engine_matches_flat_index
    )
    test_engine_store_matches_flat_store = staticmethod(
        test_engine_store_matches_flat_store
    )
    test_drain_obs_merges_worker_state_into_parent = staticmethod(
        test_drain_obs_merges_worker_state_into_parent
    )
    test_drain_obs_hands_over_each_event_once = staticmethod(
        test_drain_obs_hands_over_each_event_once
    )
    test_scan_many_waves_match_in_process_sharding = staticmethod(
        test_scan_many_waves_match_in_process_sharding
    )
    test_engine_utilization_and_balance_accounting = staticmethod(
        test_engine_utilization_and_balance_accounting
    )
    test_out_of_range_keys_match_sharded_index = staticmethod(
        test_out_of_range_keys_match_sharded_index
    )
    test_traced_run_attaches_every_worker_event_to_its_request = (
        staticmethod(
            test_traced_run_attaches_every_worker_event_to_its_request
        )
    )
    test_span_counts_match_untraced_event_counters_at_rate_one = (
        staticmethod(
            test_span_counts_match_untraced_event_counters_at_rate_one
        )
    )
    test_partial_span_rate_still_counts_every_request = staticmethod(
        test_partial_span_rate_still_counts_every_request
    )
    test_health_monitor_tracks_live_engine = staticmethod(
        test_health_monitor_tracks_live_engine
    )
    test_journal_stays_empty_at_restart_budget_zero = staticmethod(
        test_journal_stays_empty_at_restart_budget_zero
    )


# --------------------------------------------------------- fault injection
#
# The supervision layer (repro.concurrency.supervise) converts the
# fail-stop contract above into fail-recover: a killed (or deadline-
# overrunning) worker is respawned, its partition rebuilt from the
# retained recipe + acknowledged-mutation journal, and the in-flight
# command replayed exactly once.  The contract under test: results after
# recovery are bit-identical to a run where nothing failed.

from repro.errors import ShardUnavailableError  # noqa: E402


def _btree():
    return next(s for s in specs() if s.name == "BTree")


def _unfailed_reference(items, probe, writes, scan_start):
    flat = _btree().build(PerfContext())
    flat.bulk_load(items)
    reads = flat.get_many(probe)
    old = [flat.get(k) for k, _ in writes]
    for k, v in writes:
        flat.upsert(k, v)
    after = flat.get_many(probe)
    scan = flat.scan(scan_start, 80)
    # Scan starts spanning both range partitions, so batch scans reach
    # worker 1 (where the faults are scripted).
    srt = sorted(k for k, _ in items)
    starts = [srt[i] for i in (3, 150, 260, 350, 450, 495)]
    scans = [flat.scan(s, 40) for s in starts]
    return {
        "reads": reads, "old": old, "after": after, "scan": scan,
        "scan_starts": starts, "scans": scans,
    }


FAULT_KILL_OPS = {
    "read": "get_many",
    "write": "write_many",
    "scan": "scan_many",
}


@pytest.mark.parametrize("budget", (1, 3))
@pytest.mark.parametrize("degraded", ("fail", "partial"))
@pytest.mark.parametrize("during", sorted(FAULT_KILL_OPS))
def test_kill_matrix_recovers_bit_identical(during, degraded, budget):
    """Kill worker 1 during a read/write/scan; with budget left the
    engine must recover and answer exactly like an unfailed run, in
    both degraded modes (the mode only matters once the budget is
    gone)."""
    load, extra = _keys()
    items = [(k, k * 3) for k in load]
    probe = list(load) + list(extra)
    writes = [(k, k + 7) for k in sorted(load)[::5]]
    scan_start = sorted(load)[3]
    ref = _unfailed_reference(items, probe, writes, scan_start)

    plan = FaultPlan().kill(1, op=FAULT_KILL_OPS[during], nth=1)
    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=budget, degraded=degraded,
        backoff_base_s=0.0, fault_plan=plan,
    )
    try:
        engine.bulk_load(items)
        assert engine.get_many(probe) == ref["reads"]
        assert engine.upsert_many(writes) == ref["old"]
        assert engine.get_many(probe) == ref["after"]
        assert engine.scan(scan_start, 80) == ref["scan"]
        assert engine.scan_many(ref["scan_starts"], 40) == ref["scans"]
        # Exactly one recovery, fully recovered: shard back in service.
        assert engine.supervisor.restarts_used == [0, 1]
        assert engine.availability() == [True, True]
        assert engine.supervisor.last_recovery_s[1] > 0
    finally:
        engine.close()


@pytest.mark.parametrize("during", sorted(FAULT_KILL_OPS))
def test_kill_matrix_budget_zero_fail_mode(during):
    """budget=0 + degraded='fail' is the legacy fail-stop contract."""
    load, extra = _keys()
    items = [(k, k * 3) for k in load]
    plan = FaultPlan().kill(1, op=FAULT_KILL_OPS[during], nth=1)
    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=0, fault_plan=plan
    )
    try:
        engine.bulk_load(items)
        with pytest.raises(WorkerDiedError) as err:
            engine.get_many(list(load) + list(extra))
            engine.upsert_many([(k, k + 7) for k in load])
            srt = sorted(load)
            engine.scan_many([srt[i] for i in (3, 260, 450)], 40)
        assert "worker 1" in str(err.value)
        assert err.value.restarts == 0
        assert err.value.restart_budget == 0
        # Latched broken, like before supervision existed.
        with pytest.raises(WorkerDiedError):
            engine.get_many(load[:5])
    finally:
        engine.close()


def test_kill_budget_zero_partial_mode_serves_survivors():
    load, extra = _keys()
    items = [(k, k * 3) for k in load]
    probe = sorted(load)
    plan = FaultPlan().kill(1, op="get_many", nth=1)
    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=0, degraded="partial", fault_plan=plan
    )
    try:
        engine.bulk_load(items)
        out = engine.get_many(probe)
        assert engine.availability() == [True, False]
        # Worker 0's half is exact; worker 1's half is None holes.
        flat = _btree().build(PerfContext())
        flat.bulk_load(items)
        expected = flat.get_many(probe)
        holes = sum(1 for v in out if v is None)
        assert 0 < holes < len(probe)
        assert all(g == e for g, e in zip(out, expected) if g is not None)
        # Scans spill past the dead shard instead of raising.
        assert engine.scan(probe[0], 10) == flat.scan(probe[0], 10)[:10]
        # Writes into the lost range refuse loudly (surviving shards
        # are still applied before the batch-level error surfaces)...
        with pytest.raises(ShardUnavailableError) as err:
            engine.upsert_many([(k, 1) for k in probe])
        assert err.value.lost_ops > 0
        # ...but the surviving shard keeps taking both reads and writes.
        low = probe[:3]
        engine.upsert_many([(k, 5) for k in low])
        assert engine.get_many(low) == [5, 5, 5]
        # Telemetry: the down transition and the holes are counted.
        metrics = MetricsRegistry()
        engine.drain_obs(metrics=metrics)
        names = {
            name: inst.value
            for name, _k, labels, inst in metrics.collect()
            if name in ("repro_worker_down_total",
                        "repro_shard_unavailable_total")
        }
        assert set(names) == {
            "repro_worker_down_total", "repro_shard_unavailable_total"
        }
        # Engine-side series are handed over once: a second drain with
        # nothing new leaves them unchanged.
        engine.drain_obs(metrics=metrics)
        assert names == {
            name: inst.value
            for name, _k, labels, inst in metrics.collect()
            if name in names
        }
    finally:
        engine.close()


def test_kill_after_apply_replays_exactly_once():
    """The applied-but-unacknowledged write: the worker dies AFTER
    applying the batch but before replying.  The rebuild must discard
    the partial application and the replay must land it exactly once —
    old values and final state bit-identical to an unfailed run."""
    load, _ = _keys()
    items = [(k, k) for k in load]
    writes = [(k, k + 1) for k in sorted(load)]
    flat = _btree().build(PerfContext())
    flat.bulk_load(items)
    expected_old = [flat.get(k) for k, _ in writes]
    for k, v in writes:
        flat.upsert(k, v)

    plan = FaultPlan().kill(1, op="write_many", nth=1, when="after")
    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=1, backoff_base_s=0.0, fault_plan=plan
    )
    try:
        engine.bulk_load(items)
        assert engine.upsert_many(writes) == expected_old
        assert engine.get_many([k for k, _ in writes]) == [
            v for _, v in writes
        ]
        assert len(engine) == len(flat)
        assert engine.supervisor.restarts_used[1] == 1
    finally:
        engine.close()


def test_repeated_kills_walk_the_budget_ladder():
    """Incarnation-pinned directives script two failures of the same
    worker; budget 1 exhausts on the second, budget 3 rides both out."""
    load, _ = _keys()
    items = [(k, k) for k in load]
    probe = sorted(load)
    two_kills = lambda: (  # noqa: E731
        FaultPlan()
        .kill(1, op="get_many", nth=1, incarnation=0)
        .kill(1, op="get_many", nth=1, incarnation=1)
    )

    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=1, backoff_base_s=0.0,
        fault_plan=two_kills(),
    )
    try:
        with pytest.raises(WorkerDiedError) as err:
            engine.bulk_load(items)
            engine.get_many(probe)
        assert err.value.restarts == 1
        assert err.value.restart_budget == 1
        assert "restart budget exhausted (1/1)" in str(err.value)
    finally:
        engine.close()

    flat = _btree().build(PerfContext())
    flat.bulk_load(items)
    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=3, backoff_base_s=0.0,
        fault_plan=two_kills(),
    )
    try:
        engine.bulk_load(items)
        assert engine.get_many(probe) == flat.get_many(probe)
        assert engine.supervisor.restarts_used[1] == 2
    finally:
        engine.close()


def test_drop_reply_hits_deadline_and_recovers():
    """A worker that serves but never replies trips the per-command
    deadline; the parent kills it and routes through the same recovery
    path (flight recorder says 'timeout', not 'died')."""
    load, _ = _keys()
    items = [(k, k) for k in load]
    plan = FaultPlan().drop_reply(1, op="get_many", nth=1)
    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=1, backoff_base_s=0.0,
        worker_timeout_s=0.5, fault_plan=plan,
    )
    try:
        engine.bulk_load(items)
        flat = _btree().build(PerfContext())
        flat.bulk_load(items)
        assert engine.get_many(sorted(load)) == flat.get_many(sorted(load))
        assert engine.supervisor.restarts_used == [0, 1]
        statuses = [e.status for e in engine.health.flight(1)]
        assert "timeout" in statuses
    finally:
        engine.close()


def test_recovery_emits_events_metrics_and_spans():
    load, _ = _keys()
    items = [(k, k) for k in load]
    plan = FaultPlan().kill(1, op="get_many", nth=1)
    engine = parallel_sharded_index(
        _btree(), 2, restart_budget=1, backoff_base_s=0.0,
        span_rate=1.0, fault_plan=plan,
    )
    tracer = Tracer()
    engine.perf.tracer = tracer
    try:
        engine.bulk_load(items)
        engine.get_many(sorted(load))
        assert tracer.count("worker_restart") == 1
        assert tracer.count("worker_recovered") == 1
        assert [s.name for s in tracer.spans.spans] == [
            "event:worker_restart", "event:worker_recovered"
        ]
        metrics = MetricsRegistry()
        engine.drain_obs(metrics=metrics)
        by_name = {
            name for name, _k, _labels, _inst in metrics.collect()
        }
        assert "repro_worker_restarts_total" in by_name
        assert "repro_worker_recovery_ns" in by_name
        # The recovery span tree: recovery root + respawn/rebuild stages.
        rec = [s for s in engine.spans.spans if s.kind == "recovery"]
        names = {s.name for s in rec}
        assert names == {"recovery:1", "recovery:respawn", "recovery:rebuild"}
        root = next(s for s in rec if s.name == "recovery:1")
        assert root.attrs["outcome"] == "recovered"
        assert all(
            s.parent_id == root.span_id
            for s in rec if s.name != "recovery:1"
        )
    finally:
        engine.close()


def test_close_escalates_to_kill_on_stuck_worker():
    """A worker that refuses the shutdown command must not wedge
    close(): the engine escalates terminate -> kill and returns."""
    load, _ = _keys()
    plan = FaultPlan().drop_reply(1, op="close", nth=1)
    engine = parallel_sharded_index(
        _btree(), 2, close_timeout_s=0.3, fault_plan=plan
    )
    engine.bulk_load([(k, k) for k in load])
    procs = [h.proc for h in engine._handles]
    t0 = time.monotonic()
    engine.close()
    assert time.monotonic() - t0 < 10.0
    for p in procs:
        assert not p.is_alive()


def test_store_recovery_matches_unfailed_store():
    """The supervision layer covers the store engine too (string
    values ride the pipe fallback, exercising journal replay of
    pipe-form mutations)."""
    spec = next(s for s in specs() if s.name == "PGM")
    load, extra = _keys()
    items = [(k, f"v{k}") for k in load]
    probe = list(load) + list(extra)

    fresh = [(k, f"n{k}") for k in sorted(extra)]
    flat = ViperStore(spec.build(PerfContext()), PerfContext())
    flat.bulk_load(items)
    flat.put_many(fresh)
    expected = flat.get_many(probe)

    plan = (
        FaultPlan()
        .kill(1, op="write_many", nth=1, when="after")
        .kill(0, op="get_many", nth=2)
    )
    engine = parallel_sharded_store(
        spec, 2, restart_budget=2, backoff_base_s=0.0, fault_plan=plan
    )
    try:
        engine.bulk_load(items)
        engine.get_many(probe)
        engine.put_many(fresh)
        assert engine.get_many(probe) == expected
        assert sum(engine.supervisor.restarts_used) == 2
    finally:
        engine.close()
