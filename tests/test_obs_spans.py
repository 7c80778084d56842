"""Causal spans, worker health, and tail-latency attribution.

Mechanism-level tests on hand-built span trees and an injectable clock;
the end-to-end contracts on the real parallel engine (every worker
event reachable from its request, span counts == untraced counters,
flight-recorder postmortems) live in ``test_parallel_engine.py``.
"""

import json

import pytest

from repro.concurrency import ConcurrencySpec, OpProfile, make_streams, simulate
from repro.obs import (
    EventType,
    Tracer,
    Span,
    SpanRecorder,
    attribute_spans,
    children_index,
    chrome_trace_events,
    read_spans_jsonl,
    roots,
    subtree_events,
    summarize_spans,
    walk,
    write_spans_jsonl,
)
from repro.obs.health import FlightEntry, HealthMonitor, format_flight
from repro.perf import BandwidthModel


# ----------------------------------------------------------- SpanRecorder


class TestSpanRecorder:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SpanRecorder(rate=1.5)
        with pytest.raises(ValueError):
            SpanRecorder(rate=-0.1)

    def test_ids_are_prefixed_and_sequential(self):
        rec = SpanRecorder(prefix="w3")
        assert rec.next_id() == "w3-1"
        assert rec.next_id() == "w3-2"

    def test_rate_zero_counts_requests_but_records_none(self):
        rec = SpanRecorder(rate=0.0, seed=1)
        assert all(not rec.sample() for _ in range(50))
        assert rec.requests == 50
        assert rec.sampled_requests == 0

    def test_rate_one_samples_everything(self):
        rec = SpanRecorder(rate=1.0, seed=1)
        assert all(rec.sample() for _ in range(50))
        assert rec.requests == rec.sampled_requests == 50

    def test_partial_rate_is_deterministic_per_seed(self):
        a = SpanRecorder(rate=0.3, seed=42)
        b = SpanRecorder(rate=0.3, seed=42)
        decisions_a = [a.sample() for _ in range(200)]
        decisions_b = [b.sample() for _ in range(200)]
        assert decisions_a == decisions_b
        assert 0 < a.sampled_requests < 200
        other = SpanRecorder(rate=0.3, seed=43)
        assert decisions_a != [other.sample() for _ in range(200)]

    def test_start_finish_records_duration_and_attrs(self):
        rec = SpanRecorder()
        span = rec.start("request:get_many", "request", ops=10)
        assert len(rec) == 0  # not recorded until finished
        done = rec.finish(span, status="ok")
        assert done is span
        assert rec.spans == [span]
        assert span.dur_ns >= 0.0
        assert span.attrs == {"ops": 10, "status": "ok"}
        assert span.end_ns == span.start_ns + span.dur_ns

    def test_event_carries_cost_and_parent(self):
        rec = SpanRecorder(worker=2)
        tracer = Tracer(rate=1.0, spans=rec)
        parent = rec.start("cmd:insert_many", "worker", parent="p-1")
        tracer.emit(
            EventType.RETRAIN, 5.0, parent=parent, cost_ns=123.0,
            reason="merge",
        )
        (ev,) = rec.spans
        assert ev.kind == "event"
        assert ev.name == "event:retrain"
        assert ev.parent_id == parent.span_id
        assert ev.dur_ns == 0.0
        assert ev.worker == 2
        assert ev.attrs["etype"] == EventType.RETRAIN
        assert ev.attrs["sim_ts_ns"] == 5.0
        assert ev.attrs["cost_ns"] == 123.0
        assert ev.attrs["reason"] == "merge"

    def test_tracer_attaches_events_under_current_span(self):
        rec = SpanRecorder(prefix="w0", worker=0)
        tracer = Tracer(rate=1.0, spans=rec)

        cmd = rec.start("cmd:get_many", "worker", parent="p-9")
        rec.current = cmd
        tracer.emit(EventType.RETRAIN, 10.0, index="alex", cost_ns=7.0)
        rec.current = None
        tracer.emit(EventType.RETRAIN, 20.0, index="alex", cost_ns=7.0)
        rec.finish(cmd)

        events = [s for s in rec.spans if s.kind == "event"]
        assert len(events) == 2
        assert events[0].parent_id == cmd.span_id
        assert events[0].attrs["etype"] == EventType.RETRAIN
        # Events outside any command are kept, parentless — never dropped.
        assert events[1].parent_id is None

    def test_absorb_preserves_foreign_ids(self):
        parent = SpanRecorder(prefix="p")
        worker = SpanRecorder(prefix="w1", worker=1)
        req = parent.finish(parent.start("request:get", "request"))
        worker.finish(worker.start("cmd:get", "worker", parent=req.span_id))
        assert parent.absorb(worker.spans) == 1
        index = children_index(parent.spans)
        assert [c.span_id for c in index[req.span_id]] == ["w1-1"]


# -------------------------------------------------------------- tree tools


def _tree():
    """request(p-1, 100ns) -> batch(p-2) -> shard(p-3) -> worker(w0-1)
    -> event(w0-2); plus an orphan shard (partial trace)."""
    return [
        Span("p-1", None, "request:get_many", "request", 0.0, 100.0),
        Span("p-2", "p-1", "batch:0", "batch", 10.0, 80.0),
        Span("p-3", "p-2", "shard:0", "shard", 20.0, 60.0, worker=0),
        Span("w0-1", "p-3", "cmd:get_many", "worker", 25.0, 50.0, worker=0),
        Span("w0-2", "w0-1", "event:retrain", "event", 30.0, 0.0, worker=0,
             attrs={"etype": "retrain", "cost_ns": 5.0}),
        Span("p-9", "gone-1", "shard:1", "shard", 0.0, 10.0),
    ]


class TestTreeTools:
    def test_children_index_groups_by_parent(self):
        index = children_index(_tree())
        assert [s.span_id for s in index[None]] == ["p-1"]
        assert [s.span_id for s in index["p-1"]] == ["p-2"]
        assert [s.span_id for s in index["w0-1"]] == ["w0-2"]

    def test_roots_are_requests_plus_orphaned_intervals(self):
        assert [s.span_id for s in roots(_tree())] == ["p-1", "p-9"]

    def test_walk_is_depth_first_and_complete(self):
        spans = _tree()
        index = children_index(spans)
        ids = [s.span_id for s in walk(spans[0], index)]
        assert ids == ["p-1", "p-2", "p-3", "w0-1", "w0-2"]

    def test_subtree_events(self):
        spans = _tree()
        index = children_index(spans)
        assert [e.span_id for e in subtree_events(spans[0], index)] == ["w0-2"]
        assert subtree_events(spans[5], index) == []

    def test_summarize_counts_kinds_and_event_types(self):
        summary = summarize_spans(_tree())
        assert summary[("request", "wall")] == {"spans": 1, "dur_ns": 100.0}
        assert summary[("shard", "wall")]["spans"] == 2
        assert summary[("event", "wall")]["events"] == {"retrain": 1}
        assert ("batch", "wall") in summary
        # Simulated spans keep their own entries: sim ns are not wall ns.
        sim = [
            Span("sim-1", None, "op:read", "request", 0.0, 7.0, clock="sim"),
            Span("sim-2", "sim-1", "event:latch_wait", "event", 3.0,
                 clock="sim", attrs={"etype": "latch_wait"}),
        ]
        summary = summarize_spans(_tree() + sim)
        assert summary[("request", "wall")] == {"spans": 1, "dur_ns": 100.0}
        assert summary[("request", "sim")] == {"spans": 1, "dur_ns": 7.0}
        assert summary[("event", "sim")]["events"] == {"latch_wait": 1}


# ---------------------------------------------------------------- exports


class TestSpanExport:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        spans = _tree()
        assert write_spans_jsonl(spans, path) == len(spans)
        assert read_spans_jsonl(path) == spans

    def test_chrome_trace_structure(self):
        doc = chrome_trace_events(_tree())
        events = doc["traceEvents"]
        by_id = {
            e["args"]["span_id"]: e for e in events if e["ph"] in ("X", "i")
        }
        # Interval spans are complete events with duration in us.
        req = by_id["p-1"]
        assert req["ph"] == "X"
        assert req["dur"] == pytest.approx(0.1)  # 100 ns
        assert req["cat"] == "request"
        # Event spans are thread-scoped instants.
        assert by_id["w0-2"]["ph"] == "i"
        assert by_id["w0-2"]["s"] == "t"
        # Process rows follow the span-id prefix; shard lanes the worker.
        assert by_id["p-1"]["pid"] == 0
        assert by_id["w0-1"]["pid"] == 1
        assert by_id["p-3"]["tid"] == 1
        names = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert names == {"parent", "worker 0"}

    def test_chrome_align_slides_foreign_epoch_children(self):
        # A worker child whose clock epoch differs wildly from the
        # parent's must still render inside its parent.
        spans = [
            Span("p-1", None, "request:get", "request", 1000.0, 100.0),
            Span("w0-1", "p-1", "cmd:get", "worker", 9_999_000.0, 50.0),
        ]
        doc = chrome_trace_events(spans)
        by_id = {e["args"]["span_id"]: e for e in doc["traceEvents"][:2]}
        assert by_id["w0-1"]["ts"] == by_id["p-1"]["ts"]
        raw = chrome_trace_events(spans, align=False)
        assert raw["traceEvents"][1]["ts"] == pytest.approx(9_999.0)

    def test_chrome_trace_is_json_serializable(self, tmp_path):
        json.dumps(chrome_trace_events(_tree()))


# ------------------------------------------------------------ attribution


class TestAttribution:
    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            attribute_spans([], quantile=1.0)
        with pytest.raises(ValueError):
            attribute_spans([], quantile=-0.2)

    def test_empty_spans(self):
        result = attribute_spans([])
        assert result.requests == [] and result.tail == []

    def test_components_sum_exactly_to_request_total(self):
        result = attribute_spans(_tree(), quantile=0.0)
        (req,) = result.requests
        assert sum(req.components().values()) == pytest.approx(req.total_ns)
        assert req.total_ns == 100.0

    def test_decomposition_math(self):
        # One batch of 120ns with two shards: 100ns and 60ns.
        spans = [
            Span("p-1", None, "request:get_many", "request", 0.0, 200.0),
            Span("p-2", "p-1", "batch:0", "batch", 10.0, 120.0),
            Span("p-3", "p-2", "shard:0", "shard", 10.0, 100.0, worker=0),
            Span("p-4", "p-2", "shard:1", "shard", 10.0, 60.0, worker=1),
        ]
        result = attribute_spans(spans, quantile=0.0)
        (req,) = result.requests
        assert req.batches == 1 and req.shards == 2
        assert req.serialize_ns == pytest.approx(20.0)  # 120 - max(100, 60)
        assert req.skew_ns == pytest.approx(20.0)  # 100 - mean(80)
        assert req.struct_ns == 0.0  # no events
        assert req.work_ns == pytest.approx(80.0)  # the mean
        assert req.queue_ns == pytest.approx(80.0)  # 200 - 120
        assert sum(req.components().values()) == pytest.approx(200.0)

    def test_struct_share_uses_event_cost_over_worker_sim_time(self):
        # The shard's worker reports sim_ns=100; events cost 25 => 25%
        # of the (single-shard) mean goes to struct.
        spans = [
            Span("p-1", None, "request:insert_many", "request", 0.0, 80.0),
            Span("p-2", "p-1", "shard:0", "shard", 0.0, 80.0, worker=0),
            Span("w0-1", "p-2", "cmd:insert_many", "worker", 0.0, 70.0,
                 worker=0, attrs={"sim_ns": 100.0}),
            Span("w0-2", "w0-1", "event:retrain", "event", 5.0, 0.0,
                 worker=0, attrs={"etype": "retrain", "cost_ns": 25.0}),
        ]
        result = attribute_spans(spans, quantile=0.0)
        (req,) = result.requests
        assert req.events == 1
        assert req.event_counts == {"retrain": 1}
        assert req.struct_ns == pytest.approx(20.0)  # 80 * (25 / 100)
        assert req.work_ns == pytest.approx(60.0)
        assert sum(req.components().values()) == pytest.approx(80.0)

    def test_tail_keeps_the_slowest_quantile(self):
        spans = []
        for i in range(10):
            spans.append(
                Span(f"p-{i}", None, "request:get", "request", 0.0, float(i + 1))
            )
        result = attribute_spans(spans, quantile=0.8)
        assert [r.total_ns for r in result.tail] == [10.0, 9.0]
        assert [r.total_ns for r in result.requests] == [
            float(i + 1) for i in range(10)
        ]

    def test_tail_never_empty_when_requests_exist(self):
        spans = [Span("p-1", None, "request:get", "request", 0.0, 5.0)]
        assert len(attribute_spans(spans, quantile=0.99).tail) == 1

    def test_table_renders_totals_and_caps_rows(self):
        spans = [
            Span(f"p-{i}", None, "request:get", "request", 0.0, 1e6 * (i + 1))
            for i in range(20)
        ]
        text = attribute_spans(spans, quantile=0.0).table(limit=3)
        assert "TAIL p0+ (20 reqs)" in text
        assert "... 17 more tail requests" in text
        assert text.count("request:get (") == 3


# -------------------------------------------------------- simulator spans


LIGHT = OpProfile(mean_ns=500.0, p999_ns=1000.0, bytes_per_op=64.0)
WIDE_BW = BandwidthModel(peak_gbps=10_000.0)


def _simulate(spans=None, **kwargs):
    streams = make_streams(4, 100, 0.5, seed=7)
    spec = ConcurrencySpec(scheme="global_lock")
    return simulate(
        spec, LIGHT, streams, bandwidth=WIDE_BW, seed=7, spans=spans, **kwargs
    )


class TestSimulatorSpans:
    def test_one_request_span_per_op_at_rate_one(self):
        rec = SpanRecorder(rate=1.0, seed=3, prefix="sim")
        _simulate(spans=rec)
        requests = [s for s in rec.spans if s.kind == "request"]
        assert len(requests) == 400
        assert rec.requests == rec.sampled_requests == 400
        assert all(s.clock == "sim" for s in rec.spans)
        assert all(s.span_id.startswith("sim-") for s in rec.spans)

    def test_contention_events_attach_to_their_op(self):
        rec = SpanRecorder(rate=1.0, seed=3, prefix="sim")
        tracer = Tracer(rate=1.0, spans=rec)
        _simulate(spans=rec, tracer=tracer)
        events = [s for s in rec.spans if s.kind == "event"]
        assert events  # global_lock at 4 threads must contend
        # At rate 1.0 every counted event is one event span, on sim time.
        assert len(events) == tracer.count(EventType.LATCH_WAIT) + (
            tracer.count(EventType.RETRAIN_STALL)
        )
        assert all(ev.clock == "sim" for ev in events)
        index = children_index(rec.spans)
        by_id = {s.span_id: s for s in rec.spans}
        for ev in events:
            parent = by_id[ev.parent_id]
            assert parent.kind == "request"
            assert ev.worker == parent.worker
            assert ev.attrs["cost_ns"] > 0.0
            assert parent.start_ns <= ev.start_ns <= parent.end_ns
        assert {e.name for e in events} <= {
            "event:latch_wait", "event:retrain_stall"
        }
        # summarize + subtree agree on the event population.
        total = sum(
            len(subtree_events(r, index))
            for r in rec.spans
            if r.kind == "request"
        )
        assert total == len(events)

    def test_recording_spans_never_perturbs_the_schedule(self):
        bare = _simulate()
        traced = _simulate(spans=SpanRecorder(rate=1.0, seed=99, prefix="sim"))
        assert traced.makespan_ns == bare.makespan_ns
        assert traced.latch_wait_ns == bare.latch_wait_ns
        assert traced.mean_ns == bare.mean_ns

    def test_sim_span_durations_match_recorded_latency(self):
        rec = SpanRecorder(rate=1.0, seed=3, prefix="sim")
        result = _simulate(spans=rec)
        requests = [s for s in rec.spans if s.kind == "request"]
        mean = sum(s.dur_ns for s in requests) / len(requests)
        assert mean == pytest.approx(result.mean_ns)


# ----------------------------------------------------------- HealthMonitor


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestHealthMonitor:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(0)
        with pytest.raises(ValueError):
            HealthMonitor(2, flight_capacity=0)

    def test_reply_updates_heartbeat_and_counts(self):
        clock = FakeClock()
        mon = HealthMonitor(2, clock=clock)
        mon.sent(0, "get_many", span_id="p-7")
        clock.t = 1.0
        mon.reply(0, 2.5e6)
        mon.sent(0, "get_many")
        mon.reply(0, 1.5e6)
        wh = mon.workers[0]
        assert (wh.cmds_sent, wh.cmds_done) == (2, 2)
        assert wh.busy_ns == 4.0e6  # the replies' wall ns, summed
        assert wh.last_reply_t == 1.0
        entry = mon.flight(0)[0]
        assert entry.status == "ok"
        assert entry.span_id == "p-7"
        assert entry.wall_ns == 2.5e6

    def test_untracked_reply_is_heartbeat_only(self):
        # The build-ready handshake replies without a tracked send: it
        # proves liveness but is not a command done.
        mon = HealthMonitor(1, clock=FakeClock())
        mon.reply(0, 0.0)
        wh = mon.workers[0]
        assert (wh.cmds_sent, wh.cmds_done) == (0, 0)
        assert wh.busy_ns == 0.0
        assert wh.last_reply_t is not None

    def test_stall_fires_once_then_recovers(self):
        clock = FakeClock()
        mon = HealthMonitor(1, stall_threshold_s=5.0, clock=clock)
        mon.sent(0, "bulk_load")
        clock.t = 4.9
        assert mon.waiting(0) is False
        clock.t = 5.1
        assert mon.waiting(0) is True  # first crossing: warn
        assert mon.waiting(0) is False  # same command: no re-warn
        assert mon.stalled_workers() == [0]
        assert mon.workers[0].stalls == 1
        mon.reply(0, 1e6)
        assert mon.stalled_workers() == []
        assert mon.flight(0)[0].status == "stalled-ok"

    def test_waiting_without_in_flight_is_noop(self):
        mon = HealthMonitor(1, clock=FakeClock())
        assert mon.waiting(0) is False

    def test_died_marks_the_in_flight_command(self):
        mon = HealthMonitor(1, clock=FakeClock())
        mon.sent(0, "get_many")
        mon.died(0)
        (entry,) = mon.flight(0)
        assert entry.status == "died"
        assert mon.workers[0].in_flight is None
        mon.died(0)  # idempotent with nothing in flight

    def test_flight_ring_is_bounded(self):
        mon = HealthMonitor(1, flight_capacity=3, clock=FakeClock())
        for i in range(5):
            mon.sent(0, f"cmd{i}")
            mon.reply(0, 1.0)
        entries = mon.flight(0)
        assert len(entries) == 3
        assert [e.cmd for e in entries] == ["cmd2", "cmd3", "cmd4"]
        assert [e.seq for e in entries] == [3, 4, 5]

    def test_snapshot_fields(self):
        clock = FakeClock()
        mon = HealthMonitor(2, clock=clock)
        mon.sent(1, "get_many")
        clock.t = 2.0
        mon.reply(1, 3e6)
        clock.t = 6.0
        snap = mon.snapshot()
        assert snap[0]["last_reply_age_s"] is None
        assert snap[1]["last_reply_age_s"] == pytest.approx(4.0)
        assert snap[1]["cmds_done"] == 1
        assert snap[1]["busy_ms"] == pytest.approx(3.0)
        assert snap[1]["worker"] == 1

    def test_format_flight(self):
        assert "empty" in format_flight([])
        entry = FlightEntry(3, "get_many", "p-1", 0.0)
        entry.wall_ns = 1.25e6
        entry.status = "ok"
        text = format_flight([entry])
        assert "#3 get_many [ok] wall=1.25ms" in text
        many = [FlightEntry(i, "c", None, 0.0) for i in range(20)]
        assert format_flight(many, limit=4).count("\n") == 3
