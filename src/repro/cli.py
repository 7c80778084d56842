"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — list every registered index with its category, figure
  membership, and Table-I capabilities.
* ``bench`` — run one (index, workload, dataset) combination end-to-end
  through the Viper store and print simulated throughput/latency.
* ``datasets`` — summarise a synthetic dataset (and optionally dump keys).

Index resolution goes through :mod:`repro.registry`: any canonical name
or alias listed by ``info`` works, case-insensitively.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro import PerfContext, ViperStore, registry
from repro.bench import format_table, run_store_ops, thread_scaling
from repro.concurrency import ParallelShardedStore, parallel_sharded_store
from repro.concurrency.parallel import measure_scaling
from repro.obs import (
    EngineTopView,
    EventType,
    JsonlTraceSink,
    MetricsRegistry,
    ProgressReporter,
    SpanRecorder,
    Tracer,
    attribute_spans,
    prometheus_text,
    summarize_spans,
    trace_summary,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.perf import Profiler
from repro.registry import UnknownIndexError
from repro.workloads import generate_operations
from repro.workloads.datasets import DATASETS
from repro.workloads.ycsb import (
    READ_ONLY,
    STANDARD_WORKLOADS,
    WRITE_ONLY,
    split_load_and_inserts,
)

#: CLI name -> spec, generated from the registry (kept importable for
#: anything that wants "every index the CLI can drive"; an
#: :class:`~repro.registry.IndexSpec` is callable as ``spec(perf)``).
INDEXES = {spec.cli_name: spec for spec in registry.specs()}

WORKLOADS = {
    **{name.lower(): spec for name, spec in STANDARD_WORKLOADS.items()},
    "read-only": READ_ONLY,
    "write-only": WRITE_ONLY,
}


def cmd_info(_args: argparse.Namespace) -> int:
    rows = []
    for spec in registry.specs():
        caps = spec.build(PerfContext()).capabilities()
        rows.append(
            [
                spec.cli_name,
                spec.category,
                ",".join(spec.figures) or "-",
                "yes" if caps.sorted_order else "no",
                "yes" if caps.updatable else "no",
                "bounded" if caps.bounded_error else "unfixed",
                caps.inner_node or "-",
                caps.insertion or "-",
                spec.concurrency.describe(),
            ]
        )
    print(
        format_table(
            [
                "index",
                "category",
                "figures",
                "sorted",
                "updatable",
                "error",
                "inner node",
                "insertion",
                "concurrency",
            ],
            rows,
            title="Available indexes",
        )
    )
    return 0


def _parse_threads(text: str) -> list:
    """Parse ``--threads "1,8,32"`` into a sorted thread-count list.

    Doubles as the argparse ``type=`` so bad values fail at parse time,
    before the benchmark runs.
    """
    try:
        counts = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if any(t < 1 for t in counts):
        raise argparse.ArgumentTypeError(
            f"thread counts must be >= 1, got {text!r}"
        )
    return counts


def _build_store(
    spec,
    perf,
    shards: int,
    workers: int = 1,
    trace_rate: float = 0.0,
    span_rate: float = 0.0,
    stall_threshold_s: float = 5.0,
    restart_budget: int = 0,
    worker_timeout_s=None,
    degraded: str = "fail",
):
    """One ViperStore, or the sharded engine over K shards or N workers.

    ``--shards K`` runs the engine (:mod:`repro.concurrency.parallel`)
    over its loopback transport: K range partitions served in this
    process.  ``--workers N`` runs it over N worker processes, one
    partition each.  Simulated charges land on ``perf`` either way —
    every shard ships its counter deltas back with each reply — so the
    report below is unchanged; wall-clock rows are what the extra
    processes buy.
    ``span_rate > 0`` additionally records causal span trees
    (:mod:`repro.obs.spans`) across the parent and all workers.
    ``restart_budget``/``worker_timeout_s``/``degraded`` configure the
    supervision loop (:mod:`repro.concurrency.supervise`): dead or
    deadline-overrunning workers are respawned, rebuilt, and their
    in-flight command replayed up to the budget before the engine
    degrades.
    """
    if workers > 1:
        n, transport = workers, "auto"
    elif shards > 1:
        n, transport = shards, "loopback"
    else:
        return ViperStore(spec.build(perf), perf)
    return parallel_sharded_store(
        spec,
        n,
        transport=transport,
        perf=perf,
        trace_rate=trace_rate,
        span_rate=span_rate,
        stall_threshold_s=stall_threshold_s,
        restart_budget=restart_budget,
        worker_timeout_s=worker_timeout_s,
        degraded=degraded,
    )


def _bad_engine_flags(args: argparse.Namespace) -> bool:
    """Report (and return True for) a ``--shards``/``--workers`` mix the
    engine cannot build: each worker process serves exactly one shard."""
    if args.workers > 1 and args.shards > args.workers:
        print(
            f"--shards {args.shards} exceeds --workers {args.workers}: "
            "each worker process serves exactly one shard",
            file=sys.stderr,
        )
        return True
    return False


def _retrain_profile(store, ops_run: int) -> tuple:
    """Measured ``(retrain_every, retrain_stall_ns)`` from the run's stats.

    The simulator charges these only for retrain-blocking indexes, so
    passing them unconditionally is safe.
    """
    from repro.perf.cost_model import CostModel

    stats = (
        store.stats()
        if isinstance(store, ParallelShardedStore)
        else store.index.stats()
    )
    count, keys = stats.retrain_count, stats.retrain_keys
    if count == 0 or ops_run == 0:
        return 0, 0.0
    stall_ns = (keys / count) * CostModel().retrain_key_ns
    return max(1, ops_run // count), stall_ns


def _scaling_table(
    spec,
    workload,
    recorder,
    bytes_per_op,
    args,
    store,
    load=None,
    ops=None,
    retrain=None,
) -> str:
    """Project the measured single-thread profile onto ``--threads``."""
    write_fraction = workload.update + workload.insert + workload.rmw
    retrain_every, retrain_stall_ns = retrain or _retrain_profile(
        store, len(recorder)
    )
    measured_runner = None
    if args.projection == "measured":

        def measured_runner(thread_counts):
            return measure_scaling(
                spec,
                [(k, k) for k in load],
                ops,
                thread_counts,
                batch_size=max(args.batch_size, 512),
            )

    rows = thread_scaling(
        recorder.mean(),
        recorder.p999(),
        bytes_per_op,
        args.threads,
        projection=args.projection,
        concurrency=spec.concurrency,
        write_fraction=write_fraction,
        retrain_every=retrain_every,
        retrain_stall_ns=retrain_stall_ns,
        seed=args.seed,
        measured_runner=measured_runner,
    )
    if args.projection == "measured":
        body = [
            [
                r["threads"],
                f"{r['throughput_mops']:.3f}",
                f"{r['wall_s']:.2f}",
                f"{r['mean_ns']:.0f}",
                f"{r['p999_ns']:.0f}",
                f"{min(r['utilization']):.0%}..{max(r['utilization']):.0%}",
            ]
            for r in rows
        ]
        return format_table(
            [
                "workers",
                "Mops/s",
                "wall s",
                "mean ns",
                "p99.9 ns",
                "worker util",
            ],
            body,
            title="Worker scaling (measured wall-clock, real processes)",
        )
    if args.projection == "sim":
        body = [
            [
                r["threads"],
                f"{r['throughput_mops']:.2f}",
                f"{r['p999_ns']:.0f}",
                f"{100 * r['latch_wait_share']:.1f}%",
                f"{100 * r['retrain_stall_share']:.1f}%",
                f"{r['retries']:,}",
                f"{r['retrain_stalls']:,}",
            ]
            for r in rows
        ]
        return format_table(
            [
                "threads",
                "Mops/s",
                "p99.9 ns",
                "latch wait",
                "retrain stall",
                "retries",
                "stalls",
            ],
            body,
            title=f"Thread scaling (sim, {spec.concurrency.describe()})",
        )
    body = [
        [
            r["threads"],
            f"{r['throughput_mops']:.2f}",
            f"{r['gil_thread_mops']:.2f}",
            f"{r['p999_ns']:.0f}",
            f"{r['slowdown']:.3f}",
        ]
        for r in rows
    ]
    return format_table(
        ["threads", "Mops/s", "GIL Mops/s", "p99.9 ns", "slowdown"],
        body,
        title="Thread scaling (analytic bandwidth model)",
    )


def _engine_desc(store: ParallelShardedStore) -> str:
    if store.transport == "loopback":
        return f"{store.workers} in-process shards"
    return f"{store.workers} processes"


def _worker_balance_table(store: ParallelShardedStore) -> str:
    total = sum(store.worker_ops) or 1
    util = store.worker_utilization()
    body = [
        [w, f"{ops:,}", f"{100 * ops / total:.1f}%", f"{util[w]:.0%}"]
        for w, ops in enumerate(store.worker_ops)
    ]
    return format_table(
        ["worker", "ops routed", "share", "busy share"],
        body,
        title=f"Worker balance ({_engine_desc(store)})",
    )


def _worker_health_table(store: ParallelShardedStore) -> str:
    avail = store.availability()
    restarts = store.supervisor.restarts_used
    body = [
        [
            row["worker"],
            f"{row['cmds_sent']:,}",
            f"{row['cmds_done']:,}",
            f"{row['hb_busy_ms']:.1f}",
            (
                f"{row['last_reply_age_s']:.2f}s"
                if row["last_reply_age_s"] is not None
                else "-"
            ),
            f"{row['stalls']:,}" + (" (stalled)" if row["stalled"] else ""),
            f"{restarts[row['worker']]:,}",
            "up" if avail[row["worker"]] else "DOWN",
        ]
        for row in store.health.snapshot()
    ]
    return format_table(
        [
            "worker",
            "sent",
            "done",
            "busy ms",
            "last reply",
            "stalls",
            "restarts",
            "shard",
        ],
        body,
        title=f"Worker health ({_engine_desc(store)}, stall threshold "
        f"{store.health.stall_threshold_s:g}s, restart budget "
        f"{store.supervisor.restart_budget})",
    )


def _span_report(all_spans, quantile: float) -> str:
    """Span summary + tail-latency attribution over the wall-clock trees."""
    summary = summarize_spans(all_spans)
    body = []
    for kind in ("request", "batch", "shard", "worker", "recovery", "event"):
        agg = summary.get(kind)
        if agg:
            body.append(
                [kind, f"{agg['spans']:,}", f"{agg['dur_ns'] / 1e6:.2f}"]
            )
    for etype, n in sorted(summary.get("events", {}).items()):
        body.append([f"  event:{etype}", f"{n:,}", "-"])
    text = format_table(
        ["kind", "spans", "total ms"],
        body or [["(no spans recorded)", "-", "-"]],
        title="Causal spans",
    )
    wall = [s for s in all_spans if s.clock == "wall"]
    result = attribute_spans(wall, quantile=quantile)
    if result.tail:
        text += (
            f"\n\nTail-latency attribution (slowest "
            f"{100 * (1 - quantile):g}% of {len(result.requests):,} "
            f"wall-clock requests)\n"
        )
        text += result.table()
    return text


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        spec = registry.resolve(args.index)
    except UnknownIndexError:
        print(f"unknown index {args.index!r}; see `info`", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if _bad_engine_flags(args):
        return 2
    workload = WORKLOADS[args.workload]
    keys = DATASETS[args.dataset](args.keys, seed=args.seed)
    needs_inserts = workload.insert > 0
    if needs_inserts:
        load, insert_pool = split_load_and_inserts(keys, 0.5, seed=args.seed)
    else:
        load, insert_pool = list(keys), None
    ops = generate_operations(
        workload, args.ops, load, insert_pool, seed=args.seed
    )

    perf = PerfContext()
    store = _build_store(
        spec,
        perf,
        args.shards,
        args.workers,
        restart_budget=args.restart_budget,
        worker_timeout_s=args.worker_timeout,
        degraded=args.degraded,
    )
    parallel = isinstance(store, ParallelShardedStore)
    try:
        mark = perf.begin()
        store.bulk_load([(k, k) for k in load])
        build_ns = perf.end(mark).time_ns
        progress = (
            ProgressReporter(total=len(ops), every=max(1, len(ops) // 20))
            if args.progress
            else None
        )
        wall_start = time.perf_counter()
        recorder, bytes_per_op = run_store_ops(
            store, ops, perf, batch_size=args.batch_size, progress=progress
        )
        wall_s = time.perf_counter() - wall_start

        body = [
            ["index", spec.name],
            ["workload", workload.name],
            ["batch size", args.batch_size],
            ["shards", args.shards],
            ["dataset", f"{args.dataset} ({len(load):,} loaded keys)"],
            ["operations", f"{len(recorder):,}"],
            ["build (sim ms)", f"{build_ns / 1e6:.2f}"],
            ["throughput (sim Mops/s)", f"{recorder.throughput_mops():.3f}"],
            ["mean latency (sim ns)", f"{recorder.mean():.0f}"],
            ["p50 (sim ns)", f"{recorder.p50():.0f}"],
            ["p99.9 (sim ns)", f"{recorder.p999():.0f}"],
            ["bytes/op", f"{bytes_per_op:.0f}"],
        ]
        if parallel:
            body.insert(4, ["workers", args.workers])
            body.append(
                [
                    "throughput (wall Mops/s)",
                    f"{len(recorder) / wall_s / 1e6:.3f}",
                ]
            )
        print(
            format_table(
                ["metric", "value"],
                body,
                title="Benchmark result (simulated hardware)",
            )
        )
        if parallel:
            print()
            print(_worker_balance_table(store))
        if args.threads:
            print()
            print(
                _scaling_table(
                    spec,
                    workload,
                    recorder,
                    bytes_per_op,
                    args,
                    store,
                    load=load,
                    ops=ops,
                )
            )
    finally:
        if parallel:
            store.close()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run one combination with full observability and print the report."""
    try:
        spec = registry.resolve(args.index)
    except UnknownIndexError:
        print(f"unknown index {args.index!r}; see `info`", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    keys = DATASETS[args.dataset](args.keys, seed=args.seed)
    if workload.insert > 0:
        load, insert_pool = split_load_and_inserts(keys, 0.5, seed=args.seed)
    else:
        load, insert_pool = list(keys), None
    ops = generate_operations(
        workload, args.ops, load, insert_pool, seed=args.seed
    )

    if _bad_engine_flags(args):
        return 2
    if args.spans and max(args.shards, args.workers) < 2:
        print(
            "--spans needs --shards or --workers >= 2 (span tracing "
            "instruments the sharded serving engine)",
            file=sys.stderr,
        )
        return 2

    perf = PerfContext()
    tracer = Tracer(rate=args.sample, seed=args.seed)
    perf.tracer = tracer
    sink = None
    if args.trace_out:
        sink = JsonlTraceSink(open(args.trace_out, "w"))
        tracer.add_sink(sink)
    metrics = MetricsRegistry()
    profiler = Profiler(perf)

    store = _build_store(
        spec,
        perf,
        args.shards,
        args.workers,
        trace_rate=args.sample,
        span_rate=args.span_sample if args.spans else 0.0,
        stall_threshold_s=args.stall_threshold,
        restart_budget=args.restart_budget,
        worker_timeout_s=args.worker_timeout,
        degraded=args.degraded,
    )
    parallel = isinstance(store, ParallelShardedStore)
    if args.top and parallel:
        progress = EngineTopView(
            store, total=len(ops), every=max(1, len(ops) // 20)
        )
    elif args.progress:
        progress = ProgressReporter(total=len(ops), every=max(1, len(ops) // 20))
    else:
        progress = None
    all_spans = []
    try:
        mark = perf.begin()
        store.bulk_load([(k, k) for k in load])
        build_ns = perf.end(mark).time_ns
        result = run_store_ops(
            store,
            ops,
            perf,
            profiler=profiler,
            batch_size=args.batch_size,
            metrics=metrics,
            progress=progress,
        )
        recorder = result.recorder
        if parallel:
            # Fold worker-side lifecycle events, metric series, and
            # worker/event spans into the parent's instruments before any
            # of them are summarised below.  The profiler already saw
            # every op through the perf deltas folded into ``perf``.
            store.drain_obs(tracer=tracer, metrics=metrics, spans=store.spans)
            if store.spans is not None:
                all_spans = list(store.spans.spans)
            health_text = _worker_health_table(store)
            stats = store.stats()
        else:
            stats = store.index.stats()
        retrain = _retrain_profile(store, len(recorder))
    finally:
        if parallel:
            store.close()

    scaling_text = ""
    if args.threads:
        # Run the projection before the trace summary so its LATCH_WAIT /
        # RETRAIN_STALL events land in the lifecycle table below.
        if args.projection == "sim":
            from repro.concurrency import OpProfile, simulate_scaling

            sim_spans = None
            if args.spans:
                # Simulated op spans share the exporters with the
                # measured trees; the "sim" prefix and clock keep the
                # two diffable inside one file.
                sim_spans = SpanRecorder(
                    rate=args.span_sample, seed=args.seed, prefix="sim"
                )
            write_fraction = workload.update + workload.insert + workload.rmw
            retrain_every, retrain_stall_ns = retrain
            results = simulate_scaling(
                spec.concurrency,
                OpProfile(
                    mean_ns=recorder.mean(),
                    p999_ns=recorder.p999(),
                    bytes_per_op=result.bytes_per_op,
                    retrain_every=retrain_every,
                    retrain_stall_ns=retrain_stall_ns,
                ),
                args.threads,
                write_fraction=write_fraction,
                seed=args.seed,
                tracer=tracer,
                index_name=spec.name,
                spans=sim_spans,
            )
            if sim_spans is not None:
                all_spans.extend(sim_spans.spans)
            scaling_text = format_table(
                [
                    "threads",
                    "Mops/s",
                    "p99.9 ns",
                    "latch wait",
                    "retrain stall",
                    "retries",
                ],
                [
                    [
                        r.threads,
                        f"{r.throughput_mops:.2f}",
                        f"{r.p999_ns:.0f}",
                        f"{100 * r.latch_wait_share:.1f}%",
                        f"{100 * r.retrain_stall_share:.1f}%",
                        f"{r.retries:,}",
                    ]
                    for r in results
                ],
                title=f"Thread scaling (sim, {spec.concurrency.describe()})",
            )
        else:
            scaling_text = _scaling_table(
                spec,
                workload,
                recorder,
                result.bytes_per_op,
                args,
                store,
                load=load,
                ops=ops,
                retrain=retrain,
            )
    if sink is not None:
        sink.close()

    print(
        format_table(
            ["metric", "value"],
            [
                ["index", spec.name],
                ["workload", workload.name],
                ["dataset", f"{args.dataset} ({len(load):,} loaded keys)"],
                ["operations", f"{len(recorder):,}"],
                ["trace sampling", f"{args.sample:g}"],
                ["build (sim ms)", f"{build_ns / 1e6:.2f}"],
                ["throughput (sim Mops/s)", f"{recorder.throughput_mops():.3f}"],
            ],
            title="Run (simulated hardware)",
        )
    )

    kind_rows = [
        [
            kind.value,
            f"{len(rec):,}",
            f"{rec.mean():.0f}",
            f"{rec.p50():.0f}",
            f"{rec.p99():.0f}",
            f"{rec.p999():.0f}",
        ]
        for kind, rec in sorted(
            result.by_kind.items(), key=lambda kv: -len(kv[1])
        )
    ]
    print()
    print(
        format_table(
            ["op kind", "ops", "mean ns", "p50 ns", "p99 ns", "p99.9 ns"],
            kind_rows,
            title="Latency by operation kind (histogram backend)",
        )
    )

    summary = trace_summary(tracer.records)
    event_rows = [
        [
            etype,
            f"{tracer.count(etype):,}",
            f"{summary.get(etype, {}).get('events', 0):,}",
            f"{summary.get(etype, {}).get('keys', 0):,}",
            f"{summary.get(etype, {}).get('cost_ns', 0.0) / 1e3:.1f}",
        ]
        for etype in EventType.ALL
        if tracer.count(etype)
    ]
    print()
    print(
        format_table(
            ["event", "emitted", "sampled", "keys", "cost (sim us)"],
            event_rows or [["(no lifecycle events)", "-", "-", "-", "-"]],
            title="Lifecycle events",
        )
    )

    if parallel:
        print()
        print(_worker_balance_table(store))
        print()
        print(health_text)
    if args.spans:
        print()
        print(_span_report(all_spans, args.span_quantile))
    print()
    print(
        format_table(
            ["stat", "value"],
            [
                ["leaf count", f"{stats.leaf_count:,}"],
                [
                    "depth avg/max",
                    f"{stats.depth_avg:.2f} / {stats.depth_max}",
                ],
                ["retrains", f"{stats.retrain_count:,}"],
                ["retrained keys", f"{stats.retrain_keys:,}"],
                *[[k, f"{v:,}"] for k, v in sorted(stats.extra.items())],
            ],
            title=f"Index structure ({spec.name})",
        )
    )
    if scaling_text:
        print()
        print(scaling_text)
    print()
    print(profiler.explain())

    if args.prom_out:
        with open(args.prom_out, "w") as fp:
            fp.write(prometheus_text(metrics, tracer))
        print(f"\nwrote Prometheus exposition to {args.prom_out}")
    if args.trace_out:
        print(f"wrote JSONL trace to {args.trace_out}")
    if args.span_out:
        n = write_spans_jsonl(all_spans, args.span_out)
        print(f"wrote {n} spans to {args.span_out}")
    if args.chrome_out:
        n = write_chrome_trace(all_spans, args.chrome_out)
        print(
            f"wrote {n} Chrome trace events to {args.chrome_out} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    if args.name not in DATASETS:
        print(
            f"unknown dataset {args.name!r}; one of {sorted(DATASETS)}",
            file=sys.stderr,
        )
        return 2
    keys = DATASETS[args.name](args.n, seed=args.seed)
    if args.dump:
        for k in keys:
            print(k)
        return 0
    gaps = [b - a for a, b in zip(keys, keys[1:])]
    rng = random.Random(args.seed)
    print(
        format_table(
            ["property", "value"],
            [
                ["keys", f"{len(keys):,}"],
                ["min", keys[0]],
                ["max", keys[-1]],
                ["median gap", sorted(gaps)[len(gaps) // 2] if gaps else "-"],
                ["max gap", max(gaps) if gaps else "-"],
                ["sample", rng.choice(keys)],
            ],
            title=f"dataset {args.name!r}",
        )
    )
    return 0


def _add_concurrency_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="range-partition the store across K shards served in this "
        "process (each shard owns its own index instance); with "
        "--workers N, K may not exceed N",
    )
    sub_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serve through N real worker processes (one range partition "
        "each, shared-memory op transport); simulated numbers are "
        "unchanged, wall-clock throughput scales with cores",
    )
    sub_parser.add_argument(
        "--restart-budget",
        type=int,
        default=0,
        help="recovery attempts per worker before the engine degrades: a "
        "dead (or timed-out) worker is respawned, its partition rebuilt "
        "from the retained recipe, and the in-flight command replayed "
        "exactly once (0 = fail-stop, the previous behaviour)",
    )
    sub_parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-command deadline; a worker that overruns it is killed "
        "and handled through the same recovery path as a crash "
        "(default: no deadline, stall warnings only)",
    )
    sub_parser.add_argument(
        "--degraded",
        choices=("fail", "partial"),
        default="fail",
        help="after the restart budget is exhausted: 'fail' raises "
        "WorkerDiedError (default), 'partial' keeps serving the "
        "surviving shards (reads return holes, writes to the lost range "
        "raise ShardUnavailableError)",
    )
    sub_parser.add_argument(
        "--threads",
        type=_parse_threads,
        default=[],
        help='project the measured profile onto these thread counts, e.g. '
        '"1,8,32" (off when empty)',
    )
    sub_parser.add_argument(
        "--projection",
        choices=("analytic", "sim", "measured"),
        default="sim",
        help="thread-scaling model: the discrete-event concurrency "
        "simulator (sim), the closed-form bandwidth curve (analytic), or "
        "the real process-parallel engine at each count (measured)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Learned-index reproduction toolkit "
        "(all performance numbers are simulated; see DESIGN.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list indexes and capabilities")

    bench = sub.add_parser("bench", help="run one index/workload combination")
    bench.add_argument("--index", default="alex", help="index name (see info)")
    bench.add_argument(
        "--workload",
        default="ycsb-b",
        help=f"one of {sorted(WORKLOADS)}",
    )
    bench.add_argument(
        "--dataset", default="ycsb", choices=sorted(DATASETS), help="key set"
    )
    bench.add_argument("--keys", type=int, default=50_000)
    bench.add_argument("--ops", type=int, default=20_000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="group runs of consecutive reads into get_many batches, "
        "consecutive writes into put_many batches, and consecutive "
        "same-length scans into scan_many batches of this size "
        "(1 = per-key dispatch)",
    )
    bench.add_argument(
        "--progress",
        action="store_true",
        help="print live progress/throughput lines to stderr",
    )
    _add_concurrency_flags(bench)

    report = sub.add_parser(
        "report",
        help="run one combination with tracing/metrics and print a report",
    )
    report.add_argument("--index", default="alex", help="index name (see info)")
    report.add_argument(
        "--workload", default="ycsb-d", help=f"one of {sorted(WORKLOADS)}"
    )
    report.add_argument(
        "--dataset", default="ycsb", choices=sorted(DATASETS), help="key set"
    )
    report.add_argument("--keys", type=int, default=50_000)
    report.add_argument("--ops", type=int, default=20_000)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="batch consecutive reads/writes/scans (get_many/put_many/"
        "scan_many) up to this size (1 = per-key dispatch)",
    )
    report.add_argument(
        "--sample",
        type=float,
        default=1.0,
        help="lifecycle-trace sampling rate in [0, 1] "
        "(event counts stay exact at any rate)",
    )
    report.add_argument(
        "--trace-out", default="", help="write the sampled trace as JSONL"
    )
    report.add_argument(
        "--prom-out",
        default="",
        help="write Prometheus-style text exposition of the run's metrics",
    )
    report.add_argument(
        "--progress",
        action="store_true",
        help="print live progress/throughput lines to stderr",
    )
    report.add_argument(
        "--spans",
        action="store_true",
        help="record causal span trees (request -> batch -> shard -> "
        "worker -> event) through the sharded engine; needs --shards or "
        "--workers >= 2",
    )
    report.add_argument(
        "--span-sample",
        type=float,
        default=1.0,
        help="head-based span sampling rate in [0, 1]: a request is "
        "recorded whole or not at all (request counts stay exact)",
    )
    report.add_argument(
        "--span-quantile",
        type=float,
        default=0.9,
        help="attribute the slowest (1 - q) fraction of requests in the "
        "tail-latency table (default 0.9 = slowest 10%%)",
    )
    report.add_argument(
        "--span-out", default="", help="write recorded spans as JSONL"
    )
    report.add_argument(
        "--chrome-out",
        default="",
        help="write recorded spans as Chrome trace-event JSON "
        "(chrome://tracing / ui.perfetto.dev)",
    )
    report.add_argument(
        "--top",
        action="store_true",
        help="live `top`-style line on stderr: progress plus per-worker "
        "health while the run executes (--shards or --workers only)",
    )
    report.add_argument(
        "--stall-threshold",
        type=float,
        default=5.0,
        help="seconds a worker command may stay unanswered before the "
        "worker is flagged stalled (default 5)",
    )
    _add_concurrency_flags(report)

    ds = sub.add_parser("datasets", help="inspect a synthetic dataset")
    ds.add_argument("--name", default="ycsb")
    ds.add_argument("--n", type=int, default=10_000)
    ds.add_argument("--seed", type=int, default=0)
    ds.add_argument("--dump", action="store_true", help="print raw keys")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "bench": cmd_bench,
        "report": cmd_report,
        "datasets": cmd_datasets,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
