"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — list every registered index with its category, figure
  membership, and Table-I capabilities.
* ``bench`` — run one (index, workload, dataset) combination end-to-end
  through the Viper store and print simulated throughput/latency.
* ``report`` — the same run as ``bench`` plus telemetry: lifecycle
  trace, metrics, profiler breakdown, and (on the sharded engine) worker
  health and causal spans.
* ``datasets`` — summarise a synthetic dataset (and optionally dump keys).

Index resolution goes through :mod:`repro.registry`: any canonical name
or alias listed by ``info`` works, case-insensitively.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from typing import List, Union

from repro import PerfContext, ViperStore, registry
from repro.bench import ExecutionResult, StoreAdapter, execute_ops, format_table
from repro.concurrency import (
    OpProfile,
    ParallelShardedStore,
    measure_scaling,
    parallel_sharded_store,
    retrain_cadence,
    simulate_scaling,
)
from repro.core.interfaces import IndexStats
from repro.errors import InvalidConfigurationError
from repro.obs import (
    EngineTopView,
    EventType,
    MetricsRegistry,
    ProgressReporter,
    SpanRecorder,
    Tracer,
    attribute_spans,
    event_counts,
    prometheus_text,
    summarize_spans,
    trace_summary,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.spans import SPAN_KINDS
from repro.perf import Profiler
from repro.registry import IndexSpec, UnknownIndexError
from repro.workloads import generate_operations
from repro.workloads.datasets import DATASETS
from repro.workloads.ycsb import (
    READ_ONLY,
    STANDARD_WORKLOADS,
    WRITE_ONLY,
    Operation,
    WorkloadSpec,
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


def _ranged(cast, ok, expected: str):
    """An argparse ``type=`` that casts a flag's value and range-checks
    it, so a bad value fails at parse time like ``--threads`` does."""

    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_AT_LEAST_1 = _ranged(int, lambda v: v >= 1, "an integer >= 1")
_AT_LEAST_0 = _ranged(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _ranged(float, lambda v: v > 0.0, "a number > 0")
_RATE = _ranged(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_QUANTILE = _ranged(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _build_store(spec, perf, args, **telemetry):
    """One ViperStore, or the sharded engine over K shards or N workers.

    ``--shards K`` runs the engine (:mod:`repro.concurrency.parallel`)
    over its loopback transport: K range partitions served in this
    process.  ``--workers N`` runs it over N worker processes, one
    partition each.  Simulated charges land on ``perf`` either way —
    every shard ships its counter deltas back with each reply — so the
    report below is unchanged; wall-clock rows are what the extra
    processes buy.
    ``telemetry`` instruments the engine: ``trace_rate``, ``span_rate``
    (> 0 records causal span trees, :mod:`repro.obs.spans`, across the
    parent and all workers) and ``stall_threshold_s``.
    ``--restart-budget``/``--worker-timeout``/``--degraded`` configure
    the supervision loop (:mod:`repro.concurrency.supervise`): dead or
    deadline-overrunning workers are respawned, rebuilt, and their
    in-flight command replayed up to the budget before the engine
    degrades.
    """
    if args.workers > 1:
        n, transport = args.workers, "auto"
    elif args.shards > 1:
        n, transport = args.shards, "loopback"
    else:
        return ViperStore(spec.build(perf), perf)
    return parallel_sharded_store(
        spec,
        n,
        transport=transport,
        perf=perf,
        restart_budget=args.restart_budget,
        worker_timeout_s=args.worker_timeout,
        degraded=args.degraded,
        **telemetry,
    )


@dataclass
class _Run:
    """One measured ``bench``/``report`` run; its store is closed."""

    spec: IndexSpec
    workload: WorkloadSpec
    load: List[int]
    ops: List[Operation]
    perf: PerfContext
    store: Union[ViperStore, ParallelShardedStore]
    build_ns: float
    result: ExecutionResult
    wall_s: float
    #: Index stats after the ops, merged across shards on the engine.
    stats: IndexStats
    #: The worker health table, taken before the engine closed (only
    #: when the run drained telemetry).
    health: str = ""

    @property
    def parallel(self) -> bool:
        return isinstance(self.store, ParallelShardedStore)


def _run(args, perf, profiler=None, metrics=None, top=False, **telemetry):
    """The run ``bench`` and ``report`` share; ``report`` adds telemetry.

    Checks every flag before any work, then builds the keys, the ops and
    the store, bulk loads, and executes the ops.  ``report`` passes its
    telemetry in: ``perf`` carries its tracer, ``profiler`` attributes
    every op, ``metrics`` takes the run's series and the workers'
    drained ones, ``top`` swaps the progress line for the live engine
    view, and ``telemetry`` instruments the engine (see
    :func:`_build_store`).  Returns exit code 2 after printing why a
    flag is bad.
    """
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
    if args.workers > 1 and args.shards > args.workers:
        print(
            f"--shards {args.shards} exceeds --workers {args.workers}: "
            "each worker process serves exactly one shard",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    keys = DATASETS[args.dataset](args.keys, seed=args.seed)
    if workload.insert > 0:
        load, insert_pool = split_load_and_inserts(keys, 0.5, seed=args.seed)
    else:
        load, insert_pool = list(keys), None
    try:
        ops = generate_operations(
            workload, args.ops, load, insert_pool, seed=args.seed
        )
    except InvalidConfigurationError as exc:
        print(
            f"{exc}: {workload.name} holds out half of --keys as insert "
            f"keys ({args.keys - len(load):,} of {args.keys:,}); raise "
            "--keys or lower --ops",
            file=sys.stderr,
        )
        return 2

    store = _build_store(spec, perf, args, **telemetry)
    parallel = isinstance(store, ParallelShardedStore)
    every = max(1, len(ops) // 20)
    if top and parallel:
        progress = EngineTopView(store, total=len(ops), every=every)
    elif args.progress:
        progress = ProgressReporter(total=len(ops), every=every)
    else:
        progress = None
    health = ""
    try:
        mark = perf.begin()
        store.bulk_load([(k, k) for k in load])
        build_ns = perf.end(mark).time_ns
        wall_start = time.perf_counter()
        result = execute_ops(
            StoreAdapter(store),
            ops,
            perf,
            profiler=profiler,
            batch_size=args.batch_size,
            progress=progress,
        )
        wall_s = time.perf_counter() - wall_start
        if metrics is not None:
            metrics.merge_from(result.metrics)
            if parallel:
                # Fold worker-side lifecycle counts, metric series, and
                # worker/event spans into the parent's instruments
                # before any of them are summarised.  The profiler
                # already saw every op through the perf deltas folded
                # into ``perf``.
                store.drain_obs(metrics=metrics, spans=perf.tracer.spans)
                health = _worker_health_table(store)
        stats = store.stats() if parallel else store.index.stats()
    finally:
        if parallel:
            store.close()
    return _Run(
        spec, workload, load, ops, perf, store, build_ns, result, wall_s,
        stats, health,
    )


def _scaling_table(run: _Run, args: argparse.Namespace, spans=None) -> str:
    """The ``--threads`` table: the run's profile projected by the
    concurrency simulator, or the real engine measured at each worker
    count (``--projection measured``).

    The simulator's ``LATCH_WAIT``/``RETRAIN_STALL`` events go to the
    run's tracer, if it has one, and its op spans to ``spans``.
    """
    spec = run.spec
    if args.projection == "measured":
        rows = measure_scaling(
            spec,
            [(k, k) for k in run.load],
            run.ops,
            args.threads,
            batch_size=max(args.batch_size, 512),
        )
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
    latency = run.result.latency
    retrain_every, retrain_stall_ns = retrain_cadence(run.stats, len(latency))
    workload = run.workload
    results = simulate_scaling(
        spec.concurrency,
        OpProfile(
            mean_ns=latency.mean(),
            p999_ns=latency.quantile(0.999),
            bytes_per_op=run.result.bytes_per_op,
            retrain_every=retrain_every,
            retrain_stall_ns=retrain_stall_ns,
        ),
        args.threads,
        write_fraction=workload.update + workload.insert + workload.rmw,
        seed=args.seed,
        tracer=run.perf.tracer,
        index_name=spec.name,
        spans=spans,
    )
    body = [
        [
            r.threads,
            f"{r.throughput_mops:.2f}",
            f"{r.p999_ns:.0f}",
            f"{100 * r.latch_wait_share:.1f}%",
            f"{100 * r.retrain_stall_share:.1f}%",
            f"{r.retries:,}",
            f"{r.retrain_stalls:,}",
        ]
        for r in results
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
            f"{row['busy_ms']:.1f}",
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
    """Span summary + tail-latency attribution over the wall-clock trees.

    Simulated spans get their own rows: their durations are simulated
    nanoseconds, which do not add to wall time."""
    summary = summarize_spans(all_spans)
    body = []
    for clock in ("wall", "sim"):
        for kind in SPAN_KINDS:
            agg = summary.get((kind, clock))
            if agg is None:
                continue
            label = kind if clock == "wall" else f"{kind} (sim)"
            body.append(
                [label, f"{agg['spans']:,}", f"{agg['dur_ns'] / 1e6:.2f}"]
            )
            for etype, n in sorted(agg.get("events", {}).items()):
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
    run = _run(args, PerfContext())
    if isinstance(run, int):
        return run
    latency = run.result.latency
    body = [
        ["index", run.spec.name],
        ["workload", run.workload.name],
        ["batch size", args.batch_size],
        ["shards", args.shards],
        ["dataset", f"{args.dataset} ({len(run.load):,} loaded keys)"],
        ["operations", f"{len(latency):,}"],
        ["build (sim ms)", f"{run.build_ns / 1e6:.2f}"],
        ["throughput (sim Mops/s)", f"{1e3 / latency.mean():.3f}"],
        ["mean latency (sim ns)", f"{latency.mean():.0f}"],
        ["p50 (sim ns)", f"{latency.quantile(0.5):.0f}"],
        ["p99.9 (sim ns)", f"{latency.quantile(0.999):.0f}"],
        ["bytes/op", f"{run.result.bytes_per_op:.0f}"],
    ]
    if run.parallel:
        body.insert(4, ["workers", args.workers])
        body.append(
            [
                "throughput (wall Mops/s)",
                f"{len(latency) / run.wall_s / 1e6:.3f}",
            ]
        )
    print(
        format_table(
            ["metric", "value"],
            body,
            title="Benchmark result (simulated hardware)",
        )
    )
    if run.parallel:
        print()
        print(_worker_balance_table(run.store))
    if args.threads:
        print()
        print(_scaling_table(run, args))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run one combination with full observability and print the report."""
    if args.spans and max(args.shards, args.workers) < 2:
        print(
            "--spans needs --shards or --workers >= 2 (span tracing "
            "instruments the sharded serving engine)",
            file=sys.stderr,
        )
        return 2
    perf = PerfContext()
    metrics = MetricsRegistry()
    # Exact lifecycle counts land in ``metrics``; sampled events (and,
    # after the drain, the workers' spans) in ``tracer.spans``.
    tracer = Tracer(rate=args.sample, seed=args.seed, metrics=metrics)
    perf.tracer = tracer
    profiler = Profiler(perf)
    run = _run(
        args,
        perf,
        profiler=profiler,
        metrics=metrics,
        top=args.top,
        trace_rate=args.sample,
        span_rate=args.span_sample if args.spans else 0.0,
        stall_threshold_s=args.stall_threshold,
    )
    if isinstance(run, int):
        return run
    result, stats = run.result, run.stats
    all_spans = []
    if run.parallel and run.store.spans is not None:
        all_spans = list(run.store.spans.spans)

    scaling_text = ""
    if args.threads:
        # Run the projection before the trace summary so its LATCH_WAIT /
        # RETRAIN_STALL events land in the lifecycle table below.
        sim_spans = None
        if args.spans:
            # Simulated op spans share the exporters with the measured
            # trees; the "sim" prefix and clock keep the two diffable
            # inside one file.
            sim_spans = SpanRecorder(
                rate=args.span_sample, seed=args.seed, prefix="sim"
            )
        scaling_text = _scaling_table(run, args, spans=sim_spans)
        if sim_spans is not None:
            all_spans.extend(sim_spans.spans)
    event_spans = [s for s in tracer.spans.spans if s.kind == "event"]
    if args.spans:
        all_spans += tracer.spans.spans

    print(
        format_table(
            ["metric", "value"],
            [
                ["index", run.spec.name],
                ["workload", run.workload.name],
                ["dataset", f"{args.dataset} ({len(run.load):,} loaded keys)"],
                ["operations", f"{len(result.latency):,}"],
                ["trace sampling", f"{args.sample:g}"],
                ["build (sim ms)", f"{run.build_ns / 1e6:.2f}"],
                [
                    "throughput (sim Mops/s)",
                    f"{1e3 / result.latency.mean():.3f}",
                ],
            ],
            title="Run (simulated hardware)",
        )
    )

    kind_rows = [
        [
            kind.value,
            f"{len(hist):,}",
            f"{hist.mean():.0f}",
            f"{hist.quantile(0.5):.0f}",
            f"{hist.quantile(0.99):.0f}",
            f"{hist.quantile(0.999):.0f}",
        ]
        for kind, hist in sorted(
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

    emitted = event_counts(metrics)
    summary = trace_summary(event_spans)
    event_rows = [
        [
            etype,
            f"{emitted[etype]:,}",
            f"{summary.get(etype, {}).get('events', 0):,}",
            f"{summary.get(etype, {}).get('keys', 0):,}",
            f"{summary.get(etype, {}).get('cost_ns', 0.0) / 1e3:.1f}",
        ]
        for etype in EventType.ALL
        if emitted.get(etype)
    ]
    print()
    print(
        format_table(
            ["event", "emitted", "sampled", "keys", "cost (sim us)"],
            event_rows or [["(no lifecycle events)", "-", "-", "-", "-"]],
            title="Lifecycle events",
        )
    )

    if run.parallel:
        print()
        print(_worker_balance_table(run.store))
        print()
        print(run.health)
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
            title=f"Index structure ({run.spec.name})",
        )
    )
    if scaling_text:
        print()
        print(scaling_text)
    print()
    print(profiler.explain())

    if args.prom_out:
        with open(args.prom_out, "w") as fp:
            fp.write(prometheus_text(metrics))
        print(f"\nwrote Prometheus exposition to {args.prom_out}")
    if args.trace_out:
        n = write_spans_jsonl(event_spans, args.trace_out)
        print(f"wrote {n} lifecycle event spans to {args.trace_out}")
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


def _add_run_flags(sub_parser: argparse.ArgumentParser, workload: str) -> None:
    """The flags of the run ``bench`` and ``report`` share; ``workload``
    is the command's default ``--workload``."""
    sub_parser.add_argument(
        "--index", default="alex", help="index name (see info)"
    )
    sub_parser.add_argument(
        "--workload", default=workload, help=f"one of {sorted(WORKLOADS)}"
    )
    sub_parser.add_argument(
        "--dataset", default="ycsb", choices=sorted(DATASETS), help="key set"
    )
    sub_parser.add_argument(
        "--keys",
        type=_AT_LEAST_1,
        default=50_000,
        help="dataset size; workloads that insert hold half of it out as "
        "insert keys",
    )
    sub_parser.add_argument("--ops", type=_AT_LEAST_1, default=20_000)
    sub_parser.add_argument("--seed", type=int, default=0)
    sub_parser.add_argument(
        "--batch-size",
        type=_AT_LEAST_1,
        default=1,
        help="group runs of consecutive reads into get_many batches, "
        "consecutive writes into put_many batches, and consecutive "
        "same-length scans into scan_many batches of this size "
        "(1 = per-key dispatch)",
    )
    sub_parser.add_argument(
        "--progress",
        action="store_true",
        help="print live progress/throughput lines to stderr",
    )
    sub_parser.add_argument(
        "--shards",
        type=_AT_LEAST_1,
        default=1,
        help="range-partition the store across K shards served in this "
        "process (each shard owns its own index instance); with "
        "--workers N, K may not exceed N",
    )
    sub_parser.add_argument(
        "--workers",
        type=_AT_LEAST_1,
        default=1,
        help="serve through N real worker processes (one range partition "
        "each, shared-memory op transport); simulated numbers are "
        "unchanged, wall-clock throughput scales with cores",
    )
    sub_parser.add_argument(
        "--restart-budget",
        type=_AT_LEAST_0,
        default=0,
        help="recovery attempts per worker before the engine degrades: a "
        "dead (or timed-out) worker is respawned, its partition rebuilt "
        "from the retained recipe, and the in-flight command replayed "
        "exactly once (0 = fail-stop, the previous behaviour)",
    )
    sub_parser.add_argument(
        "--worker-timeout",
        type=_POSITIVE,
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
        choices=("sim", "measured"),
        default="sim",
        help="thread-scaling model: the discrete-event concurrency "
        "simulator (sim), or the real process-parallel engine at each "
        "count (measured)",
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
    _add_run_flags(bench, workload="ycsb-b")

    report = sub.add_parser(
        "report",
        help="run one combination with tracing/metrics and print a report",
    )
    _add_run_flags(report, workload="ycsb-d")
    report.add_argument(
        "--sample",
        type=_RATE,
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
        "--spans",
        action="store_true",
        help="record causal span trees (request -> batch -> shard -> "
        "worker -> event) through the sharded engine; needs --shards or "
        "--workers >= 2",
    )
    report.add_argument(
        "--span-sample",
        type=_RATE,
        default=1.0,
        help="head-based span sampling rate in [0, 1]: a request is "
        "recorded whole or not at all (request counts stay exact)",
    )
    report.add_argument(
        "--span-quantile",
        type=_QUANTILE,
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
        type=_POSITIVE,
        default=5.0,
        help="seconds a worker command may stay unanswered before the "
        "worker is flagged stalled (default 5)",
    )

    ds = sub.add_parser("datasets", help="inspect a synthetic dataset")
    ds.add_argument("--name", default="ycsb")
    ds.add_argument("--n", type=_AT_LEAST_1, default=10_000)
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
