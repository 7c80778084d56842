#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs untraced and traced passes alternately and reports the per-layer
metrics plus the tracing overhead.  Every call's answer is checked against
an oracle outside the timed call, and the whole store is read back at the
end.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are host-drift normalised (see ``harness.py``); the lines above
the JSON show each raw value and the reference-kernel speed beside it.
The benchmark builds nothing: it imports the system under test from
``src/`` of the checkout it sits in, and exits non-zero without a result
when that is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Timed passes a run makes at least, however short ``--seconds`` is.
MIN_PASSES = 6
#: Store builds a stationary (non-epoch) run times for ``setup_s``.
SETUP_REPS = 5
#: Largest share of the traced wall time the layer self-times may miss.
LAYER_SUM_TOLERANCE = 0.02
#: Traced passes whose raw spans are written to the span file.
SPAN_FILE_PASSES = 2
#: Calls per group of passes the tail latency is taken over.
TAIL_GROUP_CALLS = 2000


def import_system() -> None:
    """Put the checkout's ``src/`` on the path; exit when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: the system under test is missing "
            f"(expected the repro package under {SRC})\n"
        )
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def source_digest() -> str:
    """Short digest of the system's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "tests")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:12]


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The engine's shared-memory segments start the tracker as a process
    of its own, which would otherwise outlive this one (and linger as a
    zombie where nothing reaps orphans).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


@dataclasses.dataclass
class PassResult:
    raw_s: float
    speed: float
    ops: int
    calls: list
    traced: bool
    wrong_ops: int
    #: Raw-to-normalised time factor of this pass.
    factor: float = 0.0
    ledger: object = None
    answers: Optional[list] = None


class Bench:
    """One run: builds, passes, checks, and the numbers they produce."""

    def __init__(self, plan, seconds: float, trace: bool, span_path: Optional[str]):
        from harness import Calibrator, HostProbe, MemoryProbe
        from layers import Tracer

        self.plan = plan
        self.seconds = seconds
        self.trace = trace
        self.span_path = span_path
        self.cal = Calibrator()
        self.host = HostProbe()
        self.mem = MemoryProbe()
        self.tracer = Tracer() if trace else None
        self.setups: List[tuple] = []
        self.passes: List[PassResult] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.wrong = 0
        self.ref_ledger = None
        self.ref_ops = 0
        self.ref_writes = 0
        self.ref_stats = (0, 0)
        self.layer = {
            "self_ns": {}, "calls": {}, "charge_calls": 0, "ops": 0,
            "wall_ns": 0.0, "norm_ns": {}, "scan_ns": [],
            "engine_parent_ns": 0.0, "engine_busy_ns": 0.0,
            "engine_critical_ns": 0.0, "skew_weighted": 0.0,
            "worker_scan_p50_ns": [], "span_passes": 0,
        }
        self.utilization: List[float] = []

    # -- building ---------------------------------------------------------

    def build(self, traced: bool = False):
        from layers import STORE_LAYERS, Tracer
        from workloads import build_target

        plan = self.plan
        worker_tracer = None
        if traced and plan.workers:
            # Workers fork from this process: patch before they exist.
            worker_tracer = Tracer()
            worker_tracer.install(STORE_LAYERS)
            worker_tracer.install_worker_report()
        try:
            target, raw, speed = self.cal.around(lambda: build_target(plan))
        finally:
            if worker_tracer is not None:
                worker_tracer.uninstall()
        self.setups.append((raw, speed))
        self.mem.sample_children()
        return target

    # -- one pass ---------------------------------------------------------

    def run_slice(
        self, target, i: int, traced: bool = False, keep_answers: bool = False
    ) -> PassResult:
        from harness import TimedTarget, normalise
        from layers import ENGINE_LAYERS, STORE_LAYERS
        from repro.bench.runner import execute_ops

        plan = self.plan
        ops = plan.slices[i]
        tt = TimedTarget(
            target.adapter, engine=target.engine if traced else None
        )
        perf = target.perf
        tracer = self.tracer

        def go():
            mark = perf.begin()
            if traced:
                with tracer.span("runner", "execute_ops"):
                    execute_ops(tt, ops, perf, batch_size=plan.batch_size)
            else:
                execute_ops(tt, ops, perf, batch_size=plan.batch_size)
            return perf.end(mark)

        if traced:
            tracer.install(ENGINE_LAYERS if plan.workers else STORE_LAYERS)
        try:
            ledger, raw, speed = self.cal.around(go)
        except Exception as exc:  # a failing op counts, the run goes on
            self.problems.append(f"pass raised {type(exc).__name__}: {exc}")
            self.cal.forget()
            return PassResult(0.0, 0.0, len(ops), [], traced, len(ops))
        finally:
            if traced:
                tracer.uninstall()
        expected = plan.expected[i]
        wrong = 0
        if len(tt.answers) != len(expected):
            wrong = len(ops)
            self.problems.append(
                f"{len(tt.answers)} calls made, {len(expected)} expected"
            )
        else:
            for got, want, (_kind, n, _ns) in zip(tt.answers, expected, tt.calls):
                if got != want:
                    wrong += n
        if wrong and not self.problems:
            self.problems.append(f"{wrong} ops answered wrongly")
        res = PassResult(
            raw, speed, len(ops), tt.calls, traced, wrong,
            factor=normalise(1.0, speed), ledger=ledger,
            answers=tt.answers if keep_answers else None,
        )
        if traced:
            self._absorb_trace(target, tt, res)
        return res

    def _absorb_trace(self, target, tt, res: PassResult) -> None:
        from layers import merged_worker_extras, summarize

        tracer = self.tracer
        agg = self.layer
        summary = summarize(tracer.spans)
        if self.span_path and agg["span_passes"] < SPAN_FILE_PASSES:
            tracer.write_jsonl(self.span_path, append=agg["span_passes"] > 0)
            agg["span_passes"] += 1
        tracer.spans.clear()
        f = res.factor
        for layer, ns in summary["self_ns"].items():
            agg["self_ns"][layer] = agg["self_ns"].get(layer, 0) + ns
            agg["norm_ns"][layer] = agg["norm_ns"].get(layer, 0.0) + ns * f
        for layer, n in summary["calls"].items():
            agg["calls"][layer] = agg["calls"].get(layer, 0) + n
        agg["scan_ns"].extend(ns * f for ns in summary["scan_ns"])
        agg["wall_ns"] += res.raw_s * 1e9
        agg["ops"] += res.ops
        agg["charge_calls"] += tracer.charge_calls
        tracer.charge_calls = 0
        if target.engine is None:
            return
        for call_ns, busy, wops in tt.engine_calls:
            crit = max(busy) if busy else 0.0
            agg["engine_parent_ns"] += (call_ns - crit) * f
            agg["engine_critical_ns"] += crit
            agg["engine_busy_ns"] += sum(busy) * f
            total = sum(wops)
            if total:
                agg["skew_weighted"] += max(wops) / (total / len(wops)) * total
        worker = merged_worker_extras(target.stats().extra)
        for layer, ns in worker["self_ns"].items():
            agg["self_ns"]["w." + layer] = agg["self_ns"].get("w." + layer, 0) + ns
            agg["norm_ns"]["w." + layer] = (
                agg["norm_ns"].get("w." + layer, 0.0) + ns * f
            )
        for layer, n in worker["calls"].items():
            agg["calls"]["w." + layer] = agg["calls"].get("w." + layer, 0) + n
        agg["charge_calls"] += worker["charge_calls"]
        if worker["scan_p50_ns"]:
            agg["worker_scan_p50_ns"].append(worker["scan_p50_ns"] * f)
        self.utilization.append(max(target.engine.worker_utilization()))

    # -- reference segment and guards --------------------------------------

    def note_reference(self, res: PassResult, i: int, stats_delta) -> None:
        """Record the ledger of one fixed segment; every later copy of the
        segment must reproduce it exactly."""
        ledger = res.ledger.counters.as_dict()
        if self.ref_ledger is None:
            self.ref_ledger = res.ledger
            self.ref_ops = res.ops
            self.ref_writes = self.plan.writes_per_slice[i]
            self.ref_stats = stats_delta
        elif ledger != self.ref_ledger.counters.as_dict():
            self.problems.append(
                "simulated ledger differs between identical segments: "
                f"{ledger} vs {self.ref_ledger.counters.as_dict()}"
            )

    def check_persisted_ledger(self, scale: str) -> None:
        """The reference ledger must also match earlier runs of this seed
        on the same code (the file name carries a digest of the sources,
        so a change to the system or the benchmark starts a new record)."""
        if self.ref_ledger is None:
            return
        path = os.path.join(
            OUT_DIR, "ledger",
            f"{self.plan.workload}-{scale}-seed{self.plan.seed}"
            f"-{source_digest()}.json",
        )
        current = self.ref_ledger.counters.as_dict()
        if os.path.isfile(path):
            with open(path) as fh:
                previous = json.load(fh)
            if previous != current:
                self.problems.append(
                    f"simulated ledger differs from an earlier run of seed "
                    f"{self.plan.seed}: {current} vs {previous}"
                )
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(current, fh, sort_keys=True)

    def check_final(self, target) -> None:
        from workloads import check_final_state

        wrong = check_final_state(target, self.plan.final_keys)
        if wrong:
            self.wrong += wrong
            self.problems.append(f"final state: {wrong} keys wrong")

    def _stats_pair(self, target):
        st = target.stats()
        return st.retrain_count, st.extra.get("leaf_splits", 0)

    def _account(self, res: PassResult) -> None:
        self.passes.append(res)
        self.attempted += res.ops
        self.wrong += res.wrong_ops

    def _done(self, start: float, n: int) -> bool:
        return n >= MIN_PASSES and time.perf_counter() - start >= self.seconds

    # -- the two run shapes -------------------------------------------------

    def run_epochs(self) -> None:
        """Every pass replays the stream on a freshly built target."""
        plan = self.plan
        # Warm-up epoch, untimed: caches, lazy imports, allocator.
        target = self.build()
        try:
            before = self._stats_pair(target)
            res = self.run_slice(target, 0, keep_answers=bool(plan.workers))
            after = self._stats_pair(target)
            self.note_reference(
                res, 0, (after[0] - before[0], after[1] - before[1])
            )
            self.attempted += res.ops
            self.wrong += res.wrong_ops
            self.check_final(target)
            if plan.workers:
                self._cross_check(res)
        finally:
            self.mem.sample_children()
            target.close()
        self.cal.forget()
        start = time.perf_counter()
        k = 0
        while True:
            traced = self.trace and k % 2 == 1
            target = self.build(traced=traced)
            try:
                res = self.run_slice(target, 0, traced=traced)
                if res.ops and res.raw_s:
                    self.note_reference(res, 0, self.ref_stats)
                self._account(res)
                k += 1
                last = self._done(start, k)
                if last:
                    self.check_final(target)
            finally:
                self.mem.sample_children()
                target.close()
            self.cal.forget()
            if last:
                break

    def _cross_check(self, engine_res: PassResult) -> None:
        """Engine answers must equal the in-process store's, bit for bit."""
        plan = dataclasses.replace(self.plan, workers=0)
        from harness import TimedTarget
        from repro.bench.runner import execute_ops
        from workloads import build_target

        target = build_target(plan)
        tt = TimedTarget(target.adapter)
        execute_ops(tt, plan.slices[0], target.perf, batch_size=plan.batch_size)
        if tt.answers != engine_res.answers:
            self.problems.append("engine answers differ from in-process answers")
            self.wrong += 1

    def run_stationary(self) -> None:
        """One store serves every pass; passes cycle through the op pool."""
        plan = self.plan
        target = None
        for _ in range(SETUP_REPS):
            target = self.build()
            before = self._stats_pair(target)
            res = self.run_slice(target, 0)  # warm-up, untimed
            after = self._stats_pair(target)
            self.note_reference(
                res, 0, (after[0] - before[0], after[1] - before[1])
            )
            self.attempted += res.ops
            self.wrong += res.wrong_ops
        self.cal.forget()
        start = time.perf_counter()
        k = 0
        n_slices = len(plan.slices)
        while not self._done(start, k):
            traced = self.trace and k % 2 == 1
            i = 1 + k % (n_slices - 1) if n_slices > 1 else 0
            self._account(self.run_slice(target, i, traced=traced))
            k += 1
        self.check_final(target)
        self.mem.sample_children()
        target.close()

    # -- metrics ------------------------------------------------------------

    def _timed_passes(self, traced: bool) -> List[PassResult]:
        return [p for p in self.passes if p.traced == traced and p.raw_s > 0]

    def end_to_end(self) -> Dict[str, dict]:
        """The user-visible metrics, normalised, each with its raw twin."""
        from harness import normalise, percentile, tail_percentile

        passes = self._timed_passes(False)
        out: Dict[str, dict] = {}

        def put(name, unit, norm, raw, **info):
            out[name] = {"value": norm, "unit": unit, "raw": raw, **info}

        if passes:
            put(
                "throughput_ops_s", "ops/s",
                statistics.median(p.ops / normalise(p.raw_s, p.speed) for p in passes),
                statistics.median(p.ops / p.raw_s for p in passes),
            )
            for name, kind in (("read_p50_us", "read"), ("write_p50_us", "write")):
                norm = [ns / 1e3 * p.factor for p in passes for k, _n, ns in p.calls if k == kind]
                raw = [ns / 1e3 for p in passes for k, _n, ns in p.calls if k == kind]
                if norm:
                    put(
                        name, "us", statistics.median(norm), statistics.median(raw),
                        samples=len(norm),
                    )
            # Consecutive passes pool into groups of >= TAIL_GROUP_CALLS
            # calls (one group when the run has fewer); the tail is the
            # median over groups of each group's tail percentile, so one
            # scheduler stall cannot set the run's value.
            groups, cur = [], []
            for p in passes:
                cur.extend((ns / 1e3 * p.factor, ns / 1e3) for _k, _n, ns in p.calls)
                if len(cur) >= TAIL_GROUP_CALLS:
                    groups.append(cur)
                    cur = []
            if cur and not groups:
                groups.append(cur)
            size = min(len(g) for g in groups)
            pct = tail_percentile(size, self.plan.tail_cap)
            put(
                "latency_tail_us", "us",
                statistics.median(percentile([n for n, _ in g], pct) for g in groups),
                statistics.median(percentile([r for _, r in g], pct) for g in groups),
                percentile_used=pct, samples=size, groups=len(groups),
            )
        if self.setups:
            put(
                "setup_s", "s",
                statistics.median(normalise(r, s) for r, s in self.setups),
                statistics.median(r for r, _ in self.setups),
                samples=len(self.setups),
            )
        peak = self.mem.peak_mb()
        put("peak_rss_mb", "MB", peak, peak)
        ratio = self.wrong / self.attempted if self.attempted else 1.0
        put("fail_ratio", "ratio", ratio, ratio)
        return out

    def per_layer(self) -> Dict[str, dict]:
        """Layer metrics from the traced passes (exact ones from ledgers)."""
        from harness import normalise

        agg = self.layer
        ops = agg["ops"] or 1
        engine = bool(self.plan.workers)
        pre = "w." if engine else ""  # in-process layers ran in the workers
        norm = agg["norm_ns"]
        calls = agg["calls"]
        out: Dict[str, dict] = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def us(layer):
            return norm.get(layer, 0.0) / 1e3 / ops

        put("runner.self_us_per_op", us("runner"), "us")
        put("store.self_us_per_op", us(pre + "store"), "us")
        put("store.device_us_per_op", us(pre + "device"), "us")
        if engine:
            scan_p50 = (
                statistics.median(agg["worker_scan_p50_ns"]) / 1e3
                if agg["worker_scan_p50_ns"] else 0.0
            )
        else:
            scan_p50 = statistics.median(agg["scan_ns"]) / 1e3 if agg["scan_ns"] else 0.0
        put("store.scan_p50_us", scan_p50, "us")
        put("index.self_us_per_op", us(pre + "index"), "us")
        put("structure.us_per_op", us(pre + "structure"), "us")
        put("structure.calls_per_op", calls.get(pre + "structure", 0) / ops, "count")
        put("leaf.us_per_op", us(pre + "leaf"), "us")
        put("leaf.calls_per_op", calls.get(pre + "leaf", 0) / ops, "count")
        retrains, splits = self.ref_stats
        kw = self.ref_writes / 1000.0
        put("index.retrains_per_kwrite", retrains / kw if kw else 0.0, "count")
        put("index.leaf_splits_per_kwrite", splits / kw if kw else 0.0, "count")
        put("perf.charge_calls_per_op", agg["charge_calls"] / ops, "count")
        ledger = self.ref_ledger
        ref_ops = self.ref_ops or 1
        put("perf.sim_ns_per_op", ledger.time_ns / ref_ops if ledger else 0.0, "ns")
        put(
            "perf.events_per_op",
            ledger.counters.total() / ref_ops if ledger else 0.0, "count",
        )
        put("engine.worker_busy_us_per_op", agg["engine_busy_ns"] / 1e3 / ops, "us")
        put("engine.parent_us_per_op", agg["engine_parent_ns"] / 1e3 / ops, "us")
        put("engine.skew", agg["skew_weighted"] / ops if engine else 0.0, "ratio")
        put(
            "engine.utilization",
            statistics.median(self.utilization) if self.utilization else 0.0,
            "ratio",
        )
        put("host.calib_ops_s", statistics.median(self.cal.readings), "1/s")
        untraced = self._timed_passes(False)
        traced = self._timed_passes(True)
        put(
            "host.raw_throughput_ops_s",
            statistics.median(p.ops / p.raw_s for p in untraced) if untraced else 0.0,
            "ops/s",
        )
        if untraced and traced:
            t = statistics.median(p.ops / normalise(p.raw_s, p.speed) for p in traced)
            u = statistics.median(p.ops / normalise(p.raw_s, p.speed) for p in untraced)
            put("trace.overhead", t / u, "ratio")
        else:
            put("trace.overhead", 0.0, "ratio")
        put("trace.unattributed_share", self.unattributed_share(), "ratio")
        return out

    def layer_shares(self) -> Dict[str, float]:
        """Share of the traced wall time each layer's self time takes.

        In process every layer runs on the request's thread.  For the
        engine the wall time splits into the runner, the parent's part of
        each engine call, and the busiest worker's serving time; the
        in-worker layers are per-op costs summed over both workers.  The
        engine ships scan rounds to one worker at a time, so on scan calls
        the parent's part also holds the other worker's serving time.
        """
        agg = self.layer
        wall = agg["wall_ns"] or 1.0
        self_ns = agg["self_ns"]
        if self.plan.workers:
            crit = agg["engine_critical_ns"]
            return {
                "runner": self_ns.get("runner", 0) / wall,
                "engine.parent": (self_ns.get("engine", 0) - crit) / wall,
                "engine.busiest_worker": crit / wall,
            }
        from layers import LAYER_ORDER

        return {
            layer: self_ns[layer] / wall
            for layer in sorted(self_ns, key=LAYER_ORDER.index)
        }

    def unattributed_share(self) -> float:
        if not self.layer["ops"]:
            return 0.0
        return 1.0 - sum(self.layer_shares().values())


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report(bench: Bench, metrics: Dict[str, dict], args, fingerprint: dict) -> None:
    """Human-readable lines; the JSON result line is printed by ``main``."""
    from harness import REF_CALIB_OPS_S

    plan = bench.plan
    print(
        f"perfbench workload={plan.workload} seed={plan.seed} "
        f"trace={int(args.trace)} seconds={args.seconds} scale={args.scale} "
        f"passes={len(bench.passes)} setups={len(bench.setups)}"
    )
    print(
        "host: cpu_count={cpu_count} python={python} numpy={numpy} "
        "calib_ops_s min/median/max={calib_ops_s_min:.4g}/"
        "{calib_ops_s_median:.4g}/{calib_ops_s_max:.4g} "
        "steal_ticks={steal_ticks}".format(**fingerprint)
    )
    if not fingerprint["scaling_evidence"]:
        print(
            f"host: {fingerprint['cpu_count']}-core host -- these numbers "
            f"are non-scaling evidence"
        )
    print(
        f"{'metric':34s} {'value':>14s} {'unit':6s} {'raw':>14s}  note "
        f"(value = raw rescaled by kernel speed / {REF_CALIB_OPS_S:.3g} it/s "
        f"per pass; kernel median {fingerprint['calib_ops_s_median']:.4g} it/s)"
    )
    for name, m in metrics.items():
        note = ""
        if "percentile_used" in m:
            note = (
                f"p{m['percentile_used']:g} of >= {m['samples']} calls, "
                f"median of {m['groups']} group(s)"
            )
        elif "samples" in m:
            note = f"median of {m['samples']}"
        raw = _fmt(m["raw"]) if "raw" in m else ""
        print(f"{name:34s} {_fmt(m['value']):>14s} {m['unit']:6s} {raw:>14s}  {note}")
    if args.trace:
        shares = bench.layer_shares()
        print(
            f"layer self-time shares of traced wall time "
            f"(tolerance {LAYER_SUM_TOLERANCE:g}):"
        )
        for layer, share in shares.items():
            print(f"  {layer:28s} {share:8.4f}")
        print(f"  {'sum':28s} {sum(shares.values()):8.4f}")
    for problem in bench.problems[:10]:
        print(f"problem: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    import_system()
    sys.path.insert(0, HERE)
    from workloads import make_plan

    plan = make_plan(args.workload, args.seed, args.scale)
    span_path = None
    if args.trace:
        span_path = os.path.join(
            OUT_DIR, f"spans-{plan.workload}-seed{plan.seed}.jsonl"
        )
    bench = Bench(plan, args.seconds, bool(args.trace), span_path)
    try:
        if plan.epoch:
            bench.run_epochs()
        else:
            bench.run_stationary()
    finally:
        stop_resource_tracker()
    bench.check_persisted_ledger(args.scale)
    fingerprint = bench.host.fingerprint(bench.cal.readings, plan.workers)

    e2e = bench.end_to_end()
    layer = bench.per_layer() if args.trace else {}
    if args.trace and abs(bench.unattributed_share()) > LAYER_SUM_TOLERANCE:
        bench.problems.append(
            f"layer self-times miss {bench.unattributed_share():.4f} of the "
            f"traced wall time (tolerance {LAYER_SUM_TOLERANCE})"
        )
    report(bench, {**e2e, **layer}, args, fingerprint)
    correct = not bench.problems
    shown = layer if args.trace else {
        k: v for k, v in e2e.items() if k != "fail_ratio"
    }
    detail = {
        "workload": plan.workload,
        "seed": plan.seed,
        "trace": int(args.trace),
        "host": fingerprint,
        "metrics": {**e2e, **layer},
        "layer_shares": bench.layer_shares() if args.trace else {},
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.wrong,
                "metrics": {
                    k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in shown.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
