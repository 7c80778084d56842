"""Traced runs: spans recorded around calls into each layer's public methods.

The tracer wraps the public methods of the classes behind the live
objects (the store, its NVM device, the composed index, its internal
structure and leaves, the engine) for the duration of a traced pass and
restores them afterwards.  Each wrapped call records one span —
``(span_id, parent_id, op_id, layer, name, start_ns, end_ns)`` — in
memory; spans of one request (one call into the store) share an op id.
A layer's *self time* is its spans' durations minus their child spans'
durations, so the layer self-times telescope to the root spans' wall
time.  ``PerfContext.charge`` is counted, not timed.

The process-parallel engine forks its workers, so a traced engine is
built *after* the worker-side classes are patched: each worker records
its own spans, and the patched ``ComposedIndex.stats`` folds the worker's
per-layer totals into ``IndexStats.extra``, which the engine's public
``stats()`` sums across workers.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.concurrency.parallel import ParallelShardedStore
from repro.core.composer import ComposedIndex
from repro.core.insertion.gapped import GappedLeaf
from repro.core.structures.ats_structure import ATSStructure
from repro.core.structures.base import InternalStructure
from repro.perf.context import PerfContext
from repro.store.pmem import PMemDevice
from repro.store.viper import ViperStore

Span = Tuple[int, int, int, str, str, int, int]

#: Layer -> (class, public methods) wrapped in the process running the store.
STORE_LAYERS = (
    ("store", ViperStore, ("get", "get_many", "put", "put_many", "scan", "scan_many")),
    (
        "device",
        PMemDevice,
        (
            "read_record", "read_records", "write_record", "write_records",
            "allocate_page", "allocate_slots", "free_record",
        ),
    ),
    ("index", ComposedIndex, ("get", "get_many", "upsert", "insert", "insert_many", "scan_many")),
    ("structure", ATSStructure, ("lookup",)),
    ("structure", InternalStructure, ("lookup_many",)),
    ("leaf", GappedLeaf, ("get", "get_many", "upsert", "insert", "insert_batch", "scan_from")),
)
#: Parent-side engine calls (the worker-side layers run in the workers).
ENGINE_LAYERS = (
    ("engine", ParallelShardedStore, ("get", "get_many", "put", "put_many", "scan", "scan_many")),
)
#: Layers whose calls may open a root span (everything else must nest).
ROOT_LAYERS = ("runner", "store", "engine")
#: Layers in the order a request descends through them.
LAYER_ORDER = ("runner", "engine", "store", "index", "structure", "leaf", "device")
EXTRA_PREFIX = "perfbench."


class Tracer:
    """In-memory span recorder plus the method patches that feed it."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.spans: List[Span] = []
        self.charge_calls = 0
        self._stack: List[int] = []
        self._next_id = 0
        self._op_id = 0
        self._patches: List[Tuple[type, str, object]] = []

    # -- recording ------------------------------------------------------

    def _enter(self, layer: str) -> Tuple[int, int]:
        stack = self._stack
        if len(stack) <= 1 and layer != "runner":
            self._op_id += 1  # a new request enters below the runner
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        clock = self.clock
        rootable = layer in ROOT_LAYERS

        def traced(*args, **kwargs):
            if not (tracer._stack or rootable):
                return fn(*args, **kwargs)
            sid, parent = tracer._enter(layer)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.spans.append(
                    (sid, parent, tracer._op_id, layer, name, t0, t1)
                )

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Record one span around a block (the runner's pass)."""
        sid, parent = self._enter(layer)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans.append((sid, parent, -1, layer, name, t0, t1))

    # -- patching -------------------------------------------------------

    def _patch(self, cls: type, name: str, replacement) -> None:
        owner = next(c for c in cls.__mro__ if name in c.__dict__)
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement(original))

    def install(self, layers) -> None:
        """Wrap every listed method, and count ``PerfContext.charge`` calls
        made inside a recorded span."""
        for layer, cls, names in layers:
            for name in names:
                self._patch(
                    cls, name,
                    lambda fn, l=layer, n=f"{cls.__name__}.{name}": self._wrap(l, n, fn),
                )
        tracer = self

        def counting(fn):
            def charge(perf, event, n=1):
                if tracer._stack:
                    tracer.charge_calls += 1
                return fn(perf, event, n)

            return charge

        self._patch(PerfContext, "charge", counting)

    def install_worker_report(self) -> None:
        """Make ``ComposedIndex.stats`` carry this process's layer totals."""
        tracer = self

        def reporting(fn):
            def stats(index):
                out = fn(index)
                out.extra.update(tracer.worker_extras())
                return out

            return stats

        self._patch(ComposedIndex, "stats", reporting)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- summaries ------------------------------------------------------

    def worker_extras(self) -> Dict[str, float]:
        s = summarize(self.spans)
        out: Dict[str, float] = {}
        for layer, ns in s["self_ns"].items():
            out[f"{EXTRA_PREFIX}{layer}.self_ns"] = ns
            out[f"{EXTRA_PREFIX}{layer}.calls"] = s["calls"][layer]
        out[f"{EXTRA_PREFIX}charge_calls"] = self.charge_calls
        # Per-process key: the engine's stats merge sums numeric extras,
        # so a median travels under its own name and is not summed.
        if s["scan_ns"]:
            out[f"{EXTRA_PREFIX}scan_p50_ns.{os.getpid()}"] = statistics.median(
                s["scan_ns"]
            )
        return out

    def write_jsonl(self, path: str, append: bool = False) -> None:
        """Write the recorded spans out, one JSON object per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        keys = ("id", "parent", "op", "layer", "name", "start_ns", "end_ns")
        with open(path, "a" if append else "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: List[Span]) -> dict:
    """Per-layer self time and call counts of a span list.

    ``calls`` counts only spans whose parent is in another layer, so a
    leaf ``insert`` delegating to the leaf's own ``upsert`` is one call.
    ``scan_ns`` lists the durations of store-level scan calls.
    """
    child_ns: Dict[int, int] = defaultdict(int)
    layer_of: Dict[int, str] = {}
    for sid, parent, _op, layer, _name, t0, t1 in spans:
        layer_of[sid] = layer
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    scan_ns: List[int] = []
    for sid, parent, _op, layer, name, t0, t1 in spans:
        dur = t1 - t0
        self_ns[layer] += dur - child_ns[sid]
        if parent < 0 or layer_of.get(parent) != layer:
            calls[layer] += 1
        if layer == "store" and name.endswith((".scan", ".scan_many")):
            scan_ns.append(dur)
    return {"self_ns": dict(self_ns), "calls": dict(calls), "scan_ns": scan_ns}


def merged_worker_extras(extra: dict) -> dict:
    """Unpack the summed worker totals from an engine's ``stats().extra``."""
    self_ns: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    scan_p50: List[float] = []
    charge_calls = 0.0
    for key, value in extra.items():
        if not key.startswith(EXTRA_PREFIX):
            continue
        rest = key[len(EXTRA_PREFIX):]
        if rest.endswith(".self_ns"):
            self_ns[rest[: -len(".self_ns")]] = value
        elif rest.endswith(".calls"):
            calls[rest[: -len(".calls")]] = value
        elif rest.startswith("scan_p50_ns."):
            scan_p50.append(value)
        elif rest == "charge_calls":
            charge_calls = value
    return {
        "self_ns": self_ns,
        "calls": calls,
        "scan_p50_ns": statistics.median(scan_p50) if scan_p50 else 0.0,
        "charge_calls": charge_calls,
    }
