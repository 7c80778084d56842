"""APEX: a persistent-memory learned index (Lu et al., VLDB 2022).

The paper's introduction lists APEX among the updatable learned indexes
but the evaluation keeps every index in DRAM (Viper's design).  APEX
makes the opposite bet: the index itself lives in persistent memory, so
a crash loses almost nothing — at the price of paying Optane latency on
the data-node hot path.  This implementation reproduces APEX's three key
mechanisms on our simulated hardware:

* **Probe-and-stash data nodes** — a key's model-predicted slot is probed
  only within one 256-byte PM block (16 slots); keys that would need a
  longer shift go to a per-node stash instead.  One block read answers
  most lookups.
* **Selective DRAM metadata** — per-slot fingerprints and occupancy
  bitmaps live in DRAM, so misses are filtered without touching PM.
* **Near-instant recovery** — the structure is already persistent; only
  the DRAM accelerators are rebuilt by a single streaming pass.

The extension benchmark (``bench_ext_apex.py``) runs the trade-off:
APEX reads slower than DRAM-resident ALEX but recovers orders of
magnitude faster.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.approximation.base import LinearModel
from repro.core.approximation.lsa import fit_least_squares
from repro.core.interfaces import (
    Capabilities,
    IndexStats,
    Key,
    UpdatableIndex,
    Value,
    check_sorted_unique,
    check_uint64,
)
from repro.core.retraining.base import RetrainStats
from repro.errors import InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.obs.trace import EventType
from repro.perf.events import Event

#: Slots per probe window == one 256-byte Optane block of 16-byte pairs.
_WINDOW = 16
_PAIR_BYTES = 16


class _DataNode:
    """A PM-resident gapped array probed one block at a time."""

    __slots__ = ("model", "slot_keys", "slot_values", "stash", "n_keys",
                 "first_key")

    def __init__(self, keys: Sequence[Key], values: Sequence[Any],
                 density: float):
        n = len(keys)
        slots = max(_WINDOW, int(n / density) + _WINDOW)
        slope, intercept = fit_least_squares(keys, keys[0])
        scale = slots / max(1, n)
        self.model = LinearModel(slope * scale, intercept * scale, keys[0])
        self.slot_keys: List[Optional[Key]] = [None] * slots
        self.slot_values: List[Any] = [None] * slots
        self.stash: Dict[Key, Any] = {}
        self.n_keys = 0
        self.first_key = keys[0]
        for key, value in zip(keys, values):
            self._place_initial(key, value)

    def _window_of(self, key: Key) -> int:
        predicted = self.model.predict_clamped(key, len(self.slot_keys))
        return (predicted // _WINDOW) * _WINDOW

    def _place_initial(self, key: Key, value: Any) -> None:
        base = self._window_of(key)
        for slot in range(base, min(base + _WINDOW, len(self.slot_keys))):
            if self.slot_keys[slot] is None:
                self.slot_keys[slot] = key
                self.slot_values[slot] = value
                self.n_keys += 1
                return
        self.stash[key] = value
        self.n_keys += 1


class APEXIndex(UpdatableIndex):
    """Persistent-memory learned index with probe-and-stash data nodes."""

    name = "APEX"

    def __init__(
        self,
        node_size: int = 4096,
        density: float = 0.8,
        stash_limit_fraction: float = 0.1,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        if node_size < _WINDOW:
            raise InvalidConfigurationError(f"node_size must be >= {_WINDOW}")
        if not 0.0 < density <= 1.0:
            raise InvalidConfigurationError("density must be in (0, 1]")
        if not 0.0 < stash_limit_fraction <= 1.0:
            raise InvalidConfigurationError(
                "stash_limit_fraction must be in (0, 1]"
            )
        self.node_size = node_size
        self.density = density
        self.stash_limit_fraction = stash_limit_fraction
        self._nodes: List[_DataNode] = []
        self._fences: List[Key] = []
        self._n = 0
        self.retrain_stats = RetrainStats()

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._nodes = []
        self._fences = []
        self._n = len(items)
        if not items:
            return
        keys = [k for k, _ in items]
        values = [v for _, v in items]
        # Every key is written once to PM plus one model pass.
        self.perf.charge(Event.RETRAIN_KEY, len(items))
        self.perf.charge(
            Event.NVM_WRITE, (len(items) * _PAIR_BYTES + 255) // 256
        )
        for start in range(0, len(items), self.node_size):
            chunk_keys = keys[start : start + self.node_size]
            chunk_values = values[start : start + self.node_size]
            self._append_node(_DataNode(chunk_keys, chunk_values, self.density))

    def _append_node(self, node: _DataNode) -> None:
        self.perf.charge(Event.ALLOC)
        self._nodes.append(node)
        self._fences.append(node.first_key)

    def _route(self, key: Key) -> int:
        """Inner structure: DRAM-resident fence search (ALEX-style ATS,
        charged as one model hop + bounded correction)."""
        charge = self.perf.charge
        charge(Event.DRAM_HOP)
        charge(Event.MODEL_EVAL)
        return max(0, bisect_right(self._fences, key) - 1)

    # -- queries ----------------------------------------------------------

    def get(self, key: Key) -> Optional[Value]:
        if not self._nodes:
            return None
        node = self._nodes[self._route(key)]
        charge = self.perf.charge
        charge(Event.MODEL_EVAL)
        base = node._window_of(key)
        # DRAM fingerprints filter the window before PM is touched.
        charge(Event.COMPARE, 2)
        charge(Event.NVM_READ)  # the one probe block
        for slot in range(base, min(base + _WINDOW, len(node.slot_keys))):
            if node.slot_keys[slot] == key:
                return node.slot_values[slot]
        if node.stash:
            charge(Event.HASH)
            charge(Event.DRAM_HOP)
            if key in node.stash:
                charge(Event.NVM_READ)
                return node.stash[key]
        return None

    def __len__(self) -> int:
        return self._n

    # -- mutation -----------------------------------------------------------

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        check_uint64(key)
        if not self._nodes:
            self._append_node(_DataNode([key], [value], self.density))
            self._n = 1
            return None
        node = self._nodes[self._route(key)]
        charge = self.perf.charge
        charge(Event.MODEL_EVAL)
        base = node._window_of(key)
        charge(Event.NVM_READ)  # read-modify the probe block
        free = -1
        for slot in range(base, min(base + _WINDOW, len(node.slot_keys))):
            existing = node.slot_keys[slot]
            if existing == key:
                old = node.slot_values[slot]
                node.slot_values[slot] = value
                charge(Event.NVM_WRITE)
                return old
            if existing is None and free < 0:
                free = slot
        if key in node.stash:
            charge(Event.HASH)
            old = node.stash[key]
            node.stash[key] = value
            charge(Event.NVM_WRITE)
            return old
        if free >= 0:
            node.slot_keys[free] = key
            node.slot_values[free] = value
            charge(Event.NVM_WRITE)
        else:
            charge(Event.HASH)
            node.stash[key] = value
            charge(Event.NVM_WRITE)
        node.n_keys += 1
        self._n += 1
        if len(node.stash) > node.n_keys * self.stash_limit_fraction:
            self._smo(node)
        return None

    def _smo(self, node: _DataNode) -> None:
        """Structure modification: rebuild (and possibly split) the node."""
        mark = self.perf.begin()
        items = self._node_items(node, charge=False)
        keys = [k for k, _ in items]
        values = [v for _, v in items]
        self.perf.charge(Event.RETRAIN_KEY, len(keys))
        self.perf.charge(
            Event.NVM_WRITE, (len(keys) * _PAIR_BYTES + 255) // 256
        )
        idx = self._nodes.index(node)
        # Expansion rebuilds at a lower density so the probe windows have
        # fresh headroom; if even the expanded placement stashes too much
        # (the model no longer fits the keys) the node splits instead.
        expand_density = self.density * 0.75
        if len(keys) > self.node_size:
            replacements = None
        else:
            rebuilt = _DataNode(keys, values, expand_density)
            stash_budget = len(keys) * self.stash_limit_fraction / 2
            if len(rebuilt.stash) > stash_budget and len(keys) >= 2 * _WINDOW:
                replacements = None
            else:
                replacements = [rebuilt]
        if replacements is None:
            mid = len(keys) // 2
            replacements = [
                _DataNode(keys[:mid], values[:mid], expand_density),
                _DataNode(keys[mid:], values[mid:], expand_density),
            ]
        self.perf.charge(Event.ALLOC, len(replacements))
        self._nodes[idx : idx + 1] = replacements
        self._fences[idx : idx + 1] = [r.first_key for r in replacements]
        measured = self.perf.end(mark)
        self.retrain_stats.record(len(keys), measured.time_ns)
        if len(replacements) > 1:
            self.perf.trace(
                EventType.LEAF_SPLIT,
                index=self.name,
                leaf=idx,
                key_lo=keys[0],
                key_hi=keys[-1],
                keys=len(keys),
                count=len(replacements),
                reason="stash_overflow",
                cost_ns=measured.time_ns,
            )
        self.perf.trace(
            EventType.RETRAIN,
            index=self.name,
            leaf=idx,
            key_lo=keys[0],
            key_hi=keys[-1],
            keys=len(keys),
            count=len(replacements),
            reason="smo",
            cost_ns=measured.time_ns,
        )

    def delete(self, key: Key) -> bool:
        if not self._nodes:
            return False
        node = self._nodes[self._route(key)]
        charge = self.perf.charge
        charge(Event.MODEL_EVAL)
        base = node._window_of(key)
        charge(Event.NVM_READ)
        for slot in range(base, min(base + _WINDOW, len(node.slot_keys))):
            if node.slot_keys[slot] == key:
                node.slot_keys[slot] = None
                node.slot_values[slot] = None
                charge(Event.NVM_WRITE)
                node.n_keys -= 1
                self._n -= 1
                return True
        if key in node.stash:
            charge(Event.HASH)
            del node.stash[key]
            charge(Event.NVM_WRITE)
            node.n_keys -= 1
            self._n -= 1
            return True
        return False

    # -- iteration -----------------------------------------------------------

    def _node_items(self, node: _DataNode, charge: bool = True) -> List[Tuple[Key, Any]]:
        if charge:
            blocks = (len(node.slot_keys) * _PAIR_BYTES + 255) // 256
            self.perf.charge(Event.NVM_READ, max(1, blocks // 4))
        slot_items = [
            (k, node.slot_values[i])
            for i, k in enumerate(node.slot_keys)
            if k is not None
        ]
        merged = slot_items + list(node.stash.items())
        merged.sort()
        return merged

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if not self._nodes:
            return
        idx = max(0, bisect_right(self._fences, lo) - 1)
        self.perf.charge(Event.DRAM_HOP)
        while idx < len(self._nodes):
            node = self._nodes[idx]
            if node.first_key > hi and idx > 0:
                return
            for key, value in self._node_items(node):
                if key > hi:
                    return
                if key >= lo:
                    yield key, value
            idx += 1

    # -- recovery -----------------------------------------------------------

    def recover_metadata(self) -> float:
        """Rebuild the DRAM accelerators after a crash; the PM-resident
        structure itself needs nothing.  Returns simulated nanoseconds —
        APEX's headline: near-instant recovery."""
        mark = self.perf.begin()
        # One streaming pass to rebuild fingerprints/bitmaps: sequential
        # PM reads at bandwidth + a DRAM write per block.
        total_slots = sum(len(n.slot_keys) for n in self._nodes)
        blocks = max(1, (total_slots * _PAIR_BYTES) // 256)
        self.perf.charge(Event.NVM_READ, max(1, blocks // 32))
        self.perf.charge(Event.DRAM_SEQ, blocks)
        self.perf.charge(Event.ALLOC, len(self._nodes))
        return self.perf.end(mark).time_ns

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        # DRAM footprint: inner fences + per-node metadata (fingerprints
        # are 1 byte per slot).
        slots = sum(len(n.slot_keys) for n in self._nodes)
        return len(self._fences) * 16 + slots // 8 + slots

    def key_store_bytes(self) -> int:
        # The key store is in PM, not DRAM.
        return 0

    def stats(self) -> IndexStats:
        stash_total = sum(len(n.stash) for n in self._nodes)
        return IndexStats(
            depth_avg=2.0,
            depth_max=2,
            leaf_count=len(self._nodes),
            retrain_count=self.retrain_stats.count,
            retrain_keys=self.retrain_stats.keys_retrained,
            retrain_time_ns=self.retrain_stats.time_ns,
            extra={"stash_keys": stash_total},
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,  # probes are bounded to one block + stash
            concurrent_read=True,
            concurrent_write=False,
            inner_node="DRAM fence array",
            leaf_node="PM probe-and-stash",
            approximation="LSA+gap (PM blocks)",
            insertion="inplace (window) | stash",
            retraining="SMO rebuild/split",
        )
