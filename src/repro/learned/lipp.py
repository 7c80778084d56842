"""LIPP: Updatable Learned Index with Precise Positions (Wu et al. 2021).

The paper's §V-B singles LIPP out as the design its analysis predicts:
an asymmetric tree whose approximation *actively changes the stored
layout* so every model prediction is **exact** — "the LIPP has found this
critical point and successfully implemented this method ... Since it is
not open source now, we cannot evaluate it."  This module implements it,
so the repository can run the evaluation the authors could not.

Mechanics:

* Every node holds a linear model and a slot array.  A slot is empty,
  holds one key/value entry, or points to a child node.
* Keys are *placed at the slot the model predicts*, so a lookup needs no
  correction search at all: per level it costs one hop + one model
  evaluation, and the entry is either there or absent.
* Keys whose predictions collide are pushed into a child node built over
  just those keys (a steeper local model separates them).
* Inserting into an occupied slot creates a two-entry child; per-subtree
  insert counters trigger a rebuild (retrain) when a subtree has absorbed
  as many inserts as it had keys, which keeps depth logarithmic.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

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

_SLOT_BYTES = 24  # tag + key + value/child pointer
_NODE_OVERHEAD = 48
_MAX_DEPTH = 64
_BUILD_PASSES = 4  # model fit + conflict-degree scan + placement + links


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: Key, value: Any):
        self.key = key
        self.value = value


class _Node:
    __slots__ = ("model", "slots", "n_keys", "inserts_since_build")

    def __init__(self, model: LinearModel, n_slots: int, n_keys: int):
        self.model = model
        self.slots: List[Any] = [None] * n_slots  # None | _Entry | _Node
        self.n_keys = n_keys
        self.inserts_since_build = 0


class LIPPIndex(UpdatableIndex):
    """Precise-position learned index (no correction search, ever)."""

    name = "LIPP"

    def __init__(
        self,
        slot_factor: float = 2.0,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        if slot_factor < 1.0:
            raise InvalidConfigurationError("slot_factor must be >= 1.0")
        self.slot_factor = slot_factor
        self._root: Optional[_Node] = None
        self._n = 0
        self.retrain_stats = RetrainStats()

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._n = len(items)
        if not items:
            self._root = None
            return
        self.perf.charge(Event.RETRAIN_KEY, len(items) * _BUILD_PASSES)
        self._root = self._build_node(
            [k for k, _ in items], [v for _, v in items], 0
        )

    def _build_node(
        self, keys: Sequence[Key], values: Sequence[Any], depth: int
    ) -> _Node:
        n = len(keys)
        self.perf.charge(Event.ALLOC)
        if n == 1:
            node = _Node(LinearModel(0.0, 0.0, keys[0]), 1, 1)
            node.slots[0] = _Entry(keys[0], values[0])
            return node
        n_slots = max(2, int(n * self.slot_factor))
        slope, intercept = fit_least_squares(keys, keys[0])
        scale = n_slots / n
        model = LinearModel(slope * scale, intercept * scale, keys[0])
        node = _Node(model, n_slots, n)

        # Group keys by predicted slot; singletons become entries,
        # conflicting groups recurse into child nodes.
        group_start = 0
        current_slot = model.predict_clamped(keys[0], n_slots)
        for i in range(1, n + 1):
            slot = (
                model.predict_clamped(keys[i], n_slots) if i < n else -1
            )
            if slot == current_slot:
                continue
            size = i - group_start
            if size == 1:
                node.slots[current_slot] = _Entry(
                    keys[group_start], values[group_start]
                )
            else:
                node.slots[current_slot] = self._build_subtree(
                    keys[group_start:i], values[group_start:i], depth + 1
                )
            group_start = i
            current_slot = slot
        return node

    def _build_subtree(
        self, keys: Sequence[Key], values: Sequence[Any], depth: int
    ) -> Any:
        if depth >= _MAX_DEPTH:
            raise InvalidConfigurationError(
                "LIPP build exceeded maximum depth (degenerate key set)"
            )
        if len(keys) == 1:
            node = _Node(LinearModel(0.0, 0.0, keys[0]), 1, 1)
            node.slots[0] = _Entry(keys[0], values[0])
            self.perf.charge(Event.ALLOC)
            return node
        return self._build_node(keys, values, depth)

    # -- queries ----------------------------------------------------------

    def get(self, key: Key) -> Optional[Value]:
        node = self._root
        charge = self.perf.charge
        while node is not None:
            charge(Event.DRAM_HOP)
            charge(Event.MODEL_EVAL)
            slot = node.model.predict_clamped(key, len(node.slots))
            cell = node.slots[slot]
            if cell is None:
                return None
            if isinstance(cell, _Entry):
                charge(Event.COMPARE)
                return cell.value if cell.key == key else None
            node = cell
        return None

    def __len__(self) -> int:
        return self._n

    # -- mutation -----------------------------------------------------------

    def insert(self, key: Key, value: Value) -> None:
        check_uint64(key)
        if self._root is None:
            self._root = self._build_subtree([key], [value], 0)
            self._n = 1
            return
        charge = self.perf.charge
        path: List[_Node] = []
        node = self._root
        while True:
            charge(Event.DRAM_HOP)
            charge(Event.MODEL_EVAL)
            path.append(node)
            slot = node.model.predict_clamped(key, len(node.slots))
            cell = node.slots[slot]
            if cell is None:
                node.slots[slot] = _Entry(key, value)
                self._n += 1
                break
            if isinstance(cell, _Entry):
                charge(Event.COMPARE)
                if cell.key == key:
                    cell.value = value
                    return
                # Conflict: push both entries into a fresh child.
                pair = sorted(
                    [(cell.key, cell.value), (key, value)]
                )
                node.slots[slot] = self._build_subtree(
                    [pair[0][0], pair[1][0]],
                    [pair[0][1], pair[1][1]],
                    len(path),
                )
                self._n += 1
                break
            node = cell
        # Bump insert counters along the path; rebuild the shallowest
        # subtree that has doubled since its last build.
        for depth, visited in enumerate(path):
            visited.inserts_since_build += 1
            if visited.inserts_since_build > max(64, visited.n_keys):
                self._rebuild_subtree(visited, path[depth - 1] if depth else None)
                break

    def _rebuild_subtree(self, node: _Node, parent: Optional[_Node]) -> None:
        mark = self.perf.begin()
        items = list(self._iter_node(node))
        self.perf.charge(Event.RETRAIN_KEY, len(items))
        fresh = self._build_node(
            [k for k, _ in items], [v for _, v in items], 0
        )
        if parent is None:
            self._root = fresh
        else:
            for i, cell in enumerate(parent.slots):
                if cell is node:
                    parent.slots[i] = fresh
                    break
        op = self.perf.end(mark)
        self.retrain_stats.record(len(items), op.time_ns)
        self.perf.trace(
            EventType.RETRAIN,
            index=self.name,
            key_lo=items[0][0] if items else None,
            key_hi=items[-1][0] if items else None,
            keys=len(items),
            reason="subtree_insert_pressure",
            cost_ns=op.time_ns,
        )

    def delete(self, key: Key) -> bool:
        node = self._root
        charge = self.perf.charge
        while node is not None:
            charge(Event.DRAM_HOP)
            charge(Event.MODEL_EVAL)
            slot = node.model.predict_clamped(key, len(node.slots))
            cell = node.slots[slot]
            if cell is None:
                return False
            if isinstance(cell, _Entry):
                charge(Event.COMPARE)
                if cell.key == key:
                    node.slots[slot] = None
                    self._n -= 1
                    return True
                return False
            node = cell
        return False

    # -- iteration -----------------------------------------------------------

    def _iter_node(self, node: _Node) -> Iterator[Tuple[Key, Any]]:
        for cell in node.slots:
            if cell is None:
                continue
            if isinstance(cell, _Entry):
                yield cell.key, cell.value
            else:
                yield from self._iter_node(cell)

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if self._root is None:
            return
        # Slot order is key order (models are monotone), so an in-order
        # walk yields sorted pairs; each node touch costs a hop.
        self.perf.charge(Event.DRAM_HOP)
        for key, value in self._iter_node(self._root):
            if key > hi:
                return
            if key >= lo:
                self.perf.charge(Event.DRAM_SEQ)
                yield key, value

    # -- metadata -----------------------------------------------------------

    def _walk_stats(self, node: _Node, depth: int, acc: dict) -> None:
        acc["nodes"] += 1
        acc["slots"] += len(node.slots)
        for cell in node.slots:
            if isinstance(cell, _Entry):
                acc["weighted_depth"] += depth
                acc["entries"] += 1
                acc["max_depth"] = max(acc["max_depth"], depth)
            elif isinstance(cell, _Node):
                self._walk_stats(cell, depth + 1, acc)

    def size_bytes(self) -> int:
        if self._root is None:
            return 0
        acc = {"nodes": 0, "slots": 0, "weighted_depth": 0, "entries": 0,
               "max_depth": 0}
        self._walk_stats(self._root, 1, acc)
        return acc["nodes"] * _NODE_OVERHEAD + acc["slots"] * _SLOT_BYTES

    def key_store_bytes(self) -> int:
        # LIPP stores entries inside its nodes; there is no separate
        # sorted array, so the node slots *are* the key store.
        return 0

    def stats(self) -> IndexStats:
        if self._root is None:
            return IndexStats()
        acc = {"nodes": 0, "slots": 0, "weighted_depth": 0, "entries": 0,
               "max_depth": 0}
        self._walk_stats(self._root, 1, acc)
        return IndexStats(
            depth_avg=acc["weighted_depth"] / max(1, acc["entries"]),
            depth_max=acc["max_depth"],
            leaf_count=acc["nodes"],
            retrain_count=self.retrain_stats.count,
            retrain_keys=self.retrain_stats.keys_retrained,
            retrain_time_ns=self.retrain_stats.time_ns,
            extra={"slots": acc["slots"], "entries": acc["entries"]},
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,  # error is exactly zero
            concurrent_read=True,
            concurrent_write=False,
            inner_node="asymmetric model tree",
            leaf_node="in-node entries",
            approximation="FMCD-style precise placement",
            insertion="inplace (model slot)",
            retraining="subtree rebuild",
        )
