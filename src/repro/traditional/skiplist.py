"""LevelDB-style skip list.

Tower heights come from a deterministic seeded RNG (p = 1/2, max 32
levels).  Every forward step during a search is a pointer chase into an
unrelated allocation, so it charges a cache-missing hop — the reason skip
lists trail node-packed trees on lookup-heavy workloads throughout §III
while remaining respectable for inserts (no key shifting at all).
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.interfaces import (
    Capabilities,
    IndexStats,
    Key,
    UpdatableIndex,
    Value,
    check_sorted_unique,
    check_uint64,
)
from repro.obs.trace import EventType
from repro.perf.context import PerfContext
from repro.perf.events import Event

_MAX_LEVEL = 32
_NODE_BYTES = 24  # key + value pointer + tower base


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Key, value: Any, height: int):
        self.key = key
        self.value = value
        self.forward: List[Optional["_Node"]] = [None] * height


class SkipList(UpdatableIndex):
    """Deterministic-seeded skip list over uint64 keys."""

    name = "Skiplist"

    def __init__(self, seed: int = 0x5EED, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        self._rng = random.Random(seed)
        self._head = _Node(-1, None, _MAX_LEVEL)
        self._level = 1
        self._n = 0
        self._tower_slots = _MAX_LEVEL

    def _random_height(self) -> int:
        height = 1
        while height < _MAX_LEVEL and self._rng.random() < 0.5:
            height += 1
        return height

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._head = _Node(-1, None, _MAX_LEVEL)
        self._level = 1
        self._n = 0
        self._tower_slots = _MAX_LEVEL
        # Append in order: O(1) amortised per key with a tail-pointer per
        # level, charged as one allocation + one link per node.
        tails: List[_Node] = [self._head] * _MAX_LEVEL
        self.perf.charge(Event.ALLOC, len(items))
        self.perf.charge(Event.KEY_MOVE, len(items))
        for key, value in items:
            height = self._random_height()
            node = _Node(key, value, height)
            self._tower_slots += height
            for lvl in range(height):
                tails[lvl].forward[lvl] = node
                tails[lvl] = node
            if height > self._level:
                self._level = height
        self._n = len(items)

    # -- traversal ----------------------------------------------------------

    def _find_predecessors(self, key: Key) -> List[_Node]:
        """Per-level predecessor nodes of ``key``, charging per hop."""
        charge = self.perf.charge
        update: List[_Node] = [self._head] * _MAX_LEVEL
        node = self._head
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.forward[lvl]
            while nxt is not None and nxt.key < key:
                charge(Event.DRAM_HOP)
                charge(Event.COMPARE)
                node = nxt
                nxt = node.forward[lvl]
            charge(Event.COMPARE)
            update[lvl] = node
        return update

    def get(self, key: Key) -> Optional[Value]:
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        self.perf.charge(Event.DRAM_HOP)
        if node is not None and node.key == key:
            self.perf.charge(Event.COMPARE)
            return node.value
        return None

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        update = self._find_predecessors(lo)
        node = update[0].forward[0]
        while node is not None and node.key <= hi:
            self.perf.charge(Event.DRAM_HOP)
            yield node.key, node.value
            node = node.forward[0]

    def __len__(self) -> int:
        return self._n

    # -- mutation -----------------------------------------------------------

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        check_uint64(key)
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            old = node.value
            node.value = value
            return old
        height = self._random_height()
        if height > self._level:
            self._level = height
        new = _Node(key, value, height)
        self._tower_slots += height
        self.perf.charge(Event.ALLOC)
        self.perf.trace(
            EventType.NODE_ALLOC,
            index=self.name,
            key_lo=key,
            keys=1,
            count=height,
            reason="tower",
        )
        for lvl in range(height):
            new.forward[lvl] = update[lvl].forward[lvl]
            update[lvl].forward[lvl] = new
            self.perf.charge(Event.DRAM_SEQ)
        self._n += 1
        return None

    def delete(self, key: Key) -> bool:
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is None or node.key != key:
            return False
        for lvl in range(len(node.forward)):
            if update[lvl].forward[lvl] is node:
                update[lvl].forward[lvl] = node.forward[lvl]
                self.perf.charge(Event.DRAM_SEQ)
        self._tower_slots -= len(node.forward)
        self._n -= 1
        return True

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        return self._n * _NODE_BYTES + self._tower_slots * 8

    def stats(self) -> IndexStats:
        return IndexStats(
            depth_avg=float(self._level),
            depth_max=self._level,
            leaf_count=self._n,
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="towers",
            leaf_node="linked nodes",
            approximation="-",
            insertion="link splice",
            retraining="-",
        )
