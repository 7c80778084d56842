"""Bw-tree: mapping table, delta chains, and consolidation.

Writes prepend a delta record to the target page's chain through the
mapping table (lock-free CAS in the original; a list-head swap here, with
the same cost profile).  Reads must walk the delta chain before reaching
the base page — each delta is a separate allocation, i.e. a cache-missing
hop — so read cost degrades as chains grow until consolidation folds them
into a fresh base page.

Simplification (see DESIGN.md): the original's multi-level Bw-tree inner
structure with split/merge deltas is replaced by a single sorted fence
directory; leaf behaviour (chains, consolidation, splits) is faithful.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
from repro.core.search import node_rank
from repro.errors import InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.obs.trace import EventType
from repro.perf.events import Event

_PAIR_BYTES = 16
_DELTA_BYTES = 32


class _Delta:
    __slots__ = ("kind", "key", "value", "next")

    def __init__(self, kind: str, key: Key, value: Any, nxt):
        self.kind = kind  # "ins" | "del"
        self.key = key
        self.value = value
        self.next = nxt


class _Base:
    __slots__ = ("keys", "values")

    def __init__(self, keys: List[Key], values: List[Any]):
        self.keys = keys
        self.values = values


class BwTree(UpdatableIndex):
    """Bw-tree leaf layer behind a fence directory."""

    name = "Bwtree"

    def __init__(
        self,
        node_size: int = 256,
        consolidate_after: int = 8,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        if node_size < 8:
            raise InvalidConfigurationError("node_size must be >= 8")
        if consolidate_after < 1:
            raise InvalidConfigurationError("consolidate_after must be >= 1")
        self.node_size = node_size
        self.consolidate_after = consolidate_after
        self._mapping: List[Any] = []  # pid -> chain head (_Delta | _Base)
        self._chain_len: List[int] = []
        self._fences: List[Key] = []  # fences[i] = first key of pid i
        self._pids: List[int] = []  # fence order -> pid
        self._n = 0

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._mapping = []
        self._chain_len = []
        self._fences = []
        self._pids = []
        self._n = len(items)
        if not items:
            self._new_page([0], [None])
            self._n = 0
            # fence covers the whole key space; mark the sentinel empty
            self._mapping[0] = _Base([], [])
            return
        per_node = max(4, (self.node_size * 3) // 4)
        self.perf.charge(Event.KEY_MOVE, len(items))
        for start in range(0, len(items), per_node):
            chunk = items[start : start + per_node]
            self._new_page([k for k, _ in chunk], [v for _, v in chunk])

    def _new_page(self, keys: List[Key], values: List[Any]) -> int:
        pid = len(self._mapping)
        self._mapping.append(_Base(keys, values))
        self._chain_len.append(0)
        self.perf.charge(Event.ALLOC)
        pos = bisect_right(self._fences, keys[0])
        self._fences.insert(pos, keys[0])
        self._pids.insert(pos, pid)
        self.perf.charge(Event.KEY_MOVE, len(self._fences) - pos)
        return pid

    # -- traversal ----------------------------------------------------------

    #: Virtual inner-node fanout used to charge the multi-level descent.
    _INNER_FANOUT = 64

    def _route(self, key: Key) -> int:
        """Inner-structure lookup.

        In a real Bw-tree every level costs *two* cache misses — the
        mapping-table slot and the node it points to — which is the
        indirection tax that keeps Bw-tree reads below a plain B+tree
        throughout §III.  The fence directory here is flat, but the
        descent is charged per the real structure's levels.
        """
        charge = self.perf.charge
        n = max(2, len(self._fences))
        levels = max(1, math.ceil(math.log(n, self._INNER_FANOUT)))
        per_level_cmp = max(1, self._INNER_FANOUT.bit_length() - 1)
        charge(Event.DRAM_HOP, 2 * levels)  # mapping slot + node per level
        charge(Event.COMPARE, per_level_cmp * levels)
        charge(Event.DRAM_SEQ, per_level_cmp * levels)
        return self._pids[max(0, bisect_right(self._fences, key) - 1)]

    def _walk_chain(self, pid: int, key: Key):
        """Walk deltas newest-first; return ('hit', v) | ('del',) | base."""
        charge = self.perf.charge
        charge(Event.DRAM_HOP)  # mapping-table indirection
        node = self._mapping[pid]
        while isinstance(node, _Delta):
            charge(Event.DRAM_HOP)
            charge(Event.COMPARE)
            if node.key == key:
                if node.kind == "ins":
                    return ("hit", node.value)
                return ("del", None)
            node = node.next
        return node

    # -- queries ----------------------------------------------------------

    def get(self, key: Key) -> Optional[Value]:
        pid = self._route(key)
        result = self._walk_chain(pid, key)
        if isinstance(result, tuple):
            return result[1] if result[0] == "hit" else None
        idx = node_rank(result.keys, key, self.perf)
        if idx >= 0 and result.keys[idx] == key:
            return result.values[idx]
        return None

    def _page_items(self, pid: int) -> List[Tuple[Key, Any]]:
        """Logical content of a page: base folded with its deltas."""
        deltas: List[_Delta] = []
        node = self._mapping[pid]
        while isinstance(node, _Delta):
            self.perf.charge(Event.DRAM_HOP)
            deltas.append(node)
            node = node.next
        merged = dict(zip(node.keys, node.values))
        for delta in reversed(deltas):  # oldest first, newest overrides
            if delta.kind == "ins":
                merged[delta.key] = delta.value
            else:
                merged.pop(delta.key, None)
        return sorted(merged.items())

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if not self._fences:
            return
        start = bisect_right(self._fences, lo) - 1
        for pos in range(max(0, start), len(self._pids)):
            if self._fences[pos] > hi:
                return
            for key, value in self._page_items(self._pids[pos]):
                if key > hi:
                    return
                if key >= lo:
                    self.perf.charge(Event.DRAM_SEQ)
                    yield key, value

    def __len__(self) -> int:
        return self._n

    # -- mutation -----------------------------------------------------------

    def _exists(self, pid: int, key: Key) -> bool:
        result = self._walk_chain(pid, key)
        if isinstance(result, tuple):
            return result[0] == "hit"
        idx = node_rank(result.keys, key, self.perf)
        return idx >= 0 and result.keys[idx] == key

    def insert(self, key: Key, value: Value) -> None:
        check_uint64(key)
        pid = self._route(key)
        if key < self._fences[0]:
            # The first page takes every key below its fence; lowering the
            # fence keeps it a lower bound, so a split of that page still
            # files the new right page after it.
            self._fences[0] = key
        existed = self._exists(pid, key)
        self.perf.charge(Event.ALLOC)
        self.perf.charge(Event.DRAM_SEQ)  # the CAS on the mapping slot
        self._mapping[pid] = _Delta("ins", key, value, self._mapping[pid])
        self._chain_len[pid] += 1
        if not existed:
            self._n += 1
        if self._chain_len[pid] >= self.consolidate_after:
            self._consolidate(pid)

    def delete(self, key: Key) -> bool:
        pid = self._route(key)
        if not self._exists(pid, key):
            return False
        self.perf.charge(Event.ALLOC)
        self.perf.charge(Event.DRAM_SEQ)
        self._mapping[pid] = _Delta("del", key, None, self._mapping[pid])
        self._chain_len[pid] += 1
        self._n -= 1
        if self._chain_len[pid] >= self.consolidate_after:
            self._consolidate(pid)
        return True

    def _consolidate(self, pid: int) -> None:
        items = self._page_items(pid)
        self.perf.trace(
            EventType.BUFFER_FLUSH,
            index=self.name,
            leaf=pid,
            keys=len(items),
            count=self._chain_len[pid],
            reason="delta_chain_limit",
        )
        self.perf.charge(Event.KEY_MOVE, len(items))
        self.perf.charge(Event.ALLOC)
        if len(items) > self.node_size:
            mid = len(items) // 2
            left, right = items[:mid], items[mid:]
            self._mapping[pid] = _Base(
                [k for k, _ in left], [v for _, v in left]
            )
            self._chain_len[pid] = 0
            self._new_page([k for k, _ in right], [v for _, v in right])
            self.perf.trace(
                EventType.LEAF_SPLIT,
                index=self.name,
                leaf=pid,
                key_lo=left[0][0],
                key_hi=right[-1][0],
                keys=len(items),
                count=2,
                reason="node_size_exceeded",
            )
        else:
            if items:
                self._mapping[pid] = _Base(
                    [k for k, _ in items], [v for _, v in items]
                )
            else:
                self._mapping[pid] = _Base([], [])
            self._chain_len[pid] = 0

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        total = len(self._mapping) * 8 + len(self._fences) * _PAIR_BYTES
        for pid, head in enumerate(self._mapping):
            total += self._chain_len[pid] * _DELTA_BYTES
            node = head
            while isinstance(node, _Delta):
                node = node.next
            total += len(node.keys) * _PAIR_BYTES
        return total

    def stats(self) -> IndexStats:
        chains = self._chain_len or [0]
        return IndexStats(
            depth_avg=2.0 + sum(chains) / len(chains),
            depth_max=2 + max(chains),
            leaf_count=len(self._mapping),
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=True,
            inner_node="mapping table",
            leaf_node="base + deltas",
            approximation="-",
            insertion="delta prepend",
            retraining="consolidation",
        )
