"""Wormhole: hash-accelerated trie (MetaTrieHash) over sorted leaves.

Point lookups binary-search the *prefix length* of the key against a hash
table of leaf-anchor prefixes — O(log keylen) hash probes, i.e. ~3 for
8-byte keys — then search one sorted leaf.  That makes Wormhole the
fastest *ordered* traditional index in the paper's read figures, while
bulk building is a single packing pass (fast recovery, Fig 16).

Cost-model note (see DESIGN.md): the MetaTrieHash routing is charged per
Wormhole's algorithm (log2(keylen) hash probes + table hops); the anchor
bookkeeping that backs those probes is held in a sorted fence directory,
which yields identical routing results.
"""

from __future__ import annotations

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
_ANCHOR_PREFIXES = 8  # prefixes registered per anchor (1..8 bytes)
_PROBES_PER_LOOKUP = 3  # ceil(log2(8)) binary search on prefix length


class _Leaf:
    __slots__ = ("keys", "values")

    def __init__(self, keys: List[Key], values: List[Any]):
        self.keys = keys
        self.values = values


class Wormhole(UpdatableIndex):
    """Sorted leaves behind a hash-probed anchor directory."""

    name = "Wormhole"

    def __init__(self, leaf_size: int = 128, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        if leaf_size < 4:
            raise InvalidConfigurationError("leaf_size must be >= 4")
        self.leaf_size = leaf_size
        self._fences: List[Key] = []
        self._leaves: List[_Leaf] = []
        self._n = 0

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._fences = []
        self._leaves = []
        self._n = len(items)
        if not items:
            return
        per_leaf = max(2, (self.leaf_size * 3) // 4)
        self.perf.charge(Event.KEY_MOVE, len(items))
        for start in range(0, len(items), per_leaf):
            chunk = items[start : start + per_leaf]
            self._leaves.append(
                _Leaf([k for k, _ in chunk], [v for _, v in chunk])
            )
            self._fences.append(chunk[0][0])
        # Registering each anchor's prefixes in the MetaTrieHash.
        self.perf.charge(Event.HASH, len(self._leaves) * _ANCHOR_PREFIXES)
        self.perf.charge(Event.ALLOC, len(self._leaves))

    # -- traversal ----------------------------------------------------------

    def _route(self, key: Key) -> int:
        """MetaTrieHash longest-prefix-match: log2(keylen) hash probes."""
        self.perf.charge(Event.HASH, _PROBES_PER_LOOKUP)
        self.perf.charge(Event.DRAM_HOP, _PROBES_PER_LOOKUP)
        idx = bisect_right(self._fences, key) - 1
        return max(0, idx)

    def _leaf_rank(self, leaf: _Leaf, key: Key) -> int:
        self.perf.charge(Event.DRAM_HOP)
        return node_rank(leaf.keys, key, self.perf)

    # -- queries ----------------------------------------------------------

    def get(self, key: Key) -> Optional[Value]:
        # Point lookups use the leaf's hash tags (Wormhole leaves keep a
        # small in-leaf hash of their keys): one hash, one or two line
        # touches — no binary search needed for an exact match.
        if not self._leaves:
            return None
        leaf = self._leaves[self._route(key)]
        charge = self.perf.charge
        charge(Event.DRAM_HOP)
        charge(Event.HASH)
        charge(Event.COMPARE, 2)
        charge(Event.DRAM_SEQ)
        idx = bisect_right(leaf.keys, key) - 1
        if idx >= 0 and leaf.keys[idx] == key:
            return leaf.values[idx]
        return None

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if not self._leaves:
            return
        pos = self._route(lo)
        leaf = self._leaves[pos]
        idx = self._leaf_rank(leaf, lo)
        if idx < 0 or leaf.keys[idx] < lo:
            idx += 1
        while pos < len(self._leaves):
            leaf = self._leaves[pos]
            while idx < len(leaf.keys):
                if leaf.keys[idx] > hi:
                    return
                self.perf.charge(Event.DRAM_SEQ)
                yield leaf.keys[idx], leaf.values[idx]
                idx += 1
            pos += 1
            idx = 0
            if pos < len(self._leaves):
                self.perf.charge(Event.DRAM_HOP)

    def __len__(self) -> int:
        return self._n

    # -- mutation -----------------------------------------------------------

    def insert(self, key: Key, value: Value) -> None:
        check_uint64(key)
        if not self._leaves:
            self._leaves = [_Leaf([key], [value])]
            self._fences = [key]
            self._n = 1
            self.perf.charge(Event.ALLOC)
            self.perf.charge(Event.HASH, _ANCHOR_PREFIXES)
            return
        pos = self._route(key)
        leaf = self._leaves[pos]
        idx = self._leaf_rank(leaf, key)
        if idx >= 0 and leaf.keys[idx] == key:
            leaf.values[idx] = value
            return
        insert_at = idx + 1
        self.perf.charge(Event.KEY_MOVE, len(leaf.keys) - insert_at)
        leaf.keys.insert(insert_at, key)
        leaf.values.insert(insert_at, value)
        self._n += 1
        if len(leaf.keys) > self.leaf_size:
            self._split(pos)

    def _split(self, pos: int) -> None:
        leaf = self._leaves[pos]
        mid = len(leaf.keys) // 2
        right = _Leaf(leaf.keys[mid:], leaf.values[mid:])
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        self._leaves.insert(pos + 1, right)
        self._fences.insert(pos + 1, right.keys[0])
        self.perf.charge(Event.ALLOC)
        self.perf.charge(Event.KEY_MOVE, len(right.keys))
        # New anchor registered in the MetaTrieHash.
        self.perf.charge(Event.HASH, _ANCHOR_PREFIXES)
        self.perf.trace(
            EventType.LEAF_SPLIT,
            index=self.name,
            leaf=pos,
            key_lo=leaf.keys[0] if leaf.keys else None,
            key_hi=right.keys[-1],
            keys=len(leaf.keys) + len(right.keys),
            count=2,
            reason="leaf_size_exceeded",
        )

    def delete(self, key: Key) -> bool:
        if not self._leaves:
            return False
        leaf = self._leaves[self._route(key)]
        idx = self._leaf_rank(leaf, key)
        if idx < 0 or leaf.keys[idx] != key:
            return False
        self.perf.charge(Event.KEY_MOVE, len(leaf.keys) - idx - 1)
        del leaf.keys[idx]
        del leaf.values[idx]
        self._n -= 1
        return True

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        slots = sum(len(leaf.keys) for leaf in self._leaves)
        anchors = len(self._leaves) * _ANCHOR_PREFIXES * 12
        return slots * _PAIR_BYTES + anchors

    def stats(self) -> IndexStats:
        return IndexStats(
            depth_avg=2.0,
            depth_max=2,
            leaf_count=len(self._leaves),
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="MetaTrieHash",
            leaf_node="sorted array",
            approximation="-",
            insertion="leaf split",
            retraining="-",
        )
