"""STX-style in-memory B+tree.

Slotted inner and leaf nodes sized for cache lines (STX uses ~256-byte
nodes); every level descended costs one cache-missing hop plus an
in-node binary search.  Leaves are chained for range scans.  Deletion
removes from the leaf without rebalancing (STX-style lazy deletion is
sufficient for the paper's workloads, which never shrink the tree).
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
    check_uint64_items,
)
from repro.core.search import child_slot, node_rank
from repro.errors import InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.obs.trace import EventType
from repro.perf.events import Event

_SLOT_BYTES = 16
_NODE_OVERHEAD = 32

#: Below this batch size ``get_many``'s sort + leaf caching costs more
#: than the per-key loop it replaces.
_MIN_BATCH = 16


class _LeafNode:
    __slots__ = ("keys", "values", "next")

    def __init__(self):
        self.keys: List[Key] = []
        self.values: List[Any] = []
        self.next: Optional["_LeafNode"] = None


class _InnerNode:
    __slots__ = ("keys", "children")

    def __init__(self):
        # children[i] covers keys < keys[i]; children[-1] covers the rest.
        self.keys: List[Key] = []
        self.children: List[Any] = []


class BPlusTree(UpdatableIndex):
    """B+tree with configurable fanout (default 32, ~STX node size)."""

    name = "BTree"

    def __init__(self, fanout: int = 32, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        if fanout < 4:
            raise InvalidConfigurationError(f"fanout must be >= 4, got {fanout}")
        self.fanout = fanout
        self._root: Any = _LeafNode()
        self._height = 1
        self._n = 0
        self._node_count = 1

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._build(items)

    def _build(self, items: Sequence[Tuple[Key, Value]]) -> None:
        """Build from checked sorted unique ``items``.  Masstree's layers
        call this directly: their keys are slice codes, not uint64 keys."""
        self._n = len(items)
        self._node_count = 0
        if not items:
            self._root = _LeafNode()
            self._height = 1
            self._node_count = 1
            return
        # Bottom-up bulk build: pack leaves, then stack inner levels.
        per_leaf = max(2, (self.fanout * 3) // 4)  # leave insert slack
        self.perf.charge(Event.KEY_MOVE, len(items))
        leaves: List[_LeafNode] = []
        for start in range(0, len(items), per_leaf):
            leaf = _LeafNode()
            chunk = items[start : start + per_leaf]
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            leaves.append(leaf)
        for a, b in zip(leaves, leaves[1:]):
            a.next = b
        self._node_count += len(leaves)
        self.perf.charge(Event.ALLOC, len(leaves))

        level: List[Tuple[Key, Any]] = [(lf.keys[0], lf) for lf in leaves]
        height = 1
        while len(level) > 1:
            parents: List[Tuple[Key, Any]] = []
            for start in range(0, len(level), self.fanout):
                chunk = level[start : start + self.fanout]
                inner = _InnerNode()
                inner.children = [child for _, child in chunk]
                inner.keys = [k for k, _ in chunk[1:]]
                parents.append((chunk[0][0], inner))
            self._node_count += len(parents)
            self.perf.charge(Event.ALLOC, len(parents))
            level = parents
            height += 1
        self._root = level[0][1]
        self._height = height

    # -- traversal ----------------------------------------------------------

    def _find_leaf(self, key: Key) -> Tuple[_LeafNode, List[_InnerNode], List[int]]:
        node = self._root
        path: List[_InnerNode] = []
        slots: List[int] = []
        charge = self.perf.charge
        while isinstance(node, _InnerNode):
            charge(Event.DRAM_HOP)
            slot = child_slot(node.keys, key, self.perf)
            path.append(node)
            slots.append(slot)
            node = node.children[slot]
        charge(Event.DRAM_HOP)
        return node, path, slots

    def _descend(
        self, key: Key
    ) -> Tuple[_LeafNode, List[_InnerNode], List[int], int, Optional[Key]]:
        """Uncharged root-to-leaf walk for the batch paths.

        Returns ``(leaf, path, slots, compares, fence)``; the caller bills
        the walk as a coarse aggregate afterwards — one hop per level plus
        one comparison per halving of each inner node — instead of
        charging every probe individually as :meth:`_find_leaf` does.
        ``fence`` is the separator that bounds the leaf from above (None
        for the last leaf): a later key below it routes to the same leaf.
        It is not the next leaf's first key, which a delete can raise.
        """
        node = self._root
        path: List[_InnerNode] = []
        slots: List[int] = []
        compares = 0
        fence: Optional[Key] = None
        while isinstance(node, _InnerNode):
            slot = bisect_right(node.keys, key)
            if slot < len(node.keys):
                fence = node.keys[slot]
            path.append(node)
            slots.append(slot)
            compares += max(1, len(node.keys).bit_length())
            node = node.children[slot]
        return node, path, slots, compares, fence

    # -- queries ----------------------------------------------------------

    def get(self, key: Key) -> Optional[Value]:
        leaf, _, _ = self._find_leaf(key)
        idx = node_rank(leaf.keys, key, self.perf)
        if idx >= 0 and leaf.keys[idx] == key:
            return leaf.values[idx]
        return None

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """Sorted-batch probe with leaf caching.

        The batch is probed in key order, so consecutive keys usually hit
        the leaf already in hand (checked against its upper fence) and
        the root-to-leaf walk runs once per *leaf* touched rather
        than once per key.  Results are exactly the per-key loop's; like
        every batch fast path the in-leaf search is billed as a coarse
        aggregate — one comparison per halving of the touched leaf — on
        top of the individually-charged descents (``docs/performance.md``).
        """
        n = len(keys)
        if n < _MIN_BATCH:
            return [self.get(k) for k in keys]
        results: List[Optional[Value]] = [None] * n
        order = sorted(range(n), key=keys.__getitem__)
        leaf: Optional[_LeafNode] = None
        fence: Optional[Key] = None
        compares = 0
        hops = 0
        for i in order:
            key = keys[i]
            if fence is not None and key >= fence:
                leaf = None
            if leaf is None:
                leaf, _, _, walk, fence = self._descend(key)
                compares += walk
                hops += self._height
            idx = bisect_right(leaf.keys, key) - 1
            compares += max(1, len(leaf.keys).bit_length())
            if idx >= 0 and leaf.keys[idx] == key:
                results[i] = leaf.values[idx]
        self.perf.charge(Event.DRAM_HOP, hops)
        self.perf.charge(Event.COMPARE, compares)
        self.perf.charge(Event.DRAM_SEQ, compares)
        return results

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        leaf, _, _ = self._find_leaf(lo)
        idx = node_rank(leaf.keys, lo, self.perf)
        if idx < 0 or (idx < len(leaf.keys) and leaf.keys[idx] < lo):
            idx += 1
        while leaf is not None:
            while idx < len(leaf.keys):
                if leaf.keys[idx] > hi:
                    return
                self.perf.charge(Event.DRAM_SEQ)
                yield leaf.keys[idx], leaf.values[idx]
                idx += 1
            leaf = leaf.next
            idx = 0
            if leaf is not None:
                self.perf.charge(Event.DRAM_HOP)

    def scan_many(
        self, starts: Sequence[Key], count: int
    ) -> List[List[Tuple[Key, Value]]]:
        """Native batch scan: charged descent per start, sliced leaves.

        Positioning keeps the scalar charged walk (``_find_leaf`` +
        ``node_rank``); the per-record yield loop becomes one slice copy
        per leaf visited, billed with an aggregate ``DRAM_SEQ`` covering
        the records taken.  The leaf-chain hop is only charged when the
        scan actually continues into the next leaf — exactly when the
        abandoned scalar generator would have charged it — so the event
        totals are bit-identical to sequential :meth:`scan` calls.
        """
        if count <= 0:
            return [[] for _ in starts]
        results: List[List[Tuple[Key, Value]]] = []
        for start in starts:
            leaf, _, _ = self._find_leaf(start)
            idx = node_rank(leaf.keys, start, self.perf)
            if idx < 0 or (idx < len(leaf.keys) and leaf.keys[idx] < start):
                idx += 1
            out: List[Tuple[Key, Value]] = []
            while leaf is not None:
                take = min(len(leaf.keys) - idx, count - len(out))
                if take > 0:
                    self.perf.charge(Event.DRAM_SEQ, take)
                    out.extend(
                        zip(leaf.keys[idx : idx + take],
                            leaf.values[idx : idx + take])
                    )
                if len(out) >= count:
                    break
                leaf = leaf.next
                idx = 0
                if leaf is not None:
                    self.perf.charge(Event.DRAM_HOP)
            results.append(out)
        return results

    def __len__(self) -> int:
        return self._n

    # -- mutation -----------------------------------------------------------

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        """One root-to-leaf descent resolves the old value and the write."""
        check_uint64(key)
        return self._upsert(key, value)

    def _upsert(self, key: Key, value: Value) -> Optional[Value]:
        """:meth:`upsert` of a checked key; Masstree's layers call it with
        slice codes, which may exceed uint64."""
        leaf, path, slots = self._find_leaf(key)
        idx = node_rank(leaf.keys, key, self.perf)
        if idx >= 0 and leaf.keys[idx] == key:
            old = leaf.values[idx]
            leaf.values[idx] = value
            return old
        pos = idx + 1
        self.perf.charge(Event.KEY_MOVE, len(leaf.keys) - pos)
        leaf.keys.insert(pos, key)
        leaf.values.insert(pos, value)
        self._n += 1
        if len(leaf.keys) > self.fanout:
            self._split_leaf(leaf, path, slots)
        return None

    def upsert_many(
        self, items: Sequence[Tuple[Key, Value]]
    ) -> List[Optional[Value]]:
        """Bulk upsert: sort the batch, then reuse the descent.

        Consecutive sorted keys usually land in the same leaf, so the
        root-to-leaf walk runs once per *leaf* touched instead of once
        per key.  The cached leaf is abandoned after a split (its parent
        path is stale) or when the next key belongs to a later leaf;
        either way the next key re-descends.  ``sorted`` is stable, so a
        duplicated key's occurrences apply in batch order: the last
        value wins and each occurrence's returned "old" is its
        predecessor's value, exactly as sequential upserts would.  Like
        ``get_many`` the in-leaf search is billed as a coarse aggregate
        — one comparison per halving of the touched leaf — on top of the
        individually-charged descents (``docs/performance.md``).
        """
        check_uint64_items(items)
        n = len(items)
        olds: List[Optional[Value]] = [None] * n
        if n < _MIN_BATCH:
            for j, (key, value) in enumerate(items):
                olds[j] = self._upsert(key, value)
            return olds
        batch_keys = [k for k, _ in items]
        order = sorted(range(n), key=batch_keys.__getitem__)
        leaf: Optional[_LeafNode] = None
        fence: Optional[Key] = None
        path: List[_InnerNode] = []
        slots: List[int] = []
        compares = 0
        hops = 0
        moves = 0
        for j in order:
            key, value = items[j]
            if fence is not None and key >= fence:
                leaf = None
            if leaf is None:
                leaf, path, slots, walk, fence = self._descend(key)
                compares += walk
                hops += self._height
            idx = bisect_right(leaf.keys, key) - 1
            compares += max(1, len(leaf.keys).bit_length())
            if idx >= 0 and leaf.keys[idx] == key:
                olds[j] = leaf.values[idx]
                leaf.values[idx] = value
                continue
            pos = idx + 1
            moves += len(leaf.keys) - pos
            leaf.keys.insert(pos, key)
            leaf.values.insert(pos, value)
            self._n += 1
            if len(leaf.keys) > self.fanout:
                self._split_leaf(leaf, path, slots)
                leaf = None  # the cached parent path is now stale
        self.perf.charge(Event.DRAM_HOP, hops)
        self.perf.charge(Event.COMPARE, compares)
        self.perf.charge(Event.DRAM_SEQ, compares)
        self.perf.charge(Event.KEY_MOVE, moves)
        return olds

    def _split_leaf(
        self, leaf: _LeafNode, path: List[_InnerNode], slots: List[int]
    ) -> None:
        charge = self.perf.charge
        mid = len(leaf.keys) // 2
        right = _LeafNode()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        charge(Event.ALLOC)
        charge(Event.KEY_MOVE, len(right.keys))
        self._node_count += 1
        self.perf.trace(
            EventType.LEAF_SPLIT,
            index=self.name,
            key_lo=leaf.keys[0] if leaf.keys else None,
            key_hi=right.keys[-1],
            keys=len(leaf.keys) + len(right.keys),
            count=2,
            reason="fanout_exceeded",
        )
        self._insert_into_parent(right.keys[0], right, path, slots)

    def _insert_into_parent(
        self, sep: Key, child: Any, path: List[_InnerNode], slots: List[int]
    ) -> None:
        charge = self.perf.charge
        if not path:
            root = _InnerNode()
            root.keys = [sep]
            root.children = [self._root, child]
            self._root = root
            self._height += 1
            self._node_count += 1
            charge(Event.ALLOC)
            return
        parent = path[-1]
        slot = slots[-1]
        charge(Event.KEY_MOVE, len(parent.keys) - slot)
        parent.keys.insert(slot, sep)
        parent.children.insert(slot + 1, child)
        if len(parent.children) > self.fanout:
            mid = len(parent.children) // 2
            right = _InnerNode()
            right.children = parent.children[mid:]
            right.keys = parent.keys[mid:]
            sep_up = parent.keys[mid - 1]
            parent.children = parent.children[:mid]
            parent.keys = parent.keys[: mid - 1]
            charge(Event.ALLOC)
            charge(Event.KEY_MOVE, len(right.keys))
            self._node_count += 1
            self._insert_into_parent(sep_up, right, path[:-1], slots[:-1])

    def delete(self, key: Key) -> bool:
        leaf, _, _ = self._find_leaf(key)
        idx = node_rank(leaf.keys, key, self.perf)
        if idx < 0 or leaf.keys[idx] != key:
            return False
        self.perf.charge(Event.KEY_MOVE, len(leaf.keys) - idx - 1)
        del leaf.keys[idx]
        del leaf.values[idx]
        self._n -= 1
        return True

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        # Inner nodes only; the leaves are the key/pointer store itself
        # (Table III counts them in the "Index+key" column).
        inner = max(0, self._node_count - self._count_leaves())
        return inner * (self.fanout * _SLOT_BYTES + _NODE_OVERHEAD) + 64

    def stats(self) -> IndexStats:
        return IndexStats(
            depth_avg=float(self._height),
            depth_max=self._height,
            leaf_count=self._count_leaves(),
        )

    def _count_leaves(self) -> int:
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
        count = 0
        while node is not None:
            count += 1
            node = node.next
        return count

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="B+tree",
            leaf_node="sorted array",
            approximation="-",
            insertion="node split",
            retraining="-",
        )
