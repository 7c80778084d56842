"""Masstree: a trie of B+trees over 8-byte key slices.

Each trie layer is a B+tree keyed by one 8-byte slice of the key (fanout
15, as in the original).  Keys that share a full slice but diverge later
push a new layer; unique suffixes are stored inline without creating
layers (Masstree's suffix optimisation).  Fixed 8-byte integer keys — the
paper's workloads — live entirely in layer 0, but the layering logic is
fully implemented and exercised by tests with longer byte keys.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.core.interfaces import (
    KEY_LIMIT,
    Capabilities,
    IndexStats,
    Key,
    UpdatableIndex,
    Value,
    check_sorted_unique,
    check_uint64,
    is_uint64,
    scan_start,
)
from repro.perf.context import PerfContext
from repro.traditional.btree import BPlusTree

_FANOUT = 15


def _chunk_code(chunk: bytes) -> int:
    """Order-preserving integer encoding of a <= 8-byte slice.

    The slice is zero-padded to 8 bytes and its true length appended as a
    4-bit tiebreaker, so ``"abc" < "abc\\0" < "abd"`` sorts correctly.
    """
    padded = int.from_bytes(chunk.ljust(8, b"\x00"), "big")
    return (padded << 4) | len(chunk)


class _InlineEntry:
    """A key that terminates in this layer: remaining suffix + value."""

    __slots__ = ("suffix", "value")

    def __init__(self, suffix: bytes, value: Any):
        self.suffix = suffix
        self.value = value


class _LayerEntry:
    """Several keys share this slice and continue in a deeper layer."""

    __slots__ = ("layer",)

    def __init__(self, layer: "_Layer"):
        self.layer = layer


class _Layer:
    """One trie layer: a B+tree keyed by slice code.  A code can exceed
    uint64 (``key << 4 | len``), so the layer writes and builds through
    ``BPlusTree._upsert``/``_build``, below its public key check."""

    def __init__(self, perf: PerfContext):
        self.tree = BPlusTree(fanout=_FANOUT, perf=perf)


class Masstree(UpdatableIndex):
    """Masstree over uint64 keys (byte-key API available as *_bytes)."""

    name = "Masstree"

    def __init__(self, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        self._root = _Layer(self.perf)
        self._n = 0

    # -- byte-key core -----------------------------------------------------

    def get_bytes(self, key: bytes) -> Optional[Any]:
        layer = self._root
        offset = 0
        while True:
            chunk = key[offset : offset + 8]
            entry = layer.tree.get(_chunk_code(chunk))
            if entry is None:
                return None
            if isinstance(entry, _InlineEntry):
                if entry.suffix == key[offset + 8 :]:
                    return entry.value
                return None
            layer = entry.layer
            offset += 8

    def put_bytes(self, key: bytes, value: Any) -> bool:
        """Insert/overwrite; returns True if the key is new."""
        return self._put_bytes(key, value)[0]

    def _put_bytes(self, key: bytes, value: Any) -> Tuple[bool, Any]:
        """:meth:`put_bytes`, returning ``(new, overwritten value)``."""
        layer = self._root
        offset = 0
        while True:
            chunk = key[offset : offset + 8]
            code = _chunk_code(chunk)
            entry = layer.tree.get(code)
            if entry is None:
                layer.tree._upsert(
                    code, _InlineEntry(key[offset + 8 :], value)
                )
                return True, None
            if isinstance(entry, _LayerEntry):
                layer = entry.layer
                offset += 8
                continue
            # Inline entry with the same slice.
            remaining = key[offset + 8 :]
            if entry.suffix == remaining:
                old, entry.value = entry.value, value
                return False, old
            # Divergent suffixes: push both keys into a new layer.
            sub = _Layer(self.perf)
            layer.tree._upsert(code, _LayerEntry(sub))
            old_suffix, old_value = entry.suffix, entry.value
            sub.tree._upsert(
                _chunk_code(old_suffix[:8]),
                _InlineEntry(old_suffix[8:], old_value),
            )
            layer = sub
            offset += 8

    def delete_bytes(self, key: bytes) -> bool:
        layer = self._root
        offset = 0
        while True:
            chunk = key[offset : offset + 8]
            code = _chunk_code(chunk)
            entry = layer.tree.get(code)
            if entry is None:
                return False
            if isinstance(entry, _InlineEntry):
                if entry.suffix == key[offset + 8 :]:
                    return layer.tree.delete(code)
                return False
            layer = entry.layer
            offset += 8

    # -- Index interface (uint64 keys, single layer) ------------------------

    @staticmethod
    def _encode(key: Key) -> bytes:
        """The 8-byte big-endian slice of a uint64 key (or of a number
        equal to one, for lookups)."""
        return int(key).to_bytes(8, "big")

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        entries = [
            (_chunk_code(self._encode(k)), _InlineEntry(b"", v))
            for k, v in items
        ]
        self._root = _Layer(self.perf)
        self._root.tree._build(entries)
        self._n = len(items)

    def get(self, key: Key) -> Optional[Value]:
        if not is_uint64(key):
            return None  # no stored key equals it
        return self.get_bytes(self._encode(key))

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        check_uint64(key)
        new, old = self._put_bytes(self._encode(key), value)
        if new:
            self._n += 1
        return old

    def delete(self, key: Key) -> bool:
        if is_uint64(key) and self.delete_bytes(self._encode(key)):
            self._n -= 1
            return True
        return False

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        # uint64 keys all sit in layer 0 with empty suffixes, so the
        # layer-0 B+tree's order is the key order.  The bounds narrow to
        # the uint64 keys they admit, which the 8-byte encoding can hold.
        lo = scan_start(lo)
        if lo is None or hi < lo:
            return
        hi = int(min(hi, KEY_LIMIT - 1))  # hi >= lo >= 0: int() floors
        code_lo = _chunk_code(self._encode(lo))
        code_hi = _chunk_code(self._encode(hi))
        for code, entry in self._root.tree.range(code_lo, code_hi):
            key = int.from_bytes((code >> 4).to_bytes(8, "big"), "big")
            if isinstance(entry, _InlineEntry):
                yield key, entry.value

    def __len__(self) -> int:
        return self._n

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        return self._size_of_layer(self._root)

    def _size_of_layer(self, layer: _Layer) -> int:
        """The layer's tree plus its sub-layers, found by walking the
        tree's leaf chain, so a metadata call charges nothing."""
        total = layer.tree.size_bytes()
        for leaf in layer.tree.leaf_nodes():
            for entry in leaf.values:
                if isinstance(entry, _LayerEntry):
                    total += self._size_of_layer(entry.layer)
        return total

    def stats(self) -> IndexStats:
        inner = self._root.tree.stats()
        return IndexStats(
            depth_avg=inner.depth_avg,
            depth_max=inner.depth_max,
            leaf_count=inner.leaf_count,
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=True,
            inner_node="trie of B+trees",
            leaf_node="sorted array",
            approximation="-",
            insertion="node split",
            retraining="-",
        )
