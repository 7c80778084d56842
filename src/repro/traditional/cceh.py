"""CCEH: cacheline-conscious extendible hashing.

The directory maps the hash's top ``global_depth`` bits to fixed-size
segments; inside a segment, a key probes a 4-slot cacheline bucket plus a
bounded linear-probe window.  A point operation is therefore one hash,
one directory access, and one (rarely two) cacheline touches — the cost
profile that makes CCEH the throughput ceiling in Figs 10-15.  There is
no key order: range queries are unsupported, exactly why the paper keeps
CCEH as a reference line rather than a contender.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.interfaces import (
    Capabilities,
    IndexStats,
    Key,
    Index,
    Value,
    check_sorted_unique,
    check_uint64,
    is_uint64,
)
from repro.errors import InvalidConfigurationError, ReproError
from repro.perf.context import PerfContext
from repro.obs.trace import EventType
from repro.perf.events import Event

_SLOT_BYTES = 16
_BUCKET_SLOTS = 4  # one 64-byte cacheline
_PROBE_BUCKETS = 4  # linear probing window, in cachelines
_EMPTY = None


class _Tombstone:
    """Marks a deleted slot so probe chains stay intact."""

    __repr__ = lambda self: "<tombstone>"  # noqa: E731


_TOMBSTONE = _Tombstone()


def _hash64(key: int) -> int:
    """SplitMix64 finaliser: deterministic, well-mixed 64-bit hash."""
    z = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class _Segment:
    __slots__ = ("local_depth", "slots")

    def __init__(self, local_depth: int, n_slots: int):
        self.local_depth = local_depth
        self.slots: List[Optional[Tuple[int, Key, Any]]] = [_EMPTY] * n_slots


class CCEH(Index):
    """Extendible hash table with cacheline buckets (unordered)."""

    name = "CCEH"

    def __init__(
        self,
        segment_bits: int = 10,
        initial_depth: int = 2,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        if not 4 <= segment_bits <= 20:
            raise InvalidConfigurationError("segment_bits must be in [4, 20]")
        if initial_depth < 1:
            raise InvalidConfigurationError("initial_depth must be >= 1")
        self.segment_bits = segment_bits
        self._segment_slots = 1 << segment_bits
        self.global_depth = initial_depth
        # Each directory entry initially owns its own segment.
        self._directory: List[_Segment] = [
            _Segment(initial_depth, self._segment_slots)
            for _ in range(1 << initial_depth)
        ]
        self._n = 0

    # -- hashing ------------------------------------------------------------

    def _locate(self, key: Key) -> Tuple[int, _Segment, int]:
        h = _hash64(key)
        self.perf.charge(Event.HASH)
        dir_idx = h >> (64 - self.global_depth)
        self.perf.charge(Event.DRAM_HOP)  # directory
        segment = self._directory[dir_idx]
        bucket = (h & (self._segment_slots - 1)) // _BUCKET_SLOTS
        return h, segment, bucket

    def _probe_slots(self, segment: _Segment, bucket: int):
        """Slot indexes in the probe window, cacheline by cacheline."""
        n_buckets = self._segment_slots // _BUCKET_SLOTS
        for b in range(_PROBE_BUCKETS):
            base = ((bucket + b) % n_buckets) * _BUCKET_SLOTS
            if b > 0:
                self.perf.charge(Event.DRAM_SEQ)
            for off in range(_BUCKET_SLOTS):
                yield base + off

    # -- operations -----------------------------------------------------------

    def get(self, key: Key) -> Optional[Value]:
        if not is_uint64(key):
            return None  # no stored key equals it; nothing to hash
        key = int(key)
        _, segment, bucket = self._locate(key)
        self.perf.charge(Event.DRAM_HOP)  # the bucket cacheline
        for slot in self._probe_slots(segment, bucket):
            entry = segment.slots[slot]
            self.perf.charge(Event.COMPARE)
            if entry is _EMPTY:
                return None
            if entry is _TOMBSTONE:
                continue
            if entry[1] == key:
                return entry[2]
        return None

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        check_uint64(key)
        for _ in range(64):  # split depth is bounded by the hash width
            h, segment, bucket = self._locate(key)
            self.perf.charge(Event.DRAM_HOP)
            first_free = -1
            for slot in self._probe_slots(segment, bucket):
                entry = segment.slots[slot]
                self.perf.charge(Event.COMPARE)
                if entry is _EMPTY:
                    if first_free < 0:
                        first_free = slot
                    break
                if entry is _TOMBSTONE:
                    if first_free < 0:
                        first_free = slot
                    continue
                if entry[1] == key:
                    segment.slots[slot] = (h, key, value)
                    return entry[2]
            if first_free >= 0:
                segment.slots[first_free] = (h, key, value)
                self._n += 1
                return None
            self._split(segment)
        raise ReproError(f"CCEH upsert of key {key} did not converge")

    def delete(self, key: Key) -> bool:
        if not is_uint64(key):
            return False
        key = int(key)
        _, segment, bucket = self._locate(key)
        self.perf.charge(Event.DRAM_HOP)
        for slot in self._probe_slots(segment, bucket):
            entry = segment.slots[slot]
            self.perf.charge(Event.COMPARE)
            if entry is _EMPTY:
                return False
            if entry is _TOMBSTONE:
                continue
            if entry[1] == key:
                segment.slots[slot] = _TOMBSTONE
                self._n -= 1
                return True
        return False

    def update(self, key: Key, value: Value) -> bool:
        check_uint64(key)
        if self.get(key) is None:
            return False
        self.upsert(key, value)
        return True

    def _split(self, segment: _Segment) -> None:
        """Split one segment; double the directory if needed."""
        if segment.local_depth == self.global_depth:
            self._directory = [s for s in self._directory for _ in (0, 1)]
            self.global_depth += 1
            self.perf.charge(Event.ALLOC)
            self.perf.charge(Event.KEY_MOVE, len(self._directory))
            self.perf.trace(
                EventType.NODE_ALLOC,
                index=self.name,
                count=len(self._directory),
                reason="directory_double",
            )

        new_depth = segment.local_depth + 1
        left = _Segment(new_depth, self._segment_slots)
        right = _Segment(new_depth, self._segment_slots)
        self.perf.charge(Event.ALLOC, 2)

        moved = 0
        for entry in segment.slots:
            if entry is _EMPTY or entry is _TOMBSTONE:
                continue
            h, key, value = entry
            target = right if (h >> (64 - new_depth)) & 1 else left
            self._rehash_into(target, h, key, value)
            moved += 1
        self.perf.charge(Event.KEY_MOVE, moved)
        self.perf.trace(
            EventType.LEAF_SPLIT,
            index=self.name,
            keys=moved,
            count=2,
            reason="segment_full",
        )

        # Repoint every directory entry that referenced the old segment:
        # the bit that ``new_depth`` adds decides left vs. right.
        bit_shift = self.global_depth - new_depth
        for i, seg in enumerate(self._directory):
            if seg is segment:
                self._directory[i] = right if (i >> bit_shift) & 1 else left

    def _rehash_into(self, segment: _Segment, h: int, key: Key, value: Any) -> None:
        bucket = (h & (self._segment_slots - 1)) // _BUCKET_SLOTS
        n_buckets = self._segment_slots // _BUCKET_SLOTS
        for b in range(n_buckets):  # during a split, probing may wrap far
            base = ((bucket + b) % n_buckets) * _BUCKET_SLOTS
            for off in range(_BUCKET_SLOTS):
                if segment.slots[base + off] is _EMPTY:
                    segment.slots[base + off] = (h, key, value)
                    return
        raise ReproError("CCEH split produced an over-full segment")

    # -- bulk -----------------------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        for key, value in items:
            self.upsert(key, value)

    def __len__(self) -> int:
        return self._n

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        segments = {id(s): s for s in self._directory}
        return (
            len(self._directory) * 8
            + len(segments) * self._segment_slots * _SLOT_BYTES
        )

    def stats(self) -> IndexStats:
        segments = {id(s) for s in self._directory}
        return IndexStats(
            depth_avg=2.0,
            depth_max=2,
            leaf_count=len(segments),
            extra={"global_depth": self.global_depth},
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=False,
            updatable=True,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=True,
            inner_node="directory",
            leaf_node="hash segment",
            approximation="-",
            insertion="hash probe",
            retraining="segment split",
        )
