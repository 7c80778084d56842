"""Abstract index interfaces shared by learned and traditional indexes.

Keys are unsigned 64-bit integers (the paper uses 8-byte keys throughout);
values are arbitrary Python objects — in the Viper store they are
``(page_id, slot)`` offsets into simulated persistent memory.

Every write that stores a key or a value (``insert``, ``upsert``,
``update``, the batch forms, and ``bulk_load`` through
:func:`check_sorted_unique`) refuses a key outside uint64 with
``InvalidKeysError`` before it changes anything.  ``delete`` stores
nothing: like a lookup, it removes the stored key its argument equals
(``delete(3.0)`` removes 3) and answers False when no stored key does.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.errors import InvalidKeysError, UnsupportedOperationError
from repro.perf.context import DEFAULT_CONTEXT, PerfContext

Key = int
Value = Any

#: Exclusive upper bound of the uint64 key space.
KEY_LIMIT = 1 << 64


def scan_start(start: Any) -> Optional[int]:
    """The smallest uint64 key at or above ``start``; ``None`` if none is.

    An integer of any type converts exactly, any other number rounds up,
    and a negative start clamps to 0, so a scan from ``start`` is a scan
    from the returned key.
    """
    try:
        s = operator.index(start)
    except TypeError:
        s = math.ceil(start)
    if s >= KEY_LIMIT:
        return None
    return s if s > 0 else 0


def is_uint64(key: Any) -> bool:
    """Whether ``key`` equals a uint64 key: an integral number in [0, 2^64).

    The lookup-side test: a key that fails it (NaN, infinities, fractions,
    non-numbers) equals no stored key, while an integral float such as
    3.0 equals the stored 3.  Writes use :func:`check_uint64`.
    """
    try:
        return 0 <= key < KEY_LIMIT and int(key) == key
    except TypeError:
        return False


def check_uint64(key: Any) -> None:
    """Raise :class:`InvalidKeysError` unless ``key`` is a storable key:
    an ``int`` (not a ``bool``) in [0, 2^64), exactly what ``as_u64``
    converts.

    Every write that stores a key or a value, in every index, store and
    engine, runs this (or :func:`check_uint64_items`) before it changes
    anything, so a refused call leaves the index, the device and every
    shard as they were.  Lookups and deletes compare numerically instead
    (see :func:`is_uint64`), so ``get(3.0)`` finds 3 and ``delete(3.0)``
    removes it.
    """
    if type(key) is not int or not 0 <= key < KEY_LIMIT:
        raise InvalidKeysError(
            f"key {key!r} is not an integer in the uint64 key space"
        )


def check_uint64_items(items: Sequence[Tuple[Any, Any]]) -> None:
    """:func:`check_uint64` on every key of a batch, before any is applied.

    A batch of in-range Python ints, the common case, passes three
    C-level scans (types, min, max) instead of one call per key.
    """
    keys = [key for key, _ in items]
    if (
        set(map(type, keys)) == {int}
        and min(keys) >= 0
        and max(keys) < KEY_LIMIT
    ):
        return
    for key in keys:
        check_uint64(key)


@dataclass(frozen=True)
class Capabilities:
    """What an index supports — the reproduction of the paper's Table I."""

    sorted_order: bool = True
    updatable: bool = True
    bounded_error: bool = False
    concurrent_read: bool = True
    concurrent_write: bool = False
    inner_node: str = ""
    leaf_node: str = ""
    approximation: str = ""
    insertion: str = ""
    retraining: str = ""


@dataclass
class IndexStats:
    """Structural statistics reported alongside performance numbers."""

    depth_avg: float = 0.0
    depth_max: int = 0
    leaf_count: int = 0
    avg_error: float = 0.0
    max_error: int = 0
    retrain_count: int = 0
    retrain_keys: int = 0
    retrain_time_ns: float = 0.0
    extra: dict = field(default_factory=dict)


class Index(ABC):
    """Point-lookup index over uint64 keys."""

    #: Human-readable index name used in benchmark tables.
    name: str = "index"

    def __init__(self, perf: Optional[PerfContext] = None):
        self.perf = perf if perf is not None else DEFAULT_CONTEXT

    # -- construction ---------------------------------------------------

    @abstractmethod
    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        """Build the index from ``items`` sorted ascending by unique key."""

    # -- queries ----------------------------------------------------------

    @abstractmethod
    def get(self, key: Key) -> Optional[Value]:
        """Return the value stored under ``key`` or ``None``."""

    def __contains__(self, key: Key) -> bool:
        return self.get(key) is not None

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """Batch point lookup; position ``i`` answers ``keys[i]``.

        The default is the per-key loop, so every index satisfies the
        same contract; indexes with a contiguous key array override this
        with a vectorized fast path (one ``searchsorted`` for the whole
        batch instead of one model descent per key).
        """
        return [self.get(key) for key in keys]

    def contains_many(self, keys: Sequence[Key]) -> List[bool]:
        """Batch membership test; equivalent to ``[k in self for k in keys]``."""
        return [value is not None for value in self.get_many(keys)]

    @abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""

    # -- mutation (optional) ----------------------------------------------

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        """Insert-or-overwrite; returns the previous value, or ``None`` if
        the key was fresh.

        This is the one write an updatable index implements, in one
        descent: the search that finds the key's slot resolves the old
        value *and* places the new one.  It is the store's put primitive,
        so a put charges one lookup and one write, as in the paper's cost
        model.  A read-only index raises ``UnsupportedOperationError``.
        """
        raise UnsupportedOperationError(f"{self.name} is read-only")

    def insert(self, key: Key, value: Value) -> None:
        """Insert a new key (or overwrite an existing one)."""
        self.upsert(key, value)

    def upsert_many(
        self, items: Sequence[Tuple[Key, Value]]
    ) -> List[Optional[Value]]:
        """Batch :meth:`upsert`; observably equivalent to upserting the
        items in order, returning each item's previous value (so on
        duplicate keys within the batch the second occurrence sees the
        first occurrence's value as its "old").

        ``ViperStore.put_many`` is one call of it.  The default is the
        per-key :meth:`upsert` loop, so a batch put bills what its scalar
        puts bill; indexes whose structure admits it override it with a
        native path (sorted leaf routing, leaf-chain reuse, one LSM
        merge) — see ``registry.has_native_batch_insert``.
        """
        check_uint64_items(items)
        return [self.upsert(key, value) for key, value in items]

    def insert_many(self, items: Sequence[Tuple[Key, Value]]) -> None:
        """Batch insert; observably equivalent to inserting ``items`` in
        order (so on duplicate keys within the batch the last value wins).
        """
        self.upsert_many(items)

    def update(self, key: Key, value: Value) -> bool:
        """Overwrite an existing key's value; return False if absent.
        An updatable index refuses a key outside uint64 first."""
        raise UnsupportedOperationError(f"{self.name} is read-only")

    def delete(self, key: Key) -> bool:
        """Remove the stored key ``key`` equals (``delete(3.0)`` removes
        3); return False if no stored key does."""
        raise UnsupportedOperationError(f"{self.name} does not support delete")

    # -- metadata -----------------------------------------------------------

    @abstractmethod
    def size_bytes(self) -> int:
        """Approximate DRAM footprint of the index *structure* only
        (models, inner nodes, directories) — Table III's first column."""

    def key_store_bytes(self) -> int:
        """DRAM needed to keep the key/pointer array resident, including
        any reserved slots, gaps, or per-node buffers — the increment
        Table III's "Index+key" column adds.  16 bytes per slot (8-byte
        key + 8-byte record pointer)."""
        return 16 * len(self)

    def stats(self) -> IndexStats:
        return IndexStats()

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)})"


class SortedIndex(Index):
    """Index that maintains keys in sorted order and supports range scans."""

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        """Yield ``(key, value)`` for lo <= key <= hi in ascending order."""
        raise UnsupportedOperationError(f"{self.name} does not support range")

    def scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        """Return up to ``count`` pairs with key >= start, ascending.

        A count of 0 or less returns ``[]`` without a search, so it
        charges nothing; every ``scan_many`` answers it the same way.
        """
        out: List[Tuple[Key, Value]] = []
        if count <= 0:
            return out
        for pair in self.range(start, 2**64 - 1):
            out.append(pair)
            if len(out) >= count:
                break
        return out

    def scan_many(
        self, starts: Sequence[Key], count: int
    ) -> List[List[Tuple[Key, Value]]]:
        """Batch scan; position ``i`` answers ``scan(starts[i], count)``.

        The default is the per-start loop, so every sorted index
        satisfies the same contract: the result lists, their order, and
        the simulated event charges are bit-identical to sequential
        :meth:`scan` calls.  Indexes whose leaves are contiguous (or
        gapped-but-compactable) arrays override this with a vectorized
        path that keeps per-start positioning but extracts each run as a
        slice copy with one aggregate charge — see
        ``registry.has_native_batch_scan``.
        """
        return [self.scan(start, count) for start in starts]


class UpdatableIndex(SortedIndex):
    """Sorted index supporting inserts — the paper's focus class."""

    @abstractmethod
    def upsert(self, key: Key, value: Value) -> Optional[Value]: ...

    def update(self, key: Key, value: Value) -> bool:
        check_uint64(key)
        if self.get(key) is None:
            return False
        self.upsert(key, value)
        return True


def check_sorted_unique(items: Sequence[Tuple[Key, Value]]) -> None:
    """Validate a bulk-load input before anything is built: a key outside
    uint64 raises ``InvalidKeysError``, keys not strictly ascending raise
    ``ValueError``.

    A batch of 64 keys or more is converted once with ``as_u64``, and a
    converted batch holds only uint64 keys, so the key check costs no
    second pass.  A smaller batch, or one ``as_u64`` refused, is checked
    key by key.
    """
    n = len(items)
    arr = None
    if n >= _vec.MIN_VECTOR_KEYS:
        arr = _vec.as_u64([k for k, _ in items])
    if arr is None:
        check_uint64_items(items)
        bad = next(
            (i for i in range(1, n) if items[i - 1][0] >= items[i][0]), 0
        )
    else:
        ascending = arr[1:] > arr[:-1]
        bad = 0 if ascending.all() else int(_vec.np.argmin(ascending)) + 1
    if bad:
        raise ValueError(
            f"bulk_load requires strictly ascending keys; items[{bad - 1}]="
            f"{items[bad - 1][0]} >= items[{bad}]={items[bad][0]}"
        )
