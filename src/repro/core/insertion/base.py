"""Leaf container interface shared by the three insertion strategies."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.approximation.vectorized as _vec
from repro.perf.context import PerfContext


def object_array(values: Sequence[Any]) -> Any:
    """``values`` as a 1-d numpy object array, one element per value.

    ``np.array(values, dtype=object)`` would turn equal-length tuples,
    such as the store's ``(page, slot)`` locations, into a 2-d array;
    ``fromiter`` keeps every value one element.
    """
    if isinstance(values, np.ndarray) and values.dtype == object:
        return values
    return np.fromiter(values, dtype=object, count=len(values))


class InsertResult(enum.Enum):
    """Outcome of a leaf insert."""

    INSERTED = "inserted"
    UPDATED = "updated"  # key existed; value overwritten
    FULL = "full"  # no space: the retraining policy must act first


class Leaf(ABC):
    """A leaf node holding sorted key/value pairs behind a linear model."""

    def __init__(self, perf: PerfContext):
        self.perf = perf

    @property
    @abstractmethod
    def first_key(self) -> int:
        """Smallest key covered (the leaf's fence)."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of live keys (including any buffered ones)."""

    @abstractmethod
    def get(self, key: int) -> Optional[Any]: ...

    def get_many(self, keys: Any) -> List[Optional[Any]]:
        """Batch :meth:`get`; strategies may override with a fast path.

        ``keys`` is a sequence of ints or a ``uint64`` array, which is
        converted once with ``tolist`` so :meth:`get` never sees a numpy
        scalar (under NEP 50, ``np.uint64`` minus an int wraps).
        """
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        return [self.get(key) for key in keys]

    @abstractmethod
    def upsert(self, key: int, value: Any) -> Tuple[InsertResult, Optional[Any]]:
        """Insert-or-overwrite in one rank search; returns
        ``(result, old_value)``.

        ``old_value`` is the payload that was overwritten when the result
        is UPDATED, ``None`` otherwise, so a store-level put costs one
        leaf search.
        """

    def insert(self, key: int, value: Any) -> InsertResult:
        return self.upsert(key, value)[0]

    def insert_batch(self, keys: Any, values: Any) -> Optional[Tuple[int, Any]]:
        """Bulk upsert of a run: its ascending ``uint64`` keys (repeats
        adjacent, the last one wins) and a 1-d object array of values.

        Returns ``(new keys, old values)``: the count of keys the leaf did
        not hold, and an object array of what a loop of :meth:`upsert`
        would return (an in-run repeat sees its predecessor's value).
        ``None``, the default, asks the caller to write key by key.
        """
        return None

    def delete(self, key: int) -> bool:
        """Remove ``key``; return False if absent.  Strategies override."""
        raise NotImplementedError

    @abstractmethod
    def items(self) -> List[Tuple[int, Any]]:
        """All live pairs in ascending key order (used by retraining)."""

    def live_arrays(self) -> Tuple[Any, Any]:
        """The live keys as a ``uint64`` array and their values as a 1-d
        object array, ascending: what ALEX's retrain rebuilds from.

        The default converts :meth:`items`.
        """
        items = self.items()
        keys = _vec.as_u64([k for k, _ in items])
        return keys, object_array([v for _, v in items])

    @abstractmethod
    def size_bytes(self) -> int: ...

    @property
    def capacity_slots(self) -> int:
        """Key/pointer slots this leaf keeps resident (incl. reserve)."""
        return self.n

    def iter_range(
        self, lo: int, hi: int
    ) -> Iterator[Tuple[int, Any]]:
        """Pairs with lo <= key <= hi, ascending (default: filter items)."""
        for key, value in self.items():
            if key > hi:
                return
            if key >= lo:
                yield key, value

    def scan_from(self, lo: int, limit: int) -> List[Tuple[int, Any]]:
        """Up to ``limit`` pairs with key >= ``lo``, ascending.

        The range-extraction primitive behind ``ComposedIndex.scan_many``:
        one call hands back a whole run from this leaf instead of
        ``limit`` iterator steps.  Like :meth:`iter_range` it charges
        nothing (the composed index bills positioning at the structure
        level); strategies with an indexable storage backend override the
        default bounded iteration with a slice/merge fast path.
        """
        out: List[Tuple[int, Any]] = []
        for pair in self.iter_range(lo, 2**64 - 1):
            out.append(pair)
            if len(out) >= limit:
                break
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(first_key={self.first_key}, n={self.n})"
