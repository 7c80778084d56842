"""Base class for internal structures."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import repro.core.approximation.vectorized as _vec
from repro.perf.context import DEFAULT_CONTEXT, PerfContext


class InternalStructure(ABC):
    """Routes a key to the index of the leaf segment covering it."""

    name: str = "structure"

    def __init__(self, perf: Optional[PerfContext] = None):
        self.perf = perf if perf is not None else DEFAULT_CONTEXT
        self.fences: Sequence[int] = ()

    @abstractmethod
    def build(self, fences: Sequence[int]) -> None:
        """Construct the structure over sorted, unique fence keys."""

    @abstractmethod
    def lookup(self, key: int) -> int:
        """Index of the rightmost fence <= key (0 if key < fences[0])."""

    def lookup_many(self, keys: Sequence[int]):
        """Batch :meth:`lookup`: an int64 array whose position ``i``
        answers ``keys[i]``, sorted batch or not.

        The batch bills exactly what the loop of :meth:`lookup` bills.
        A batch of uint64 keys goes to :meth:`_lookup_many`, whose
        vectorized form answers with one ``searchsorted`` per searched
        array and bills the scalar descent's replayed totals; any other
        batch, or a structure without a vectorized form, runs the loop.
        """
        np = _vec.np
        qs = _vec.as_u64(keys)
        if qs is not None:
            found = self._lookup_many(qs)
            if found is not None:
                return found
            keys = qs.tolist()
        return np.array([self.lookup(key) for key in keys], dtype=np.int64)

    def _lookup_many(self, qs):
        """:meth:`lookup_many` of a uint64 array with the loop's ledger,
        or ``None`` (charging nothing) to run the loop."""
        return None

    def _fence_array(self):
        """Cached exact-uint64 copy of ``self.fences`` (or ``None``)."""
        cached = getattr(self, "_fences_np", None)
        if cached is not None and cached[0] is self.fences:
            return cached[1]
        arr = _vec.as_u64(self.fences)
        self._fences_np = (self.fences, arr)
        return arr

    @abstractmethod
    def avg_depth(self) -> float:
        """Mean number of node hops from root to a leaf pointer."""

    @abstractmethod
    def max_depth(self) -> int: ...

    @abstractmethod
    def size_bytes(self) -> int: ...

    def __repr__(self) -> str:
        return f"{type(self).__name__}(fences={len(self.fences)})"
