"""Base class for internal structures."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import repro.core.approximation.vectorized as _vec
from repro.perf.context import DEFAULT_CONTEXT, PerfContext
from repro.perf.events import Event


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

    def lookup_many(self, keys: Sequence[int]) -> List[int]:
        """Batch :meth:`lookup` over a *sorted* or unsorted query batch.

        Every structure answers the same contract (rightmost fence <=
        key, clamped to 0), so the fast path evaluates it directly with
        one ``searchsorted`` over the fence array.  The per-probe event
        ledger of the scalar descent is replaced by a coarse aggregate
        bill — one comparison per binary-search level plus one pointer
        chase per query — since batched routing genuinely skips the
        per-level node hops (that is the point of the optimisation).
        """
        fences = self.fences
        qs = _vec.as_u64(keys) if len(fences) else None
        if qs is None:
            return [self.lookup(key) for key in keys]
        fa = self._fence_array()
        if fa is None:
            return [self.lookup(key) for key in keys]
        np = _vec.np
        idx = np.searchsorted(fa, qs, side="right").astype(np.int64) - 1
        np.maximum(idx, 0, out=idx)
        levels = max(1, len(fences).bit_length())
        self.perf.charge(Event.COMPARE, len(keys) * levels)
        self.perf.charge(Event.DRAM_HOP, len(keys))
        return idx.tolist()

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
