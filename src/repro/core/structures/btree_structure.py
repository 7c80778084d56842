"""B+tree internal structure over fence keys (FITing-tree's inner index).

Comparison-based routing: every level costs a cache-missing node hop plus
a binary search inside the node.  The paper's point (§IV-B): "BTREE
requires multiple comparing operations to find the target key, taking much
time" relative to calculated structures once there are many leaves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import repro.core.approximation.vectorized as _vec
from repro.core.search import bounded_binary_search, bounded_binary_search_many
from repro.core.structures.base import InternalStructure
from repro.errors import EmptyIndexError, InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.perf.events import Event

#: Bytes per B+tree slot (8-byte key + 8-byte child pointer).
_SLOT_BYTES = 16


class BTreeStructure(InternalStructure):
    """Static bottom-up-bulk-loaded B+tree routing to leaf indexes.

    ``levels[0]`` is the fence array itself; ``levels[k]`` holds every
    ``fanout``-th key of ``levels[k-1]``.  Lookup walks levels from the
    top, narrowing to a ``fanout``-wide window each time.
    """

    name = "BTREE"

    def __init__(self, fanout: int = 64, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        if fanout < 2:
            raise InvalidConfigurationError(f"fanout must be >= 2, got {fanout}")
        self.fanout = fanout
        self._levels: List[Sequence[int]] = []

    def build(self, fences: Sequence[int]) -> None:
        if not fences:
            raise EmptyIndexError("cannot build over zero fences")
        self.fences = fences
        self._levels = [fences]
        while len(self._levels[-1]) > self.fanout:
            self._levels.append(self._levels[-1][:: self.fanout])

    def lookup(self, key: int) -> int:
        if not self._levels:
            raise EmptyIndexError("structure not built")
        charge = self.perf.charge
        idx = 0
        for depth in range(len(self._levels) - 1, -1, -1):
            level = self._levels[depth]
            lo = idx
            hi = min(len(level) - 1, idx + self.fanout - 1)
            charge(Event.DRAM_HOP)  # descend into this node
            idx = bounded_binary_search(level, key, lo, hi, self.perf)
            if depth > 0:
                idx *= self.fanout
        return idx

    def _lookup_many(self, qs):
        """:meth:`lookup`'s walk with each level's halving run for the
        whole batch; ``levels[k]`` is every ``fanout**k``-th fence, so
        its array is a strided view of the fence array."""
        if not self._levels:
            raise EmptyIndexError("structure not built")
        fences = self._fence_array()
        if fences is None:
            return None
        np = _vec.np
        idx = np.zeros(qs.size, dtype=np.int64)
        for depth in range(len(self._levels) - 1, -1, -1):
            level = fences[:: self.fanout**depth]
            hi = np.minimum(len(level) - 1, idx + self.fanout - 1)
            self.perf.charge(Event.DRAM_HOP, qs.size)
            idx = bounded_binary_search_many(level, qs, idx, hi, self.perf)
            if depth > 0:
                idx *= self.fanout
        return idx

    def avg_depth(self) -> float:
        return float(len(self._levels))

    def max_depth(self) -> int:
        return len(self._levels)

    def size_bytes(self) -> int:
        # The fence level is owned by the leaf layer; count inner levels.
        return sum(len(level) for level in self._levels[1:]) * _SLOT_BYTES

    @property
    def height(self) -> int:
        return len(self._levels)
