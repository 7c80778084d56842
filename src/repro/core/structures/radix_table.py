"""Radix prefix table (RadixSpline's internal structure, over its knots).

A flat array of ``2^r`` entries maps the ``r`` most significant bits of
the (range-normalised) key to the first fence with that prefix; a binary
search within the bucket finishes the job.  The structure is a single hop
— which is why RadixSpline recovers fastest (Fig 16) — but the fixed
prefix cannot adapt: on skewed data such as FACE "a large number of keys
fall within (0, 2^50)" so most keys share one bucket and the binary search
degenerates (Fig 11).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.search import bounded_binary_search, bounded_binary_search_many
from repro.core.structures.base import InternalStructure
from repro.errors import EmptyIndexError, InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.perf.events import Event

_ENTRY_BYTES = 4  # 32-bit fence offsets, as in the RadixSpline paper


class RadixTableStructure(InternalStructure):
    """Flat ``2^r``-entry prefix table over fence keys."""

    name = "RadixTable"

    def __init__(self, r_bits: int = 18, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        if not 1 <= r_bits <= 30:
            raise InvalidConfigurationError(
                f"r_bits must be in [1, 30], got {r_bits}"
            )
        self.r_bits = r_bits
        self._table: List[int] = []
        self._min_key = 0
        self._shift = 0

    def build(self, fences: Sequence[int]) -> None:
        if not fences:
            raise EmptyIndexError("cannot build over zero fences")
        self.fences = fences
        self._min_key = fences[0]
        key_range = fences[-1] - fences[0]
        # The prefix is taken from the key's normalised position in the
        # covered range; skew in the raw keys translates directly into
        # bucket imbalance, as it does for real RadixSpline.
        self._shift = max(0, key_range.bit_length() - self.r_bits)
        slots = 1 << self.r_bits
        table = [0] * (slots + 1)
        for idx, fence in enumerate(fences):
            b = (fence - self._min_key) >> self._shift
            if b >= slots:
                b = slots - 1
            table[b + 1] = idx + 1
        # Forward-fill: table[b] = index of first fence in bucket >= b.
        for b in range(1, slots + 1):
            if table[b] < table[b - 1]:
                table[b] = table[b - 1]
        self._table = table
        self._table_np = _vec.np.array(table)

    def bucket_of(self, key: int) -> int:
        if key <= self._min_key:
            return 0
        if type(key) is not int:
            # Fences are integers, so a fence is <= key exactly when it
            # is <= floor(key): bucket by the floor (past every fence,
            # bucket by the last one).
            key = math.floor(key) if key < math.inf else self.fences[-1]
        b = (key - self._min_key) >> self._shift
        slots = 1 << self.r_bits
        return slots - 1 if b >= slots else b

    def bounds(self, key: int) -> Tuple[int, int]:
        """The fence window ``[lo, hi]`` that holds the rightmost fence
        <= ``key``: the key's bucket, widened by one fence on the left,
        since a key that falls before its bucket's first fence is covered
        by the previous bucket's last fence."""
        b = self.bucket_of(key)
        table = self._table
        return max(0, table[b] - 1), max(0, table[b + 1] - 1)

    def lookup(self, key: int) -> int:
        if not self._table:
            raise EmptyIndexError("structure not built")
        charge = self.perf.charge
        charge(Event.DRAM_HOP)  # the table probe
        lo, hi = self.bounds(key)
        charge(Event.DRAM_HOP)  # first touch of the fence bucket
        return bounded_binary_search(self.fences, key, lo, hi, self.perf)

    def _lookup_many(self, qs):
        """Every query's bucket bounds from one table gather, then one
        batch halving, billed as :meth:`lookup` bills each key."""
        if not self._table:
            raise EmptyIndexError("structure not built")
        fences = self._fence_array()
        if fences is None:
            return None
        np = _vec.np
        b = np.where(qs > self._min_key, qs - np.uint64(self._min_key), 0)
        b >>= np.uint64(self._shift)
        np.minimum(b, (1 << self.r_bits) - 1, out=b)
        lo = np.maximum(self._table_np[b] - 1, 0)
        hi = np.maximum(self._table_np[b + 1] - 1, 0)
        self.perf.charge(Event.DRAM_HOP, 2 * qs.size)
        return bounded_binary_search_many(fences, qs, lo, hi, self.perf)

    def bucket_sizes(self) -> List[int]:
        """Fences per bucket — the skew diagnostic used by Fig 11."""
        return [
            self._table[b + 1] - self._table[b]
            for b in range(len(self._table) - 1)
        ]

    def avg_depth(self) -> float:
        return 1.0

    def max_depth(self) -> int:
        return 1

    def size_bytes(self) -> int:
        return len(self._table) * _ENTRY_BYTES
