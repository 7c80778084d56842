"""The read-only learned indexes' shared half: one sorted array and its search.

RMI, RadixSpline and static PGM each keep their keys and values in one
sorted array pair and answer a lookup in two steps: a model predicts the
key's position, then a last-mile search from that guess finds it (SOSD's
model inference plus local search).  Only the first step differs, so
this base owns the arrays, the search, ``get``, ``range`` and ``len``;
a subclass supplies :meth:`StaticArrayIndex._guess`.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.interfaces import Key, SortedIndex, Value, check_sorted_unique
from repro.core.search import rank_search
from repro.perf.context import PerfContext
from repro.perf.events import Event


class StaticArrayIndex(SortedIndex):
    """Sorted key/value arrays searched from a model's predicted position."""

    def __init__(self, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        self._keys: List[Key] = []
        self._values: List[Any] = []

    def _load(self, items: Sequence[Tuple[Key, Value]]) -> int:
        """Check ``items`` and keep them as the two arrays; return their count."""
        check_sorted_unique(items)
        self._keys = [k for k, _ in items]
        self._values = [v for _, v in items]
        return len(items)

    @abstractmethod
    def _guess(self, key: Key) -> int:
        """The model's predicted position of ``key`` in the key array.

        Charges the model's own events (its routing and evaluation); only
        called on a loaded index.
        """

    def _rank(self, key: Key) -> int:
        """Index of the rightmost key <= ``key``, or -1 if there is none."""
        guess = self._guess(key)
        self.perf.charge(Event.DRAM_HOP)  # first touch of the key array
        keys = self._keys
        return rank_search(keys, 0, len(keys) - 1, key, guess, self.perf)

    def get(self, key: Key) -> Optional[Value]:
        keys = self._keys
        if not keys:
            return None
        pos = self._rank(key)
        if pos >= 0 and keys[pos] == key:
            self.perf.charge(Event.DRAM_SEQ)
            return self._values[pos]
        return None

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        keys = self._keys
        if not keys:
            return
        pos = self._rank(lo)
        if pos < 0 or keys[pos] < lo:
            pos += 1
        while pos < len(keys) and keys[pos] <= hi:
            self.perf.charge(Event.DRAM_SEQ)
            yield keys[pos], self._values[pos]
            pos += 1

    def __len__(self) -> int:
        return len(self._keys)
