"""The read-only learned indexes' shared half: one sorted array and its search.

RMI, RadixSpline and static PGM each keep their keys and values in one
sorted array pair and answer a lookup in two steps: a model predicts the
key's position, then a last-mile search from that guess finds it (SOSD's
model inference plus local search).  Only the first step differs, so
this base owns the arrays, the search, ``get``, ``range``, ``len`` and
the batch reads; a subclass supplies :meth:`StaticArrayIndex._guess`
and, where its model vectorizes, :meth:`StaticArrayIndex._guess_many`.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.interfaces import Key, SortedIndex, Value, check_sorted_unique
from repro.core.search import rank_search, rank_search_many
from repro.perf.context import PerfContext
from repro.perf.events import Event


class StaticArrayIndex(SortedIndex):
    """Sorted key/value arrays searched from a model's predicted position."""

    def __init__(self, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        self._keys: List[Key] = []
        self._values: List[Any] = []
        self._keys_np = _vec.as_u64(self._keys)
        self._pairs: Optional[List[Tuple[Key, Any]]] = None

    def _load(self, items: Sequence[Tuple[Key, Value]]) -> int:
        """Check ``items`` and keep them as the two arrays; return their count."""
        check_sorted_unique(items)
        self._keys = [k for k, _ in items]
        self._values = [v for _, v in items]
        self._keys_np = _vec.as_u64(self._keys)
        self._pairs = None
        return len(items)

    @abstractmethod
    def _guess(self, key: Key) -> int:
        """The model's predicted position of ``key`` in the key array.

        Charges the model's own events (its routing and evaluation); only
        called on a loaded index.
        """

    def _guess_many(self, qs) -> Any:
        """:meth:`_guess` of a uint64 array as an int64 array, billed as
        its loop; the default is that loop."""
        return _vec.np.fromiter(
            map(self._guess, qs.tolist()), dtype=_vec.np.int64, count=qs.size
        )

    def _rank(self, key: Key) -> int:
        """Index of the rightmost key <= ``key``, or -1 if there is none."""
        guess = self._guess(key)
        self.perf.charge(Event.DRAM_HOP)  # first touch of the key array
        keys = self._keys
        return rank_search(keys, 0, len(keys) - 1, key, guess, self.perf)

    def _rank_many(self, qs) -> Tuple[Any, Any]:
        """:meth:`_rank` of every key of a uint64 array, billed as its
        loop: ``(rank, present)`` int64 and bool arrays."""
        guess = self._guess_many(qs)
        self.perf.charge(Event.DRAM_HOP, qs.size)
        keys = self._keys_np
        rank = rank_search_many(keys, qs, guess, self.perf)
        present = (rank >= 0) & (keys[rank] == qs)
        return rank, present

    def get(self, key: Key) -> Optional[Value]:
        keys = self._keys
        if not keys:
            return None
        pos = self._rank(key)
        if pos >= 0 and keys[pos] == key:
            self.perf.charge(Event.DRAM_SEQ)
            return self._values[pos]
        return None

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """One batch rank for the whole batch (:meth:`_rank_many`), billed
        as the loop of :meth:`get`; any batch of other than uint64 keys
        runs that loop."""
        qs = _vec.as_u64(keys) if self._keys and len(keys) else None
        if qs is None:
            return [self.get(key) for key in keys]
        rank, present = self._rank_many(qs)
        hits = int(present.sum())
        if hits:
            self.perf.charge(Event.DRAM_SEQ, hits)
        values = self._values
        return [
            values[p] if h else None
            for p, h in zip(rank.tolist(), present.tolist())
        ]

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

    def scan_many(
        self, starts: Sequence[Key], count: int
    ) -> List[List[Tuple[Key, Value]]]:
        """One batch rank for every start, each run a slice of the pair
        list (built on the first batch scan, kept in step by every
        write); billed as the loop of :meth:`scan`, which any batch of
        other than uint64 starts runs."""
        batch = count > 0 and self._keys and len(starts)
        qs = _vec.as_u64(starts) if batch else None
        if qs is None:
            return super().scan_many(starts, count)
        rank, present = self._rank_many(qs)
        begin = rank + 1 - present
        takes = _vec.np.minimum(count, len(self._keys) - begin)
        taken = int(takes.sum())
        if taken:
            self.perf.charge(Event.DRAM_SEQ, taken)
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = list(zip(self._keys, self._values))
        return [
            pairs[p : p + t] for p, t in zip(begin.tolist(), takes.tolist())
        ]

    def __len__(self) -> int:
        return len(self._keys)
