"""Offsite buffer insertion: a per-leaf sorted staging area.

FITing-tree-buf and XIndex reserve "an extra fixed-size buffer for each
leaf node to store the newly inserted data temporarily and to keep them in
order" (§II-B1).  Inserts shift only within the (small) buffer, but every
lookup must search both the main run and the buffer, and a full buffer
forces a merge-retrain — the coupling behind Fig 18(c)'s reserve-size
trade-off.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.approximation.base import LinearModel
from repro.core.insertion.base import InsertResult, Leaf
from repro.core.search import rank_search
from repro.errors import InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.perf.events import Event

_PAIR_BYTES = 16


class BufferedLeaf(Leaf):
    """Immutable sorted main run + bounded sorted insert buffer."""

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[Any],
        model: LinearModel,
        max_error: int,
        buffer_capacity: int,
        perf: PerfContext,
    ):
        super().__init__(perf)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if not keys:
            raise ValueError("a buffered leaf needs at least one key")
        if buffer_capacity < 1:
            raise InvalidConfigurationError(
                f"buffer_capacity must be >= 1, got {buffer_capacity}"
            )
        self._keys = list(keys)
        self._values = list(values)
        self.model = model
        self.max_error = max_error
        self.buffer_capacity = buffer_capacity
        self._buf_keys: List[int] = []
        self._buf_values: List[Any] = []
        #: First key at build time: a leaf emptied by deletes still
        #: reports it (the composer traces it when dropping the leaf).
        self._built_first = self._keys[0]

    @property
    def first_key(self) -> int:
        if not self._keys:
            return self._buf_keys[0] if self._buf_keys else self._built_first
        if self._buf_keys and self._buf_keys[0] < self._keys[0]:
            return self._buf_keys[0]
        return self._keys[0]

    @property
    def n(self) -> int:
        return len(self._keys) + len(self._buf_keys)

    def buffer_fill(self) -> int:
        return len(self._buf_keys)

    def _main_rank(self, key: int) -> int:
        if not self._keys:
            return -1  # deletes emptied the main run; the buffer remains
        self.perf.charge(Event.MODEL_EVAL)
        guess = self.model.predict_clamped(key, len(self._keys))
        return rank_search(
            self._keys, 0, len(self._keys) - 1, key, guess, self.perf
        )

    def _buffer_rank(self, key: int) -> int:
        """Rightmost buffer index with key <= ``key``; -1 if none."""
        if not self._buf_keys:
            return -1
        self.perf.charge(Event.DRAM_HOP)  # the buffer is a separate node
        mid_guess = len(self._buf_keys) // 2
        return rank_search(
            self._buf_keys, 0, len(self._buf_keys) - 1, key, mid_guess, self.perf
        )

    def get(self, key: int) -> Optional[Any]:
        self.perf.charge(Event.DRAM_HOP)
        idx = self._main_rank(key)
        if idx >= 0 and self._keys[idx] == key:
            return self._values[idx]
        bidx = self._buffer_rank(key)
        if bidx >= 0 and self._buf_keys[bidx] == key:
            return self._buf_values[bidx]
        return None

    def upsert(self, key: int, value: Any) -> Tuple[InsertResult, Optional[Any]]:
        self.perf.charge(Event.DRAM_HOP)
        idx = self._main_rank(key)
        if idx >= 0 and self._keys[idx] == key:
            old = self._values[idx]
            self._values[idx] = value
            return InsertResult.UPDATED, old
        bidx = self._buffer_rank(key)
        if bidx >= 0 and self._buf_keys[bidx] == key:
            old = self._buf_values[bidx]
            self._buf_values[bidx] = value
            return InsertResult.UPDATED, old
        if len(self._buf_keys) >= self.buffer_capacity:
            return InsertResult.FULL, None
        # Insert into the buffer, keeping it sorted: everything to the
        # right of the insertion point moves one slot.
        pos = bidx + 1
        moves = len(self._buf_keys) - pos
        self.perf.charge(Event.KEY_MOVE, moves)
        self._buf_keys.insert(pos, key)
        self._buf_values.insert(pos, value)
        return InsertResult.INSERTED, None

    def scan_from(self, lo: int, limit: int) -> List[Tuple[int, Any]]:
        """Bounded two-way merge of the main run and the insert buffer.

        Both sides are bisected to their first key >= ``lo`` and merged
        only until ``limit`` pairs are out — the ``items()``-based
        default would materialise and merge the whole leaf first.
        Charges nothing, like the default it replaces.
        """
        out: List[Tuple[int, Any]] = []
        i = bisect_left(self._keys, lo)
        j = bisect_left(self._buf_keys, lo)
        nk, nb = len(self._keys), len(self._buf_keys)
        while len(out) < limit and i < nk and j < nb:
            if self._keys[i] <= self._buf_keys[j]:
                out.append((self._keys[i], self._values[i]))
                i += 1
            else:
                out.append((self._buf_keys[j], self._buf_values[j]))
                j += 1
        if len(out) < limit:
            if i < nk:
                take = limit - len(out)
                out.extend(zip(self._keys[i : i + take],
                               self._values[i : i + take]))
            elif j < nb:
                take = limit - len(out)
                out.extend(zip(self._buf_keys[j : j + take],
                               self._buf_values[j : j + take]))
        return out

    def items(self) -> List[Tuple[int, Any]]:
        # Two-way merge of main run and buffer.
        out: List[Tuple[int, Any]] = []
        i = j = 0
        nk, nb = len(self._keys), len(self._buf_keys)
        while i < nk and j < nb:
            if self._keys[i] <= self._buf_keys[j]:
                out.append((self._keys[i], self._values[i]))
                i += 1
            else:
                out.append((self._buf_keys[j], self._buf_values[j]))
                j += 1
        while i < nk:
            out.append((self._keys[i], self._values[i]))
            i += 1
        while j < nb:
            out.append((self._buf_keys[j], self._buf_values[j]))
            j += 1
        return out

    @property
    def capacity_slots(self) -> int:
        return len(self._keys) + self.buffer_capacity

    def delete(self, key: int) -> bool:
        """Remove ``key`` from the buffer or (with shifting) the main run."""
        self.perf.charge(Event.DRAM_HOP)
        bidx = self._buffer_rank(key)
        if bidx >= 0 and self._buf_keys[bidx] == key:
            self.perf.charge(Event.KEY_MOVE, len(self._buf_keys) - bidx - 1)
            del self._buf_keys[bidx]
            del self._buf_values[bidx]
            return True
        idx = self._main_rank(key)
        if idx >= 0 and self._keys[idx] == key:
            self.perf.charge(Event.KEY_MOVE, len(self._keys) - idx - 1)
            del self._keys[idx]
            del self._values[idx]
            return True
        return False

    def size_bytes(self) -> int:
        return (len(self._keys) + self.buffer_capacity) * _PAIR_BYTES + 24
