"""Fine-grained level bins — FINEdex's insertion strategy.

FINEdex (Li et al., VLDB 2021; the paper's reference [7]) attaches a
small *level bin* to each insertion position of the trained array instead
of one buffer per node: an insert lands in the bin at its predecessor's
position, so (a) a lookup checks exactly one bin rather than searching a
node-wide buffer, and (b) a full bin retrains only the data around one
model — fine-grained, which is what makes the scheme concurrency-friendly.

This module adds that design to the insertion dimension, alongside
inplace, buffer and gapped; :class:`repro.learned.finedex.FINEdexIndex`
composes it into the full index.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.approximation.base import LinearModel
from repro.core.insertion.base import InsertResult, Leaf
from repro.core.search import rank_search
from repro.errors import InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.perf.events import Event

_PAIR_BYTES = 16


class FineBinLeaf(Leaf):
    """Immutable sorted run + per-position level bins."""

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[Any],
        model: LinearModel,
        max_error: int,
        bin_capacity: int,
        max_bin_fraction: float,
        perf: PerfContext,
    ):
        super().__init__(perf)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if not keys:
            raise ValueError("a fine-bin leaf needs at least one key")
        if bin_capacity < 1:
            raise InvalidConfigurationError("bin_capacity must be >= 1")
        if not 0.0 < max_bin_fraction <= 4.0:
            raise InvalidConfigurationError(
                "max_bin_fraction must be in (0, 4]"
            )
        self._keys = list(keys)
        self._values = list(values)
        self.model = model
        self.max_error = max_error
        self.bin_capacity = bin_capacity
        self.max_bin_fraction = max_bin_fraction
        # bin i holds keys between main[i-1] and main[i] (i == insertion
        # position; i ranges over 0..len(main)).
        self._bins: Dict[int, Tuple[List[int], List[Any]]] = {}
        self._bin_keys_total = 0

    # -- helpers ------------------------------------------------------------

    @property
    def first_key(self) -> int:
        first_bin = self._bins.get(0)
        if first_bin and (not self._keys or first_bin[0][0] < self._keys[0]):
            return first_bin[0][0]
        if not self._keys:
            # Main emptied; fall back to the smallest binned key.
            return min(entry[0][0] for entry in self._bins.values())
        return self._keys[0]

    @property
    def n(self) -> int:
        return len(self._keys) + self._bin_keys_total

    @property
    def capacity_slots(self) -> int:
        return len(self._keys) + len(self._bins) * self.bin_capacity

    def _main_rank(self, key: int) -> int:
        if not self._keys:
            return -1  # main run emptied by deletes; bins may still hold keys
        self.perf.charge(Event.MODEL_EVAL)
        guess = self.model.predict_clamped(key, len(self._keys))
        return rank_search(
            self._keys, 0, len(self._keys) - 1, key, guess, self.perf
        )

    def _bin_rank(self, bin_keys: List[int], key: int) -> int:
        """Rightmost bin index with key <= ``key``; -1 if none."""
        self.perf.charge(Event.DRAM_HOP)  # the bin is its own allocation
        if not bin_keys:
            return -1
        return rank_search(
            bin_keys, 0, len(bin_keys) - 1, key, len(bin_keys) // 2, self.perf
        )

    # -- Leaf interface -------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        self.perf.charge(Event.DRAM_HOP)
        rank = self._main_rank(key)
        if rank >= 0 and self._keys[rank] == key:
            return self._values[rank]
        entry = self._bins.get(rank + 1)
        if entry is None:
            return None
        bin_keys, bin_values = entry
        idx = self._bin_rank(bin_keys, key)
        if idx >= 0 and bin_keys[idx] == key:
            return bin_values[idx]
        return None

    def upsert(self, key: int, value: Any) -> Tuple[InsertResult, Optional[Any]]:
        """One main-run search and at most one bin search resolve both
        the old value and the write target."""
        self.perf.charge(Event.DRAM_HOP)
        rank = self._main_rank(key)
        if rank >= 0 and self._keys[rank] == key:
            old = self._values[rank]
            self._values[rank] = value
            return InsertResult.UPDATED, old
        position = rank + 1
        entry = self._bins.get(position)
        if entry is None:
            if self._bin_keys_total >= max(
                1, len(self._keys)
            ) * self.max_bin_fraction:
                return InsertResult.FULL, None
            self.perf.charge(Event.ALLOC)
            entry = ([], [])
            self._bins[position] = entry
        bin_keys, bin_values = entry
        idx = self._bin_rank(bin_keys, key)
        if idx >= 0 and bin_keys[idx] == key:
            old = bin_values[idx]
            bin_values[idx] = value
            return InsertResult.UPDATED, old
        if len(bin_keys) >= self.bin_capacity:
            return InsertResult.FULL, None
        insert_at = idx + 1
        self.perf.charge(Event.KEY_MOVE, len(bin_keys) - insert_at)
        bin_keys.insert(insert_at, key)
        bin_values.insert(insert_at, value)
        self._bin_keys_total += 1
        return InsertResult.INSERTED, None

    def delete(self, key: int) -> bool:
        self.perf.charge(Event.DRAM_HOP)
        rank = self._main_rank(key)
        if rank >= 0 and self._keys[rank] == key:
            self.perf.charge(Event.KEY_MOVE, len(self._keys) - rank - 1)
            del self._keys[rank]
            del self._values[rank]
            # Bin positions after the removed slot shift left by one; the
            # bins flanking the removed key now share a position and merge.
            shifted: Dict[int, Tuple[List[int], List[Any]]] = {}
            for pos in sorted(self._bins):
                entry = self._bins[pos]
                new_pos = pos if pos <= rank else pos - 1
                existing = shifted.get(new_pos)
                if existing is None:
                    shifted[new_pos] = entry
                else:
                    merged = sorted(
                        zip(existing[0] + entry[0], existing[1] + entry[1])
                    )
                    shifted[new_pos] = (
                        [k for k, _ in merged],
                        [v for _, v in merged],
                    )
            self._bins = shifted
            return True
        entry = self._bins.get(rank + 1)
        if entry is None:
            return False
        bin_keys, bin_values = entry
        idx = self._bin_rank(bin_keys, key)
        if idx < 0 or bin_keys[idx] != key:
            return False
        self.perf.charge(Event.KEY_MOVE, len(bin_keys) - idx - 1)
        del bin_keys[idx]
        del bin_values[idx]
        self._bin_keys_total -= 1
        if not bin_keys:
            del self._bins[rank + 1]
        return True

    def scan_from(self, lo: int, limit: int) -> List[Tuple[int, Any]]:
        """Bisect into the main run, then interleave bins positionally.

        Starts at the insertion position of ``lo`` (so only that
        position's bin needs key filtering) instead of walking every
        earlier position the way :meth:`items` does.  Charges nothing.
        """
        out: List[Tuple[int, Any]] = []
        start = bisect_left(self._keys, lo)
        for position in range(start, len(self._keys) + 1):
            entry = self._bins.get(position)
            if entry is not None:
                if position == start:
                    pairs = [
                        (k, v)
                        for k, v in zip(entry[0], entry[1])
                        if k >= lo
                    ]
                else:
                    pairs = list(zip(entry[0], entry[1]))
                out.extend(pairs)
            if position < len(self._keys):
                out.append((self._keys[position], self._values[position]))
            if len(out) >= limit:
                return out[:limit]
        return out

    def items(self) -> List[Tuple[int, Any]]:
        out: List[Tuple[int, Any]] = []
        for position in range(len(self._keys) + 1):
            entry = self._bins.get(position)
            if entry is not None:
                out.extend(zip(entry[0], entry[1]))
            if position < len(self._keys):
                out.append((self._keys[position], self._values[position]))
        return out

    def size_bytes(self) -> int:
        return (
            len(self._keys) * _PAIR_BYTES
            + len(self._bins) * (self.bin_capacity * _PAIR_BYTES + 16)
            + 24
        )
