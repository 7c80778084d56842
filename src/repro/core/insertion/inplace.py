"""Inplace insertion: reserved space at both ends of the sorted run.

FITing-tree's inplace strategy (§II-B1): the leaf keeps its keys densely
sorted with ``reserve`` empty slots split between the two ends.  An insert
shifts every key between the insertion point and the nearer end by one
slot — the key-movement cost that makes this strategy the slowest in
Fig 18(a), and the reason a larger reserve makes it *worse* (more keys fit
in the node, so the average shift distance grows).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.approximation.base import LinearModel
from repro.core.insertion.base import InsertResult, Leaf
from repro.core.search import rank_search
from repro.perf.context import PerfContext
from repro.perf.events import Event

_PAIR_BYTES = 16  # 8-byte key + 8-byte value pointer


class InplaceLeaf(Leaf):
    """Dense sorted array with end reserves; model-guided search."""

    def __init__(
        self,
        keys: Sequence[int],
        values: Sequence[Any],
        model: LinearModel,
        max_error: int,
        reserve: int,
        perf: PerfContext,
    ):
        super().__init__(perf)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if not keys:
            raise ValueError("an inplace leaf needs at least one key")
        left_reserve = reserve // 2
        capacity = len(keys) + reserve
        self._keys: List[Optional[int]] = (
            [None] * left_reserve
            + list(keys)
            + [None] * (reserve - left_reserve)
        )
        self._values: List[Any] = (
            [None] * left_reserve
            + list(values)
            + [None] * (reserve - left_reserve)
        )
        self._left = left_reserve
        self._right = left_reserve + len(keys)
        self._capacity = capacity
        self.model = model
        self.max_error = max_error
        # Every insert can shift positions by one relative to the stale
        # model, so the search window widens as the leaf dirties.
        self._dirty = 0

    # -- Leaf interface -------------------------------------------------

    @property
    def first_key(self) -> int:
        return self._keys[self._left]  # type: ignore[return-value]

    @property
    def n(self) -> int:
        return self._right - self._left

    def _predict_index(self, key: int) -> int:
        self.perf.charge(Event.MODEL_EVAL)
        local = self.model.predict_clamped(key, max(1, self.n))
        return self._left + local

    def _rank(self, key: int) -> int:
        """Index of the rightmost live slot with key <= ``key``.

        Returns ``self._left - 1`` when every key is greater.
        """
        guess = self._predict_index(key)
        return rank_search(
            self._keys, self._left, self._right - 1, key, guess, self.perf
        )

    def get(self, key: int) -> Optional[Any]:
        self.perf.charge(Event.DRAM_HOP)
        if self.n == 0:
            return None
        idx = self._rank(key)
        if idx >= self._left and self._keys[idx] == key:
            return self._values[idx]
        return None

    def upsert(self, key: int, value: Any) -> Tuple[InsertResult, Optional[Any]]:
        self.perf.charge(Event.DRAM_HOP)
        idx = self._rank(key)
        if idx >= self._left and self._keys[idx] == key:
            old = self._values[idx]
            self._values[idx] = value
            return InsertResult.UPDATED, old
        target = idx + 1  # the slot the new key must occupy

        charge = self.perf.charge
        left_space = self._left > 0
        right_space = self._right < self._capacity
        if not left_space and not right_space:
            return InsertResult.FULL, None

        shift_left = target - self._left  # keys to move if shifting left
        shift_right = self._right - target  # keys to move if shifting right
        use_left = left_space and (not right_space or shift_left <= shift_right)
        if use_left:
            for i in range(self._left, target):
                self._keys[i - 1] = self._keys[i]
                self._values[i - 1] = self._values[i]
                charge(Event.KEY_MOVE)
            self._left -= 1
            target -= 1
        else:
            for i in range(self._right - 1, target - 1, -1):
                self._keys[i + 1] = self._keys[i]
                self._values[i + 1] = self._values[i]
                charge(Event.KEY_MOVE)
            self._right += 1
        self._keys[target] = key
        self._values[target] = value
        self._dirty += 1
        return InsertResult.INSERTED, None

    @property
    def capacity_slots(self) -> int:
        return self._capacity

    def delete(self, key: int) -> bool:
        """Remove ``key``; shifts the shorter side inward."""
        self.perf.charge(Event.DRAM_HOP)
        idx = self._rank(key)
        if idx < self._left or self._keys[idx] != key:
            return False
        left_span = idx - self._left
        right_span = self._right - idx - 1
        charge = self.perf.charge
        if left_span <= right_span:
            for i in range(idx, self._left, -1):
                self._keys[i] = self._keys[i - 1]
                self._values[i] = self._values[i - 1]
                charge(Event.KEY_MOVE)
            self._keys[self._left] = None
            self._values[self._left] = None
            self._left += 1
        else:
            for i in range(idx, self._right - 1):
                self._keys[i] = self._keys[i + 1]
                self._values[i] = self._values[i + 1]
                charge(Event.KEY_MOVE)
            self._right -= 1
            self._keys[self._right] = None
            self._values[self._right] = None
        self._dirty += 1
        return True

    def items(self) -> List[Tuple[int, Any]]:
        return [
            (self._keys[i], self._values[i])  # type: ignore[misc]
            for i in range(self._left, self._right)
        ]

    def size_bytes(self) -> int:
        return self._capacity * _PAIR_BYTES + 24  # slots + model
