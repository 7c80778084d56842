"""``GappedLeaf`` on a ``List[Optional[int]]`` slot array.

The original storage of ALEX's gapped leaf: slots scanned with Python
while-loops, one ``KEY_MOVE`` charged per shifted slot.  Only the
slot-level helpers differ from the production leaf; rank search, the
insert/shift decision, the move EMA and every charge formula are
inherited, so the two leaves must agree charge for charge.
"""

from typing import Any, List, Optional, Tuple

from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.base import Leaf
from repro.core.insertion.gapped import GappedLeaf
from repro.perf.events import Event


class ListGappedLeaf(GappedLeaf):
    """The list-backed slot array, for equivalence tests."""

    def _init_slots(self, segment: GappedSegment, values: List[Any]) -> None:
        self._slot_keys: List[Optional[int]] = list(segment.slot_keys)
        self._slot_values = [None] * self._slots
        vi = 0
        for i, k in enumerate(self._slot_keys):
            if k is not None:
                self._slot_values[i] = values[vi]
                vi += 1

    def _key_at(self, i: int) -> int:
        return self._slot_keys[i]

    def slot_layout(self) -> List[Optional[int]]:
        return list(self._slot_keys)

    def _find_le(self, i: int, occupied: bool) -> int:
        j = start = min(i, self._slots - 1)
        while j >= 0 and (self._slot_keys[j] is not None) is not occupied:
            j -= 1
        self._charge_scan(start - j)
        return j

    def _find_ge(self, i: int, occupied: bool) -> int:
        n = self._slots
        j = start = max(i, 0)
        while j < n and (self._slot_keys[j] is not None) is not occupied:
            j += 1
        self._charge_scan(j - start)
        return j if j < n else -1

    def _shift(self, lo: int, hi: int, left: bool) -> None:
        keys, values, charge = self._slot_keys, self._slot_values, self.perf.charge
        if left:
            for i in range(lo, hi):
                keys[i] = keys[i + 1]
                values[i] = values[i + 1]
                charge(Event.KEY_MOVE)
        else:
            for i in range(hi, lo, -1):
                keys[i] = keys[i - 1]
                values[i] = values[i - 1]
                charge(Event.KEY_MOVE)

    def _place(self, slot: int, key: int, value: Any) -> None:
        self._slot_keys[slot] = key
        self._slot_values[slot] = value
        self._occupied += 1
        if key < self._first:
            self._first = key

    def _clear(self, slot: int) -> None:
        self._slot_keys[slot] = None
        self._slot_values[slot] = None

    def items(self) -> List[Tuple[int, Any]]:
        return [
            (k, self._slot_values[i])
            for i, k in enumerate(self._slot_keys)
            if k is not None
        ]

    # The numpy batch paths have no list counterpart: the oracle answers
    # them with the base ``Leaf``'s per-key defaults.
    get_many = Leaf.get_many
    insert_batch = Leaf.insert_batch
    scan_from = Leaf.scan_from
