"""``GappedLeaf`` on a ``List[Optional[int]]`` slot array, searched probe
by probe.

The original storage of ALEX's gapped leaf: slots scanned with Python
while-loops, one ``DRAM_SEQ`` charge per scan and one ``KEY_MOVE`` per
shifted slot.  Rank search is the original chain of per-probe helpers
(``_rank_slot`` → ``_gallop_right``/``_gallop_left`` →
``_binary_between``), each probe a ``_find_le``/``_find_ge`` call that
charges as it goes and each key read its own ``COMPARE``.  The
production leaf replaces that chain with one loop over a byte occupancy
map that bills its counts once per event kind; the insert/shift
decision, the move EMA and every other charge formula are inherited, so
the two leaves must agree charge for charge.
"""

from typing import Any, List, Optional, Tuple

from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.base import Leaf
from repro.core.insertion.gapped import GappedLeaf
from repro.perf.events import Event


class ListGappedLeaf(GappedLeaf):
    """The list-backed slot array and per-probe rank search, for
    equivalence tests."""

    def _init_slots(self, segment: GappedSegment, values: List[Any]) -> None:
        self._slot_keys: List[Optional[int]] = list(segment.slot_keys)
        self._values = [None] * self._slots
        vi = 0
        for i, k in enumerate(self._slot_keys):
            if k is not None:
                self._values[i] = values[vi]
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

    # -- per-probe rank search ---------------------------------------------

    def _rank_slot(self, key: int) -> int:
        """Rightmost *occupied* slot whose key is <= ``key``; -1 if none."""
        charge = self.perf.charge
        slots = self._slots
        charge(Event.MODEL_EVAL)
        p = self.model.predict_clamped(key, slots)
        j = self._find_le(p, True)
        if j == -1:
            j = self._find_ge(p + 1, True)
            if j == -1:
                return -1  # empty leaf
            charge(Event.COMPARE)
            if self._key_at(j) > key:
                return -1
        else:
            charge(Event.COMPARE)
        if self._key_at(j) <= key:
            return self._gallop_right(j, key)
        return self._gallop_left(j, key)

    def _gallop_right(self, j: int, key: int) -> int:
        """``slot_keys[j] <= key``: find the rightmost occupied <= key."""
        charge = self.perf.charge
        slots = self._slots
        step = 1
        while True:
            q = j + step
            if q >= slots:
                q = slots - 1
            c = self._find_le(q, True)
            if c > j:
                charge(Event.COMPARE)
                if self._key_at(c) <= key:
                    j = c
                    if q == slots - 1:
                        return j
                    step *= 2
                    continue
                return self._binary_between(j, c, key)
            if q == slots - 1:
                return j  # no occupied slot right of j
            step *= 2

    def _gallop_left(self, b: int, key: int) -> int:
        """``slot_keys[b] > key``: find the rightmost occupied <= key."""
        charge = self.perf.charge
        step = 1
        while True:
            q = b - step
            if q < 0:
                q = 0
            c = self._find_le(q, True)
            if c == -1:
                c = self._find_ge(q + 1, True)
                if c == b:
                    return -1  # nothing occupied left of b
                charge(Event.COMPARE)
                if self._key_at(c) > key:
                    return -1
                return self._binary_between(c, b, key)
            charge(Event.COMPARE)
            if self._key_at(c) <= key:
                return self._binary_between(c, b, key)
            b = c
            if q == 0:
                return -1
            step *= 2

    def _binary_between(self, lo: int, hi: int, key: int) -> int:
        """Rightmost occupied <= key, given occupied bounds
        ``slot_keys[lo] <= key < slot_keys[hi]``."""
        charge = self.perf.charge
        while True:
            mid = (lo + hi) // 2
            c = self._find_le(mid, True)
            if c <= lo:
                c = self._find_ge(mid + 1, True)
                if c >= hi:
                    return lo
            charge(Event.COMPARE)
            if self._key_at(c) <= key:
                lo = c
            else:
                hi = c

    # -- slot mutators -----------------------------------------------------

    def _shift(self, lo: int, hi: int, left: bool) -> None:
        keys, values, charge = self._slot_keys, self._values, self.perf.charge
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
        self._values[slot] = value
        self._occupied += 1
        if key < self._first:
            self._first = key

    def _clear(self, slot: int) -> None:
        self._slot_keys[slot] = None
        self._values[slot] = None

    def items(self) -> List[Tuple[int, Any]]:
        return [
            (k, self._values[i])
            for i, k in enumerate(self._slot_keys)
            if k is not None
        ]

    # The numpy batch paths have no list counterpart: the oracle answers
    # them with the base ``Leaf``'s per-key defaults.
    get_many = Leaf.get_many
    insert_batch = Leaf.insert_batch
    scan_from = Leaf.scan_from
    scan_many = Leaf.scan_many
    live_arrays = Leaf.live_arrays
