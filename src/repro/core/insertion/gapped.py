"""Gapped-array insertion (ALEX's strategy).

Keys live in a slot array larger than the key count; the leaf's linear
model predicts a slot directly, and inserts land in a nearby gap with
little or no key movement — "this strategy reserves some gaps near the
target insertion position.  There is little or no key movement when
inserting a new key" (§IV-D).  When occupancy crosses the density limit
the leaf reports FULL and the retraining policy expands or splits it.

The slot array is a numpy ``uint64`` key array, a numpy object array of
values beside it (one pointer per slot, as a list would hold), and a
byte occupancy map, one ``bytearray`` holding 1 for an occupied slot and
0 for a gap.  Every gap/occupied scan is one ``occ[q]`` test or one
C-level ``rfind``/``find`` over the map, so it costs O(distance to the
answer) either way.  Rank search (``_rank_slot``) runs in one method and
bills one charge per event kind.  Shifts are slice copies.  The batch
paths and ``items`` read the map through a zero-copy ``np.frombuffer``
view and share one cached occupied-slot view, ``(positions, keys)``,
which every slot mutator drops and ``insert_batch`` and construction
replace with the layout they just placed.  Keys and values move only by
gathering and scattering at those positions: building a leaf, merging a
batch into it, answering ``get_many``/``scan_from``/``items`` and handing
a retrain its live arrays (``live_arrays``) run no per-slot Python loop.

The charges are those of the original ``List[Optional[int]]`` slot
array searched probe by probe — same ``DRAM_SEQ`` stride counts, same
``COMPARE`` counts, same ``KEY_MOVE`` totals, same ``_move_ema`` float
arithmetic — so retrain triggers fire at exactly the same inserts.  That
list-backed leaf and its per-probe search are kept as a test oracle
(``tests/oracles/gapped_list.py``), held equal charge for charge by
``tests/test_batch_insert.py::TestGappedLeafEquivalence`` and
``tests/test_gapped_rank_oracle.py``.

Every key reaches a leaf already checked at its index's write entry
(``check_uint64``), so the ``uint64`` key array stores it exactly.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import LinearModel
from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.base import InsertResult, Leaf, object_array
from repro.core.interfaces import scan_start
from repro.errors import InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.perf.events import Event

_PAIR_BYTES = 16
#: Slots covered per charged sequential access while scanning for gaps /
#: occupied slots (a 64-bit occupancy-bitmap word covers 64 slots; we are
#: conservative).
_SCAN_STRIDE = 16

#: Below this batch size ``get_many``'s occupied-array extraction costs
#: more than the per-key loop it replaces.
_MIN_BATCH = 8


def _occupancy_map(slots: int, pos: Any) -> bytearray:
    """A ``slots``-byte occupancy map holding 1 at each slot of ``pos``."""
    occ = bytearray(slots)
    _vec.np.frombuffer(occ, dtype=bool)[pos] = True
    return occ


class GappedLeaf(Leaf):
    """Model-addressed gapped slot array with density-triggered retrain."""

    #: Retrain when the exponential moving average of key moves per
    #: insert exceeds this (ALEX's cost-model check: observed insert cost
    #: deviating from the model's expectation triggers node maintenance,
    #: even below the density limit).
    MOVE_EMA_LIMIT = 48.0
    _EMA_ALPHA = 0.05

    def __init__(
        self,
        segment: GappedSegment,
        values: Sequence[Any],
        perf: PerfContext,
        upper_density: float = 0.8,
    ):
        super().__init__(perf)
        if not 0.0 < upper_density <= 1.0:
            raise InvalidConfigurationError(
                f"upper_density must be in (0, 1], got {upper_density}"
            )
        if len(values) != segment.n:
            raise ValueError("values must match the segment's key count")
        if segment.slots and segment.n / segment.slots > upper_density:
            raise InvalidConfigurationError(
                f"segment occupancy {segment.n / segment.slots:.3f} already "
                f"exceeds upper_density={upper_density}; the leaf would be "
                "born over-density and every insert would bounce straight "
                "to retrain"
            )
        self._move_ema = 0.0
        self.model: LinearModel = segment.model
        self._slots = segment.slots
        self._occupied = segment.n
        self._first = segment.first_key
        self.upper_density = upper_density
        self._init_slots(segment, values)

    def _init_slots(
        self, segment: GappedSegment, values: Sequence[Any]
    ) -> None:
        """Scatter the keys and values to the slots the segment placed
        them in; that layout is the first occupied-slot view."""
        np = _vec.np
        pos = segment.slot_pos
        compact = segment.keys_u64
        keys_np = np.zeros(self._slots, dtype=np.uint64)
        keys_np[pos] = compact
        slot_values = np.empty(self._slots, dtype=object)
        slot_values[pos] = object_array(values)
        self._np_keys = keys_np
        self._values = slot_values
        self._occ = _occupancy_map(self._slots, pos)
        self._view = (pos, compact)

    # -- storage accessors ------------------------------------------------

    def _key_at(self, i: int) -> int:
        return self._np_keys.item(i)

    def _occupied_slots(self) -> Tuple[Any, Any]:
        """``(pos, keys)``: the occupied slots and their keys, ascending.

        Built on first use and kept until a slot mutator drops it.  Its
        arrays are never written in place, so a leaf built from another
        leaf's view may share them.
        """
        if self._view is None:
            np = _vec.np
            pos = np.flatnonzero(np.frombuffer(self._occ, dtype=bool))
            self._view = (pos, self._np_keys[pos])
        return self._view

    def slot_layout(self) -> List[Optional[int]]:
        """The slot array as ``key-or-None`` per slot."""
        return [
            k if o else None
            for k, o in zip(self._np_keys.tolist(), self._occ)
        ]

    # -- slot scanning helpers (each charges per stride scanned) ----------

    def _charge_scan(self, distance: int) -> None:
        self.perf.charge(Event.DRAM_SEQ, 1 + distance // _SCAN_STRIDE)

    def _find_le(self, i: int, occupied: bool) -> int:
        """Nearest slot index <= i that is occupied (or a gap), or -1."""
        j = min(i, self._slots - 1)
        if j < 0:
            self._charge_scan(0)
            return -1
        c = self._occ.rfind(occupied, 0, j + 1)
        self._charge_scan(j - c)
        return c

    def _find_ge(self, i: int, occupied: bool) -> int:
        """Nearest slot index >= i that is occupied (or a gap), or -1."""
        n = self._slots
        j = max(i, 0)
        if j >= n:
            self._charge_scan(0)
            return -1
        c = self._occ.find(occupied, j)
        self._charge_scan((n if c == -1 else c) - j)
        return c

    # -- gap-aware rank search ---------------------------------------------

    def _rank_slot(self, key: int) -> int:
        """Rightmost *occupied* slot whose key is <= ``key``; -1 if none.

        Probes the predicted slot, gallops from it (right while keys are
        <= ``key``, else left) until an occupied bracket ``lo < hi`` with
        ``key(lo) <= key < key(hi)`` holds the answer, then halves the
        bracket.  A probe at slot ``q`` reads the nearest occupied slot
        ``c`` at or left of ``q`` and costs ``1 + (q - c) //
        _SCAN_STRIDE`` sequential reads.  Where ``c`` cannot narrow the
        bracket, the first probe, the left gallop and the halving read
        the nearest occupied slot right of ``q`` instead, billed the same
        way; the right gallop doubles its step.  Each key read is one
        comparison.  The counts stay in locals and leave as one charge
        per event kind: the totals of the per-probe chain in
        ``tests/oracles/gapped_list.py``.
        """
        occ = self._occ
        key_at = self._np_keys.item
        last = self._slots - 1
        self.perf.charge(Event.MODEL_EVAL)
        p = self.model.predict_clamped(key, last + 1)
        j = p if occ[p] else occ.rfind(1, 0, p)
        seq = 1 + (p - j) // _SCAN_STRIDE
        cmp = 0
        try:
            if j == -1:
                # Nothing at or left of p: the first occupied slot decides.
                j = occ.find(1, p + 1)
                if j == -1:
                    seq += 1 + (last - p) // _SCAN_STRIDE
                    return -1  # empty leaf
                seq += 1 + (j - p - 1) // _SCAN_STRIDE
                cmp = 1
                if key_at(j) > key:
                    return -1
                right = True
            else:
                cmp = 1
                right = key_at(j) <= key
            step = 1
            if right:
                lo = j
                while True:
                    q = lo + step
                    if q > last:
                        q = last
                    c = q if occ[q] else occ.rfind(1, lo, q)
                    seq += 1 + (q - c) // _SCAN_STRIDE
                    if c > lo:
                        cmp += 1
                        if key_at(c) > key:
                            hi = c
                            break
                        lo = c
                    if q == last:
                        return lo  # no occupied slot right of lo
                    step *= 2
            else:
                hi = j
                while True:
                    q = hi - step
                    if q < 0:
                        q = 0
                    c = q if occ[q] else occ.rfind(1, 0, q)
                    seq += 1 + (q - c) // _SCAN_STRIDE
                    if c == -1:
                        c = occ.find(1, q + 1)
                        seq += 1 + (c - q - 1) // _SCAN_STRIDE
                        if c == hi:
                            return -1  # nothing occupied left of hi
                        cmp += 1
                        if key_at(c) > key:
                            return -1
                        lo = c
                        break
                    cmp += 1
                    if key_at(c) <= key:
                        lo = c
                        break
                    hi = c
                    if q == 0:
                        return -1
                    step *= 2
            while True:
                mid = (lo + hi) // 2
                c = mid if occ[mid] else occ.rfind(1, lo, mid)
                seq += 1 + (mid - c) // _SCAN_STRIDE
                if c <= lo:
                    c = occ.find(1, mid + 1)
                    seq += 1 + (c - mid - 1) // _SCAN_STRIDE
                    if c >= hi:
                        return lo
                cmp += 1
                if key_at(c) <= key:
                    lo = c
                else:
                    hi = c
        finally:
            charge = self.perf.charge
            charge(Event.DRAM_SEQ, seq)
            if cmp:
                charge(Event.COMPARE, cmp)

    # -- Leaf interface -------------------------------------------------

    @property
    def first_key(self) -> int:
        return self._first

    @property
    def n(self) -> int:
        return self._occupied

    @property
    def slots(self) -> int:
        return self._slots

    def density(self) -> float:
        return self._occupied / self._slots

    def get(self, key: int) -> Optional[Any]:
        self.perf.charge(Event.DRAM_HOP)
        r = self._rank_slot(key)
        if r != -1 and self._key_at(r) == key:
            return self._values[r]
        return None

    def get_many(self, keys: Any) -> List[Optional[Any]]:
        """Batch get: one ``searchsorted`` over the occupied keys, one
        gather of the hits' values.

        ``keys`` is a sorted ``uint64`` array or a sequence of ints.  Like
        every batch fast path (see ``docs/performance.md``), results are
        exactly the per-key loop's; the event bill is a coarse aggregate
        (one hop + model eval per query, one comparison per halving of
        the slot array) rather than the scalar per-probe ledger.
        """
        n = len(keys)
        qs = _vec.as_u64(keys) if n >= _MIN_BATCH else None
        if qs is None:
            return super().get_many(keys)
        if self._occupied == 0:
            self.perf.charge(Event.DRAM_HOP, n)
            return [None] * n
        np = _vec.np
        pos, compact = self._occupied_slots()
        # The rightmost key <= each query (the first key for a query
        # below it, where the key test below fails).
        at = np.maximum(np.searchsorted(compact, qs, side="right") - 1, 0)
        self.perf.charge(Event.DRAM_HOP, n)
        self.perf.charge(Event.MODEL_EVAL, n)
        self.perf.charge(Event.COMPARE, n * max(1, self._slots.bit_length()))
        out = self._values[pos[at]]
        out[compact[at] != qs] = None
        return out.tolist()

    def insert_batch(self, keys: Any, values: Any) -> Optional[Tuple[int, Any]]:
        """Bulk upsert of a sorted run, re-spreading the whole slot array.

        The stored keys and the run's fresh keys (see
        ``Leaf.insert_batch``) are merged and re-placed through the
        leaf's model in one vectorized pass — the same ``cummax``
        placement bulk load uses — so the per-key gap hunt disappears.
        Returns ``None`` when the run should take the per-key path
        instead (tiny run, or the run would cross the density limit,
        where per-key FULL semantics must decide the retrain point).

        Like every batch fast path the event bill is a coarse aggregate;
        the re-spread also restores gap locality, so ``_move_ema`` decays
        as a run of free inserts would (see ``docs/performance.md`` on
        batch-vs-scalar cost parity).
        """
        if len(keys) < _MIN_BATCH:
            return None
        if self._move_ema > self.MOVE_EMA_LIMIT:
            return None  # per-key path reports FULL -> retrain
        np = _vec.np
        repeat = keys[1:] == keys[:-1]  # position p + 1 repeats p
        last = np.append(~repeat, True)
        ks = keys[last]
        vs = values[last]

        pos, existing = self._occupied_slots()
        m = int(existing.size)
        if m:
            loc = np.searchsorted(existing, ks)
            hit = (loc < m) & (existing[np.minimum(loc, m - 1)] == ks)
        else:
            loc = np.zeros(ks.size, dtype=np.int64)
            hit = np.zeros(ks.size, dtype=bool)
        n_fresh = int(ks.size - int(hit.sum()))
        if self._occupied + n_fresh > int(self.upper_density * self._slots):
            return None

        merged_vals = self._values[pos]
        # A key's first occurrence reads the stored value, a repeat its
        # predecessor's.
        olds = np.full(keys.size, None, dtype=object)
        heads = np.flatnonzero(np.append(True, ~repeat))
        olds[heads[hit]] = merged_vals[loc[hit]]
        again = np.flatnonzero(repeat) + 1
        olds[again] = values[again - 1]
        merged_vals[loc[hit]] = vs[hit]
        if n_fresh:
            fresh_sel = ~hit
            merged = np.concatenate([existing, ks[fresh_sel]])
            order = np.argsort(merged, kind="stable")
            merged = merged[order]
            merged_vals = np.concatenate([merged_vals, vs[fresh_sel]])[order]
        else:
            merged = existing

        pred = _vec.predict_clamped_many(self.model, merged, self._slots)
        if pred is None:
            return None
        idx = np.arange(merged.size, dtype=np.int64)
        slot = idx + np.maximum.accumulate(pred - idx)
        if int(slot[-1]) >= self._slots:
            # The model packs the tail past the end (typical when the run
            # clusters at the leaf's upper edge).  Rank search only needs
            # a strictly increasing layout, so compress the tail instead
            # of declining: cap slot_i at the highest position that still
            # leaves room for the i..k-1 suffix.  Both the capped bound
            # and the cummax placement rise by >= 1 per step, so their
            # minimum stays strictly increasing, and the density guard
            # above ensures merged.size < slots so slot[0] >= 0.
            slot = np.minimum(slot, self._slots - (merged.size - idx))

        keys_np = np.zeros(self._slots, dtype=np.uint64)
        keys_np[slot] = merged
        slot_values = np.empty(self._slots, dtype=object)
        slot_values[slot] = merged_vals
        self._np_keys, self._values = keys_np, slot_values
        self._occ = _occupancy_map(self._slots, slot)
        self._view = (slot, merged)
        self._occupied += n_fresh
        if merged.size:
            first = int(merged[0])
            if first < self._first:
                self._first = first

        b = int(ks.size)
        charge = self.perf.charge
        charge(Event.DRAM_HOP, b)
        charge(Event.MODEL_EVAL, b)
        charge(Event.COMPARE, b * max(1, self._slots.bit_length()))
        charge(Event.KEY_MOVE, m)  # the re-spread may move every stored key
        self._move_ema *= (1.0 - self._EMA_ALPHA) ** n_fresh
        return n_fresh, olds

    def upsert(self, key: int, value: Any) -> Tuple[InsertResult, Optional[Any]]:
        """One rank search serving both insert and update (see Leaf.upsert)."""
        self.perf.charge(Event.DRAM_HOP)
        r = self._rank_slot(key)
        if r != -1 and self._key_at(r) == key:
            values = self._values
            old = values[r]
            values[r] = value
            return InsertResult.UPDATED, old
        if self.density() >= self.upper_density:
            return InsertResult.FULL, None
        if self._move_ema > self.MOVE_EMA_LIMIT:
            # Locally saturated even though global density is fine:
            # retraining re-spreads the gaps.
            return InsertResult.FULL, None

        slots = self._slots
        nr = self._find_ge(r + 1, True)  # next occupied after rank
        if nr == -1:
            nr = slots
        if nr - r > 1:
            # A gap exists exactly where the key belongs: free insert.
            self.perf.charge(Event.MODEL_EVAL)
            p = self.model.predict_clamped(key, slots)
            slot = min(max(p, r + 1), nr - 1)
            self._place(slot, key, value)
            self._move_ema *= 1.0 - self._EMA_ALPHA
            return InsertResult.INSERTED, None

        # No gap at the insertion point: shift toward the nearest gap.
        gap_left = self._find_le(r, False) if r >= 0 else -1
        gap_right = self._find_ge(nr, False)
        use_left = gap_left != -1 and (
            gap_right == -1 or (r - gap_left) <= (gap_right - nr)
        )
        if use_left:
            # Shift occupied slots (gap_left, r] one slot left; insert at r.
            moves = r - gap_left
            self._shift(gap_left, r, left=True)
            self._place(r, key, value)
        else:
            if gap_right == -1:
                return InsertResult.FULL, None  # no gap anywhere (degenerate)
            # Shift occupied slots [r+1, gap_right) one slot right;
            # insert at r + 1.
            moves = gap_right - (r + 1)
            self._shift(r + 1, gap_right, left=False)
            self._place(r + 1, key, value)
        self._move_ema = (
            (1.0 - self._EMA_ALPHA) * self._move_ema + self._EMA_ALPHA * moves
        )
        return InsertResult.INSERTED, None

    def _shift(self, lo: int, hi: int, left: bool) -> None:
        """Move ``hi - lo`` slots one position toward ``lo`` (left) or
        ``hi`` (right); one ``KEY_MOVE`` per slot either way."""
        if left:
            self._np_keys[lo:hi] = self._np_keys[lo + 1 : hi + 1].copy()
            self._occ[lo:hi] = self._occ[lo + 1 : hi + 1]
            self._values[lo:hi] = self._values[lo + 1 : hi + 1].copy()
        else:
            self._np_keys[lo + 1 : hi + 1] = self._np_keys[lo:hi].copy()
            self._occ[lo + 1 : hi + 1] = self._occ[lo:hi]
            self._values[lo + 1 : hi + 1] = self._values[lo:hi].copy()
        self._view = None
        self.perf.charge(Event.KEY_MOVE, hi - lo)

    def _place(self, slot: int, key: int, value: Any) -> None:
        self._np_keys[slot] = key
        self._occ[slot] = 1
        self._values[slot] = value
        self._view = None
        self._occupied += 1
        if key < self._first:
            self._first = key

    def scan_from(self, lo: int, limit: int) -> List[Tuple[int, Any]]:
        """Range extraction from the occupied-slot view.

        ``searchsorted`` finds the first live key >= ``lo`` and the run
        comes out as one slice — no per-slot gap skipping.  The search
        value is an exact ``uint64``: numpy compares a Python int with a
        ``uint64`` array as float64, which is inexact above 2^53.
        Charges nothing, exactly like the ``items()``-based default it
        replaces.
        """
        start = scan_start(lo)
        if self._occupied == 0 or start is None:
            return []
        np = _vec.np
        pos, compact = self._occupied_slots()
        i = int(np.searchsorted(compact, np.uint64(start), side="left"))
        run = slice(i, i + limit)
        return list(
            zip(compact[run].tolist(), self._values[pos[run]].tolist())
        )

    def items(self) -> List[Tuple[int, Any]]:
        keys, values = self.live_arrays()
        return list(zip(keys.tolist(), values.tolist()))

    def live_arrays(self) -> Tuple[Any, Any]:
        """The live keys as a ``uint64`` array and their values as a new
        object array, ascending: one gather of the occupied slots.  The
        key array is the occupied-slot view's own, so it is read-only."""
        pos, compact = self._occupied_slots()
        return compact, self._values[pos]

    @property
    def capacity_slots(self) -> int:
        return self._slots

    def delete(self, key: int) -> bool:
        """Remove ``key``: the slot simply becomes a gap."""
        self.perf.charge(Event.DRAM_HOP)
        r = self._rank_slot(key)
        if r == -1 or self._key_at(r) != key:
            return False
        self._clear(r)
        self._occupied -= 1
        if key == self._first and self._occupied:
            nxt = self._find_ge(r + 1, True)
            self._first = self._key_at(nxt)
        return True

    def _clear(self, slot: int) -> None:
        self._occ[slot] = 0
        self._values[slot] = None
        self._view = None

    def size_bytes(self) -> int:
        # Slot array + occupancy bitmap + model.
        return self._slots * _PAIR_BYTES + self._slots // 8 + 24
