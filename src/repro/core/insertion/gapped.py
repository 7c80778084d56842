"""Gapped-array insertion (ALEX's strategy).

Keys live in a slot array larger than the key count; the leaf's linear
model predicts a slot directly, and inserts land in a nearby gap with
little or no key movement — "this strategy reserves some gaps near the
target insertion position.  There is little or no key movement when
inserting a new key" (§IV-D).  When occupancy crosses the density limit
the leaf reports FULL and the retraining policy expands or splits it.

Two storage backends share every algorithm above the slot level:

* scalar (``vectorized=False``) — a ``List[Optional[int]]`` slot array
  scanned with Python while-loops, the original implementation.
* vectorized (default) — a numpy ``uint64`` key array plus a boolean
  occupancy array; gap/occupied scans become ``argmax``/``argmin`` on
  bool slices (numpy short-circuits these) and shifts become slice
  copies.  The charge formulas are written to be **bit-identical** to the
  scalar loops — same ``DRAM_SEQ`` stride counts, same ``KEY_MOVE``
  totals, same ``_move_ema`` float arithmetic — so retrain triggers fire
  at exactly the same inserts (pinned by
  ``tests/test_batch_insert.py::TestGappedLeafEquivalence``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import LinearModel
from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.base import InsertResult, Leaf
from repro.errors import InvalidConfigurationError, InvalidKeysError
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

#: Exclusive upper bound of the vectorized backend's ``uint64`` keys.
_U64_LIMIT = 1 << 64


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
        values: List[Any],
        perf: PerfContext,
        upper_density: float = 0.8,
        vectorized: bool = True,
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

        self._slot_keys: Optional[List[Optional[int]]] = None
        self._np_keys = None
        self._np_occ = None
        if vectorized:
            self._init_vectorized(segment, values)
        if self._np_keys is None:
            # Scalar storage (requested, or inexact keys).
            self._slot_keys = list(segment.slot_keys)
            self._slot_values: List[Any] = [None] * self._slots
            vi = 0
            for i, k in enumerate(self._slot_keys):
                if k is not None:
                    self._slot_values[i] = values[vi]
                    vi += 1

    def _init_vectorized(self, segment: GappedSegment, values: List[Any]) -> None:
        """Build numpy key/occupancy arrays, touching only occupied slots.

        Reuses the slot positions the segment's vectorized placement
        already computed when available; otherwise derives them from the
        slot list with one ``flatnonzero`` instead of a per-slot loop.
        """
        np = _vec.np
        pos = getattr(segment, "slot_pos", None)
        compact = getattr(segment, "keys_u64", None)
        if pos is None or compact is None:
            compact = _vec.as_u64(
                [k for k in segment.slot_keys if k is not None]
            )
            if compact is None:
                return  # inexact keys: keep scalar storage
            occ = np.fromiter(
                (k is not None for k in segment.slot_keys),
                dtype=bool,
                count=self._slots,
            )
            pos = np.flatnonzero(occ)
        else:
            occ = np.zeros(self._slots, dtype=bool)
            occ[pos] = True
        keys_np = np.zeros(self._slots, dtype=np.uint64)
        keys_np[pos] = compact
        self._np_keys = keys_np
        self._np_occ = occ
        self._slot_values = [None] * self._slots
        for p, v in zip(pos.tolist(), values):
            self._slot_values[p] = v

    # -- storage accessors ------------------------------------------------

    def _key_at(self, i: int) -> int:
        if self._np_keys is not None:
            return int(self._np_keys[i])
        return self._slot_keys[i]  # type: ignore[return-value]

    def slot_layout(self) -> List[Optional[int]]:
        """The slot array as ``key-or-None`` per slot (both backends)."""
        if self._np_keys is not None:
            return [
                int(k) if o else None
                for k, o in zip(self._np_keys.tolist(), self._np_occ.tolist())
            ]
        return list(self._slot_keys)  # type: ignore[arg-type]

    # -- slot scanning helpers (each charges per stride scanned) ----------

    def _charge_scan(self, distance: int) -> None:
        self.perf.charge(Event.DRAM_SEQ, 1 + distance // _SCAN_STRIDE)

    def _occupied_le(self, i: int) -> int:
        """Nearest occupied slot index <= i, or -1."""
        j = min(i, self._slots - 1)
        if self._np_occ is not None:
            if j < 0:
                self._charge_scan(0)
                return -1
            seg = self._np_occ[j::-1]
            off = int(_vec.np.argmax(seg))
            if seg[off]:
                self._charge_scan(off)
                return j - off
            self._charge_scan(j + 1)
            return -1
        start = j
        while j >= 0 and self._slot_keys[j] is None:
            j -= 1
        self._charge_scan(start - j)
        return j

    def _occupied_ge(self, i: int) -> int:
        """Nearest occupied slot index >= i, or -1."""
        n = self._slots
        j = max(i, 0)
        if self._np_occ is not None:
            if j >= n:
                self._charge_scan(0)
                return -1
            seg = self._np_occ[j:]
            off = int(_vec.np.argmax(seg))
            if seg[off]:
                self._charge_scan(off)
                return j + off
            self._charge_scan(n - j)
            return -1
        start = j
        while j < n and self._slot_keys[j] is None:
            j += 1
        self._charge_scan(j - start)
        return j if j < n else -1

    def _gap_le(self, i: int) -> int:
        j = min(i, self._slots - 1)
        if self._np_occ is not None:
            if j < 0:
                self._charge_scan(0)
                return -1
            seg = self._np_occ[j::-1]
            off = int(_vec.np.argmin(seg))
            if not seg[off]:
                self._charge_scan(off)
                return j - off
            self._charge_scan(j + 1)
            return -1
        start = j
        while j >= 0 and self._slot_keys[j] is not None:
            j -= 1
        self._charge_scan(start - j)
        return j

    def _gap_ge(self, i: int) -> int:
        n = self._slots
        j = max(i, 0)
        if self._np_occ is not None:
            if j >= n:
                self._charge_scan(0)
                return -1
            seg = self._np_occ[j:]
            off = int(_vec.np.argmin(seg))
            if not seg[off]:
                self._charge_scan(off)
                return j + off
            self._charge_scan(n - j)
            return -1
        start = j
        while j < n and self._slot_keys[j] is not None:
            j += 1
        self._charge_scan(j - start)
        return j if j < n else -1

    # -- gap-aware rank search ---------------------------------------------

    def _rank_slot(self, key: int) -> int:
        """Rightmost *occupied* slot whose key is <= ``key``; -1 if none."""
        charge = self.perf.charge
        slots = self._slots
        charge(Event.MODEL_EVAL)
        p = self.model.predict_clamped(key, slots)
        j = self._occupied_le(p)
        if j == -1:
            j = self._occupied_ge(p + 1)
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
            c = self._occupied_le(q)
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
            c = self._occupied_le(q)
            if c == -1:
                c = self._occupied_ge(q + 1)
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
            c = self._occupied_le(mid)
            if c <= lo:
                c = self._occupied_ge(mid + 1)
                if c >= hi:
                    return lo
            charge(Event.COMPARE)
            if self._key_at(c) <= key:
                lo = c
            else:
                hi = c

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
            return self._slot_values[r]
        return None

    def get_many(self, keys: Any) -> List[Optional[Any]]:
        """Batch get: one ``searchsorted`` over the occupied keys.

        Like every batch fast path (see ``docs/performance.md``), results
        are exactly the per-key loop's; the event bill is a coarse
        aggregate (one hop + model eval per query, one comparison per
        halving of the slot array) rather than the scalar per-probe
        ledger.
        """
        if self._np_keys is None or len(keys) < _MIN_BATCH:
            return [self.get(k) for k in keys]
        qs = _vec.as_u64(keys)
        if qs is None:
            return [self.get(k) for k in keys]
        n = len(keys)
        if self._occupied == 0:
            self.perf.charge(Event.DRAM_HOP, n)
            return [None] * n
        np = _vec.np
        pos = np.flatnonzero(self._np_occ)
        compact = self._np_keys[pos]
        idx = np.searchsorted(compact, qs, side="right").astype(np.int64) - 1
        hit = (idx >= 0) & (compact[np.maximum(idx, 0)] == qs)
        self.perf.charge(Event.DRAM_HOP, n)
        self.perf.charge(Event.MODEL_EVAL, n)
        self.perf.charge(Event.COMPARE, n * max(1, self._slots.bit_length()))
        values = self._slot_values
        src = pos[np.maximum(idx, 0)].tolist()
        return [
            values[s] if h else None for h, s in zip(hit.tolist(), src)
        ]

    def insert(self, key: int, value: Any) -> InsertResult:
        return self.upsert(key, value)[0]

    def insert_batch(self, items: List[Tuple[int, Any]]) -> Optional[int]:
        """Bulk upsert of a sorted run, re-spreading the whole slot array.

        ``items`` must be sorted ascending (in-run duplicates adjacent;
        the last occurrence wins).  The stored keys and the fresh keys
        are merged and re-placed through the leaf's model in one
        vectorized pass — the same ``cummax`` placement bulk load uses —
        so the per-key gap hunt disappears.  Returns the number of new
        keys, or ``None`` when the batch should take the per-key path
        instead (scalar backend, tiny run, inexact keys, or the batch
        would cross the density limit, where per-key FULL semantics must
        decide the retrain point).

        Like every batch fast path the event bill is a coarse aggregate;
        the re-spread also restores gap locality, so ``_move_ema`` decays
        as a run of free inserts would (see ``docs/performance.md`` on
        batch-vs-scalar cost parity).
        """
        if self._np_keys is None or len(items) < _MIN_BATCH:
            return None
        if self._move_ema > self.MOVE_EMA_LIMIT:
            return None  # per-key path reports FULL -> retrain
        np = _vec.np
        ks = _vec.as_u64([k for k, _ in items])
        if ks is None:
            return None
        keep = np.concatenate([ks[1:] != ks[:-1], np.ones(1, dtype=bool)])
        kidx = np.flatnonzero(keep)
        ks = ks[kidx]
        vs = [items[i][1] for i in kidx.tolist()]

        pos = np.flatnonzero(self._np_occ)
        existing = self._np_keys[pos]
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

        ex_vals = [self._slot_values[p] for p in pos.tolist()]
        for j, i in zip(loc[hit].tolist(), np.flatnonzero(hit).tolist()):
            ex_vals[j] = vs[i]
        if n_fresh:
            fresh_sel = ~hit
            merged = np.concatenate([existing, ks[fresh_sel]])
            order = np.argsort(merged, kind="stable")
            merged = merged[order]
            all_vals = ex_vals + [
                vs[i] for i in np.flatnonzero(fresh_sel).tolist()
            ]
            merged_vals = [all_vals[i] for i in order.tolist()]
        else:
            merged = existing
            merged_vals = ex_vals

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
        occ = np.zeros(self._slots, dtype=bool)
        keys_np[slot] = merged
        occ[slot] = True
        values: List[Any] = [None] * self._slots
        for s, v in zip(slot.tolist(), merged_vals):
            values[s] = v
        self._np_keys, self._np_occ, self._slot_values = keys_np, occ, values
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
        return n_fresh

    def upsert(self, key: int, value: Any) -> Tuple[InsertResult, Optional[Any]]:
        """One rank search serving both insert and update (see Leaf.upsert)."""
        self.perf.charge(Event.DRAM_HOP)
        r = self._rank_slot(key)
        if r != -1 and self._key_at(r) == key:
            old = self._slot_values[r]
            self._slot_values[r] = value
            return InsertResult.UPDATED, old
        if self._np_keys is not None and not 0 <= key < _U64_LIMIT:
            # Checked before any slot moves: the uint64 key array cannot
            # hold the key, and a failed store after a shift would leave
            # a duplicated slot behind.
            raise InvalidKeysError(
                f"{type(self).__name__}: key {key!r} is outside the uint64 "
                "key space"
            )
        if self.density() >= self.upper_density:
            return InsertResult.FULL, None
        if self._move_ema > self.MOVE_EMA_LIMIT:
            # Locally saturated even though global density is fine:
            # retraining re-spreads the gaps.
            return InsertResult.FULL, None

        slots = self._slots
        nr = self._occupied_ge(r + 1)  # next occupied after rank
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
        gap_left = self._gap_le(r) if r >= 0 else -1
        gap_right = self._gap_ge(nr)
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
            if self._np_keys is not None:
                self._np_keys[lo:hi] = self._np_keys[lo + 1 : hi + 1].copy()
                self._np_occ[lo:hi] = self._np_occ[lo + 1 : hi + 1].copy()
                self._slot_values[lo:hi] = self._slot_values[lo + 1 : hi + 1]
                self.perf.charge(Event.KEY_MOVE, hi - lo)
            else:
                charge = self.perf.charge
                for i in range(lo, hi):
                    self._slot_keys[i] = self._slot_keys[i + 1]
                    self._slot_values[i] = self._slot_values[i + 1]
                    charge(Event.KEY_MOVE)
        else:
            if self._np_keys is not None:
                self._np_keys[lo + 1 : hi + 1] = self._np_keys[lo:hi].copy()
                self._np_occ[lo + 1 : hi + 1] = self._np_occ[lo:hi].copy()
                self._slot_values[lo + 1 : hi + 1] = self._slot_values[lo:hi]
                self.perf.charge(Event.KEY_MOVE, hi - lo)
            else:
                charge = self.perf.charge
                for i in range(hi, lo, -1):
                    self._slot_keys[i] = self._slot_keys[i - 1]
                    self._slot_values[i] = self._slot_values[i - 1]
                    charge(Event.KEY_MOVE)

    def _place(self, slot: int, key: int, value: Any) -> None:
        if self._np_keys is not None:
            self._np_keys[slot] = key
            self._np_occ[slot] = True
        else:
            self._slot_keys[slot] = key
        self._slot_values[slot] = value
        self._occupied += 1
        if key < self._first:
            self._first = key

    def scan_from(self, lo: int, limit: int) -> List[Tuple[int, Any]]:
        """Range extraction in one occupancy-mask/compaction pass.

        ``flatnonzero`` compacts the gapped slot array, ``searchsorted``
        finds the first live key >= ``lo``, and the run comes out as one
        slice — no per-slot gap skipping.  Charges nothing, exactly like
        the ``items()``-based default it replaces.
        """
        if self._np_keys is None or self._occupied == 0:
            return super().scan_from(lo, limit)
        np = _vec.np
        pos = np.flatnonzero(self._np_occ)
        compact = self._np_keys[pos]
        i = int(np.searchsorted(compact, lo, side="left"))
        take = pos[i : i + limit].tolist()
        values = self._slot_values
        return [
            (k, values[p])
            for p, k in zip(take, compact[i : i + limit].tolist())
        ]

    def items(self) -> List[Tuple[int, Any]]:
        if self._np_keys is not None:
            np = _vec.np
            pos = np.flatnonzero(self._np_occ)
            values = self._slot_values
            return [
                (k, values[p])
                for p, k in zip(pos.tolist(), self._np_keys[pos].tolist())
            ]
        return [
            (k, self._slot_values[i])
            for i, k in enumerate(self._slot_keys)
            if k is not None
        ]

    @property
    def capacity_slots(self) -> int:
        return self._slots

    def delete(self, key: int) -> bool:
        """Remove ``key``: the slot simply becomes a gap."""
        self.perf.charge(Event.DRAM_HOP)
        r = self._rank_slot(key)
        if r == -1 or self._key_at(r) != key:
            return False
        if self._np_keys is not None:
            self._np_occ[r] = False
        else:
            self._slot_keys[r] = None
        self._slot_values[r] = None
        self._occupied -= 1
        if key == self._first and self._occupied:
            nxt = self._occupied_ge(r + 1)
            self._first = self._key_at(nxt)
        return True

    def size_bytes(self) -> int:
        # Slot array + occupancy bitmap + model.
        return self._slots * _PAIR_BYTES + self._slots // 8 + 24
