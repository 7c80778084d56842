"""RadixSpline — a single-pass error-bounded spline behind a radix table.

Lookup: extract the key's r-bit prefix, probe the radix table for the
spline-point interval, binary-search the (few) spline points there, then
interpolate between the surrounding knots and search the data within the
spline's error bound.  Build is a single pass, which is why RS recovers
fastest in Fig 16; the fixed prefix is why it collapses on FACE (Fig 11).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.spline import SplineModel, build_spline
from repro.core.interfaces import (
    Capabilities,
    IndexStats,
    Key,
    SortedIndex,
    Value,
    check_sorted_unique,
    is_uint64,
    scan_start,
)
from repro.core.search import (
    bounded_binary_search,
    rank_search,
    replay_bounded_binary_search,
    replay_rank_search,
)
from repro.perf.context import PerfContext
from repro.perf.events import Event

_KNOT_BYTES = 16
_TABLE_ENTRY_BYTES = 4


class RadixSplineIndex(SortedIndex):
    """Static spline + radix table over a sorted key/value array."""

    name = "RS"

    def __init__(
        self,
        eps: int = 32,
        r_bits: Optional[int] = None,
        perf: Optional[PerfContext] = None,
    ):
        """``r_bits=None`` sizes the table once, at the *first* build, to
        ``log2(n) - 10`` (the paper's 18 bits for 200M keys targets ~2^10
        keys per prefix bucket).  Crucially the prefix width then stays
        fixed — "the r-bit prefixes do not change when the data increases"
        — which is exactly what degrades RS from 200M to 800M (§III-B)."""
        super().__init__(perf)
        self.eps = eps
        self.r_bits = r_bits
        self._keys: List[Key] = []
        self._values: List[Any] = []
        self._keys_np = None
        self._knots_np = None
        self._spline: Optional[SplineModel] = None
        self._table: List[int] = []
        self._min_key = 0
        self._shift = 0

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._keys = [k for k, _ in items]
        self._values = [v for _, v in items]
        self._keys_np = _vec.as_u64(self._keys)
        n = len(items)
        if n == 0:
            self._spline = None
            self._knots_np = None
            self._table = []
            return
        if self.r_bits is None:
            self.r_bits = max(6, min(18, n.bit_length() - 10))
        # One pass over the data: the defining property of RS's build.
        self.perf.charge(Event.RETRAIN_KEY, n)
        self._spline = build_spline(self._keys, self.eps)
        knot_keys = self._spline.knot_keys
        self._knots_np = _vec.as_u64(knot_keys)

        self._min_key = self._keys[0]
        key_range = self._keys[-1] - self._keys[0]
        self._shift = max(0, key_range.bit_length() - self.r_bits)
        slots = 1 << self.r_bits
        self.perf.charge(Event.ALLOC, 1 + len(knot_keys))
        table = [0] * (slots + 1)
        for idx, kk in enumerate(knot_keys):
            b = (kk - self._min_key) >> self._shift
            if b >= slots:
                b = slots - 1
            table[b + 1] = idx + 1
        for b in range(1, slots + 1):
            if table[b] < table[b - 1]:
                table[b] = table[b - 1]
        self._table = table

    # -- queries ----------------------------------------------------------

    def _bucket(self, key: Key) -> int:
        if key <= self._min_key:
            return 0
        b = (key - self._min_key) >> self._shift
        slots = 1 << self.r_bits
        return slots - 1 if b >= slots else b

    def _knot_index(self, key: Key) -> int:
        """Rightmost spline knot <= key, via radix table + binary search."""
        charge = self.perf.charge
        charge(Event.DRAM_HOP)  # radix table probe
        b = self._bucket(key)
        lo = max(0, self._table[b] - 1)
        hi = max(0, self._table[b + 1] - 1)
        charge(Event.DRAM_HOP)  # spline-point array
        return bounded_binary_search(
            self._spline.knot_keys, key, lo, hi, self.perf
        )

    def _rank(self, key: Key) -> int:
        spline = self._spline
        idx = self._knot_index(key)
        self.perf.charge(Event.MODEL_EVAL)
        if idx >= len(spline.knots) - 1:
            guess = spline.knots[-1][1]
        else:
            k0, p0 = spline.knots[idx]
            k1, p1 = spline.knots[idx + 1]
            if key <= k0:
                guess = p0
            else:
                guess = p0 + int((p1 - p0) * (key - k0) / (k1 - k0))
        self.perf.charge(Event.DRAM_HOP)  # first touch of the key array
        return rank_search(
            self._keys, 0, len(self._keys) - 1, key, guess, self.perf
        )

    def get(self, key: Key) -> Optional[Value]:
        if self._spline is None:
            return None
        if not isinstance(key, int):
            # The radix table shifts key bits: look up the equal integer
            # key (an integer key keeps its charges), if there is one.
            if not is_uint64(key):
                return None
            key = int(key)
        pos = self._rank(key)
        if pos >= 0 and self._keys[pos] == key:
            self.perf.charge(Event.DRAM_SEQ)
            return self._values[pos]
        return None

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """One ``searchsorted`` over the key array for the whole batch.

        The radix probe + knot interpolation + bounded search per key is
        billed as one aggregate charge: a table probe and model eval per
        query plus one comparison per halving of the eps window.
        Results always equal ``[self.get(k) for k in keys]``.
        """
        if self._spline is None:
            return [None] * len(keys)
        qs = _vec.as_u64(keys) if self._keys_np is not None else None
        if qs is None:
            return [self.get(key) for key in keys]
        np = _vec.np
        pos = np.searchsorted(self._keys_np, qs, side="right").astype(np.int64) - 1
        hit = (pos >= 0) & (self._keys_np[np.maximum(pos, 0)] == qs)
        n = len(keys)
        window_steps = max(1, (2 * self.eps).bit_length())
        self.perf.charge(Event.DRAM_HOP, n * 2)
        self.perf.charge(Event.MODEL_EVAL, n)
        self.perf.charge(Event.COMPARE, n * window_steps)
        self.perf.charge(Event.DRAM_SEQ, int(hit.sum()))
        values = self._values
        return [
            values[p] if h else None
            for p, h in zip(pos.tolist(), hit.tolist())
        ]

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if self._spline is None:
            return
        if not isinstance(lo, int):
            # The radix table shifts key bits: search from the first
            # integer key instead (an integer start keeps its charges).
            lo = scan_start(lo)
            if lo is None:
                return
        pos = self._rank(lo)
        if pos < 0 or self._keys[pos] < lo:
            pos += 1
        while pos < len(self._keys) and self._keys[pos] <= hi:
            self.perf.charge(Event.DRAM_SEQ)
            yield self._keys[pos], self._values[pos]
            pos += 1

    def scan_many(
        self, starts: Sequence[Key], count: int
    ) -> List[List[Tuple[Key, Value]]]:
        """Native batch scan: replayed positioning, sliced extraction.

        Fast path (exact-integer batches with numpy available): one
        ``searchsorted`` over the knot keys and one pair over the data
        resolve every start's bounded-search rank, leaf rank, and run
        begin; :func:`replay_bounded_binary_search` and
        :func:`replay_rank_search` reproduce the scalar probe ledgers in
        pure integer arithmetic, and the batch's charges go out as four
        aggregate events — totals bit-identical to sequential
        :meth:`scan`.  Inexact batches take the per-start :meth:`scan`.
        """
        if self._spline is None:
            return [[] for _ in starts]
        qs = (
            _vec.as_u64(starts)
            if self._keys_np is not None and self._knots_np is not None
            else None
        )
        if qs is None:
            return super().scan_many(starts, count)
        limit = count if count > 0 else 1
        keys = self._keys
        values = self._values
        n = len(keys)
        out: List[List[Tuple[Key, Value]]] = []
        np = _vec.np
        astar = (
            np.searchsorted(self._keys_np, qs, side="right").astype(np.int64)
            - 1
        ).tolist()
        kastar = (
            np.searchsorted(self._knots_np, qs, side="right").astype(np.int64)
            - 1
        ).tolist()
        begin = np.searchsorted(self._keys_np, qs, side="left").tolist()
        knots = self._spline.knots
        table = self._table
        last = len(knots) - 1
        compare = hop = seq = taken = 0
        for i, start in enumerate(starts):
            b = self._bucket(start)
            lo = max(0, table[b] - 1)
            hi = max(0, table[b + 1] - 1)
            c, h, s, idx = replay_bounded_binary_search(lo, hi, kastar[i])
            compare += c
            hop += h
            seq += s
            if idx >= last:
                guess = knots[-1][1]
            else:
                k0, p0 = knots[idx]
                k1, p1 = knots[idx + 1]
                if start <= k0:
                    guess = p0
                else:
                    guess = p0 + int((p1 - p0) * (start - k0) / (k1 - k0))
            c, h, s, _ = replay_rank_search(0, n - 1, guess, astar[i])
            compare += c
            hop += h
            seq += s
            pos = begin[i]
            take = min(limit, n - pos)
            if take > 0:
                taken += take
                out.append(list(zip(keys[pos : pos + take],
                                    values[pos : pos + take])))
            else:
                out.append([])
        m = len(starts)
        charge = self.perf.charge
        charge(Event.DRAM_HOP, m * 3 + hop)
        charge(Event.MODEL_EVAL, m)
        charge(Event.COMPARE, compare)
        charge(Event.DRAM_SEQ, seq + taken)
        return out

    def __len__(self) -> int:
        return len(self._keys)

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        knots = len(self._spline.knots) if self._spline else 0
        return knots * _KNOT_BYTES + len(self._table) * _TABLE_ENTRY_BYTES

    def stats(self) -> IndexStats:
        if self._spline is None:
            return IndexStats()
        sizes = [
            self._table[b + 1] - self._table[b]
            for b in range(len(self._table) - 1)
        ]
        return IndexStats(
            depth_avg=1.0,
            depth_max=1,
            leaf_count=max(1, len(self._spline.knots) - 1),
            avg_error=self.eps / 2.0,
            max_error=self.eps,
            extra={"max_bucket_knots": max(sizes) if sizes else 0},
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=False,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="radix table",
            leaf_node="spline",
            approximation="one-pass spline",
            insertion="-",
            retraining="-",
        )
