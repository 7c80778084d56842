"""RadixSpline — a single-pass error-bounded spline behind a radix table.

Lookup: the radix table (:class:`RadixTableStructure`, built over the
spline knots) maps the key's r-bit prefix to a knot window and
binary-searches the (few) knots there; the index then interpolates
between the surrounding knots and searches the data within the spline's
error bound.  Build is a single pass, which is why RS recovers fastest
in Fig 16; the fixed prefix is why it collapses on FACE (Fig 11).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.spline import SplineModel, build_spline
from repro.core.interfaces import (
    Capabilities,
    IndexStats,
    Key,
    Value,
    is_uint64,
    scan_start,
)
from repro.core.search import replay_bounded_binary_search, replay_rank_search
from repro.core.structures.radix_table import RadixTableStructure
from repro.learned.static_array import StaticArrayIndex
from repro.perf.context import PerfContext
from repro.perf.events import Event

_KNOT_BYTES = 16


class RadixSplineIndex(StaticArrayIndex):
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
        self._keys_np = None
        self._knots_np = None
        self._spline: Optional[SplineModel] = None
        self._radix: Optional[RadixTableStructure] = None

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        n = self._load(items)
        self._keys_np = _vec.as_u64(self._keys)
        if n == 0:
            self._spline = None
            self._knots_np = None
            self._radix = None
            return
        if self.r_bits is None:
            self.r_bits = max(6, min(18, n.bit_length() - 10))
        # One pass over the data: the defining property of RS's build.
        self.perf.charge(Event.RETRAIN_KEY, n)
        self._spline = build_spline(self._keys, self.eps)
        knot_keys = self._spline.knot_keys
        self._knots_np = _vec.as_u64(knot_keys)
        self.perf.charge(Event.ALLOC, 1 + len(knot_keys))
        self._radix = RadixTableStructure(self.r_bits, perf=self.perf)
        self._radix.build(knot_keys)

    # -- queries ----------------------------------------------------------

    def _interpolate(self, idx: int, key: Key) -> int:
        """Position of ``key`` on the spline piece that starts at knot
        ``idx`` (the rightmost knot <= key)."""
        knots = self._spline.knots
        if idx >= len(knots) - 1:
            return knots[-1][1]
        k0, p0 = knots[idx]
        if key <= k0:
            return p0
        k1, p1 = knots[idx + 1]
        return p0 + int((p1 - p0) * (key - k0) / (k1 - k0))

    def _guess(self, key: Key) -> int:
        idx = self._radix.lookup(key)
        self.perf.charge(Event.MODEL_EVAL)
        return self._interpolate(idx, key)

    def get(self, key: Key) -> Optional[Value]:
        if not isinstance(key, int):
            # The radix table shifts key bits: look up the equal integer
            # key (an integer key keeps its charges), if there is one.
            if not is_uint64(key):
                return None
            key = int(key)
        return super().get(key)

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
        if not isinstance(lo, int):
            # The radix table shifts key bits: search from the first
            # integer key instead (an integer start keeps its charges).
            lo = scan_start(lo)
            if lo is None:
                return
        yield from super().range(lo, hi)

    def scan_many(
        self, starts: Sequence[Key], count: int
    ) -> List[List[Tuple[Key, Value]]]:
        """Native batch scan: replayed positioning, sliced extraction.

        Fast path (exact-integer batches with numpy available): one
        ``searchsorted`` over the knot keys and one pair over the data
        resolve every start's bounded-search rank, leaf rank, and run
        begin; :func:`replay_bounded_binary_search` over the radix
        table's :meth:`~RadixTableStructure.bounds` and
        :func:`replay_rank_search` reproduce the scalar probe ledgers in
        pure integer arithmetic, and the batch's charges go out as four
        aggregate events — totals bit-identical to sequential
        :meth:`scan`.  Inexact batches take the per-start :meth:`scan`.
        """
        if self._spline is None or count <= 0:
            return [[] for _ in starts]
        qs = (
            _vec.as_u64(starts)
            if self._keys_np is not None and self._knots_np is not None
            else None
        )
        if qs is None:
            return super().scan_many(starts, count)
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
        bounds = self._radix.bounds
        compare = hop = seq = taken = 0
        for i, start in enumerate(starts):
            lo, hi = bounds(start)
            c, h, s, idx = replay_bounded_binary_search(lo, hi, kastar[i])
            compare += c
            hop += h
            seq += s
            guess = self._interpolate(idx, start)
            c, h, s, _ = replay_rank_search(0, n - 1, guess, astar[i])
            compare += c
            hop += h
            seq += s
            pos = begin[i]
            take = min(count, n - pos)
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

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        if self._spline is None:
            return 0
        return len(self._spline.knots) * _KNOT_BYTES + self._radix.size_bytes()

    def stats(self) -> IndexStats:
        if self._spline is None:
            return IndexStats()
        return IndexStats(
            depth_avg=1.0,
            depth_max=1,
            leaf_count=max(1, len(self._spline.knots) - 1),
            avg_error=self.eps / 2.0,
            max_error=self.eps,
            extra={"max_bucket_knots": max(self._radix.bucket_sizes())},
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
