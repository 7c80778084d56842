"""RadixSpline — a single-pass error-bounded spline behind a radix table.

Lookup: the radix table (:class:`RadixTableStructure`, built over the
spline knots) maps the key's r-bit prefix to a knot window and
binary-searches the (few) knots there; the index then interpolates
between the surrounding knots and searches the data within the spline's
error bound.  Build is a single pass, which is why RS recovers fastest
in Fig 16; the fixed prefix is why it collapses on FACE (Fig 11).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

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
        self._knots_np = None
        self._knot_pos = None
        self._spline: Optional[SplineModel] = None
        self._radix: Optional[RadixTableStructure] = None

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        n = self._load(items)
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
        self._knot_pos = _vec.np.array(
            [p for _, p in self._spline.knots], dtype=_vec.np.int64
        )
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

    def _guess_many(self, qs):
        idx = self._radix.lookup_many(qs)
        self.perf.charge(Event.MODEL_EVAL, qs.size)
        return self._interpolate_many(idx, qs)

    def _interpolate_many(self, idx, qs):
        """:meth:`_interpolate` of every query from its knot index.

        Python divides the exact integers ``(p1 - p0) * (key - k0)`` and
        ``k1 - k0`` with one rounding, then truncates; float64 lands
        within 2^-50 of that quotient, so the few queries with an integer
        that near take the scalar interpolation.
        """
        np = _vec.np
        knots, pos = self._knots_np, self._knot_pos
        last = knots.size - 1
        if not last:
            return np.full(qs.size, pos[0], dtype=np.int64)
        j = np.minimum(idx, last - 1)
        above = (idx < last) & (qs > knots[j])
        run = np.where(above, qs - knots[j], 0).astype(np.float64)
        x = (pos[j + 1] - pos[j]) * run / (knots[j + 1] - knots[j]).astype(
            np.float64
        )
        out = np.where(idx < last, pos[j], pos[last])
        out[above] += np.floor(x[above]).astype(np.int64)
        near = np.floor(x * (1 - 2.0**-40)) != np.floor(x * (1 + 2.0**-40))
        for i in np.flatnonzero(above & near).tolist():
            out[i] = self._interpolate(int(idx[i]), int(qs[i]))
        return out

    def get(self, key: Key) -> Optional[Value]:
        if not isinstance(key, int):
            # The radix table shifts key bits: look up the equal integer
            # key (an integer key keeps its charges), if there is one.
            if not is_uint64(key):
                return None
            key = int(key)
        return super().get(key)

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if not isinstance(lo, int):
            # The radix table shifts key bits: search from the first
            # integer key instead (an integer start keeps its charges).
            lo = scan_start(lo)
            if lo is None:
                return
        yield from super().range(lo, hi)

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
