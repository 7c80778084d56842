"""Log-bucketed histogram: O(1) record, bounded-relative-error quantiles.

This is the repo's one latency store: the executor, the concurrency
simulator, the parallel engine and the metrics registry all record into
it.  A sort-per-call percentile costs ``O(n log n)`` on every report;
serving stacks instead bucket samples on a logarithmic grid
(HdrHistogram, Prometheus, DDSketch) so recording is a dict increment,
a weighted ``record(v, n)`` stands for ``n`` equal samples, and any
quantile is one pass over the occupied buckets.

Bucketing uses :func:`math.frexp`, which decomposes ``v = m * 2**e``
exactly — no ``log()`` rounding at bucket edges.  Each power-of-two range
``[2**(e-1), 2**e)`` is divided into :data:`LogHistogram.SUBBUCKETS`
linear sub-buckets, so any reported quantile is the upper edge of the
bucket holding the nearest-rank sample and overestimates it by at most
``1/SUBBUCKETS`` (:data:`LogHistogram.RELATIVE_ERROR`) relative, while
``min``/``max``/``mean`` stay exact.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

#: Bucket id reserved for values <= 0 (simulated latencies are >= 0, but
#: a zero-cost op must still count).  Sorts below every real bucket.
_ZERO_BUCKET = -(1 << 40)


class LogHistogram:
    """Sparse log-bucketed histogram over positive floats."""

    #: Linear sub-buckets per power-of-two range; the relative-error knob.
    SUBBUCKETS = 128
    #: Worst-case relative overestimate of any quantile.
    RELATIVE_ERROR = 1.0 / SUBBUCKETS

    __slots__ = ("_buckets", "_count", "_total", "_min", "_max", "_sorted", "_dirty")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sorted: List[int] = []
        self._dirty = False

    # -- bucketing ----------------------------------------------------------

    @classmethod
    def bucket_of(cls, value: float) -> int:
        if value <= 0.0:
            return _ZERO_BUCKET
        m, e = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
        return e * cls.SUBBUCKETS + int((m * 2.0 - 1.0) * cls.SUBBUCKETS)

    @classmethod
    def bucket_upper(cls, bucket: int) -> float:
        """Exclusive upper edge of ``bucket`` (the value a quantile reports)."""
        if bucket == _ZERO_BUCKET:
            return 0.0
        e, sub = divmod(bucket, cls.SUBBUCKETS)
        return math.ldexp(1.0 + (sub + 1) / cls.SUBBUCKETS, e - 1)

    # -- recording ----------------------------------------------------------

    def record(self, value: float, n: int = 1) -> None:
        b = self.bucket_of(value)
        buckets = self._buckets
        if b in buckets:
            buckets[b] += n
        else:
            buckets[b] = n
            self._dirty = True
        self._count += n
        self._total += value * n
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other``'s buckets into this histogram."""
        for b, n in other._buckets.items():
            if b in self._buckets:
                self._buckets[b] += n
            else:
                self._buckets[b] = n
                self._dirty = True
        self._count += other._count
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # -- summary ------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    def min(self) -> float:
        if not self._count:
            raise ValueError("empty histogram")
        return self._min

    def max(self) -> float:
        if not self._count:
            raise ValueError("empty histogram")
        return self._max

    def mean(self) -> float:
        if not self._count:
            raise ValueError("empty histogram")
        return self._total / self._count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, ``q`` in (0, 1].

        Returns the upper edge of the bucket holding the sample of rank
        ``ceil(q * count)``, clamped to the exact observed ``[min, max]``
        — so ``quantile(1.0)`` is the exact maximum and every other
        quantile overestimates the true sample by at most
        :data:`RELATIVE_ERROR` relative.
        """
        if not self._count:
            raise ValueError("empty histogram")
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        # Round-guard: 0.999 * 1000 is 999.0000000000001 in binary floating
        # point, which must still rank as 999, not 1000.
        rank = max(1, math.ceil(q * self._count - 1e-9))
        if self._dirty:
            self._sorted = sorted(self._buckets)
            self._dirty = False
        seen = 0
        for b in self._sorted:
            seen += self._buckets[b]
            if seen >= rank:
                return min(self._max, max(self._min, self.bucket_upper(b)))
        return self._max  # pragma: no cover - rank <= count always lands

    def buckets(self) -> Iterator[Tuple[float, int]]:
        """``(upper_edge, count)`` pairs in ascending bucket order."""
        if self._dirty:
            self._sorted = sorted(self._buckets)
            self._dirty = False
        for b in self._sorted:
            yield self.bucket_upper(b), self._buckets[b]
