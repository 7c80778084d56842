"""Least-squares approximation over fixed-size segments (XIndex's algorithm).

The paper (§IV-A): "After dividing the stored data into fixed segments, LSA
is used to generate a linear model for each segment."  LSA provides no
maximum-error guarantee, which is the root of both its tail-latency problem
and its segments-vs-error conflict.

Chunks of exact ``uint64`` keys are fitted by numpy's closed form
(:func:`repro.core.approximation.vectorized.fit_least_squares_np`), other
chunks by :func:`fit_least_squares`, which LSA-gap and the leaf strategies
also call for short runs.  The fixed chunking gives the same segment
boundaries either way; the coefficients differ only by pairwise vs.
sequential summation (last ulp).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import (
    Approximation,
    Approximator,
    LinearModel,
    Segment,
)
from repro.errors import InvalidConfigurationError


def fit_least_squares(keys: Sequence[int], base_key: int) -> Tuple[float, float]:
    """Closed-form simple linear regression of local position on key.

    Returns ``(slope, intercept)`` for ``pos ~ slope * (key - base_key) +
    intercept`` where ``pos`` is the 0-based offset within ``keys``.
    """
    n = len(keys)
    if n == 1:
        return 0.0, 0.0
    # Work in local key coordinates to keep the normal equations accurate
    # for 64-bit keys.
    sum_x = 0.0
    sum_xx = 0.0
    sum_y = 0.0
    sum_xy = 0.0
    for pos, key in enumerate(keys):
        x = float(key - base_key)
        sum_x += x
        sum_xx += x * x
        sum_y += pos
        sum_xy += x * pos
    denom = n * sum_xx - sum_x * sum_x
    if denom == 0.0:
        # All keys identical in float space; fall back to a flat model.
        return 0.0, (n - 1) / 2.0
    slope = (n * sum_xy - sum_x * sum_y) / denom
    intercept = (sum_y - slope * sum_x) / n
    return slope, intercept


class LSAApproximator(Approximator):
    """Split keys into fixed chunks of ``segment_size`` and fit each by LSA."""

    name = "LSA"
    bounded_error = False

    def __init__(self, segment_size: int = 256):
        if segment_size < 1:
            raise InvalidConfigurationError(
                f"segment_size must be >= 1, got {segment_size}"
            )
        self.segment_size = segment_size

    def fit(self, keys: Sequence[int]) -> Approximation:
        if not keys:
            raise InvalidConfigurationError("cannot approximate an empty key set")
        arr = _vec.as_u64(keys)
        segments = []
        for start in range(0, len(keys), self.segment_size):
            if arr is not None:
                chunk = arr[start : start + self.segment_size]
                base = int(chunk[0])
                slope, intercept = _vec.fit_least_squares_np(chunk, base)
            else:
                chunk = keys[start : start + self.segment_size]
                base = chunk[0]
                slope, intercept = fit_least_squares(chunk, base)
            model = LinearModel(slope, intercept, base)
            segments.append(Segment(base, start, chunk, model))
        return Approximation(segments, len(keys))

    def __repr__(self) -> str:
        return f"LSAApproximator(segment_size={self.segment_size})"
