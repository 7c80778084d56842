"""One-pass error-bounded spline approximation (RadixSpline's algorithm).

Unlike PLA, consecutive spline pieces share knots: each piece interpolates
*exactly* between two spline points, so the curve is continuous.  A greedy
error corridor (slopes from the current knot) decides when a new knot must
be placed (Kipf et al., aiDM'20).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import (
    Approximation,
    Approximator,
    LinearModel,
    Segment,
)
from repro.errors import InvalidConfigurationError


class SplineModel:
    """A full spline: knots ``(key, position)`` + interpolation lookup."""

    def __init__(self, knots: List[Tuple[int, int]], n_keys: int):
        if len(knots) < 1:
            raise ValueError("spline needs at least one knot")
        self.knots = knots
        self.knot_keys = [k for k, _ in knots]
        self.n_keys = n_keys

    def predict(self, key: int) -> int:
        """Interpolated position of ``key``; clamped to [0, n_keys - 1]."""
        idx = bisect_right(self.knot_keys, key) - 1
        if idx < 0:
            return 0
        if idx >= len(self.knots) - 1:
            return self.knots[-1][1]
        k0, p0 = self.knots[idx]
        k1, p1 = self.knots[idx + 1]
        if k1 == k0:
            return p0
        pos = p0 + (p1 - p0) * (key - k0) / (k1 - k0)
        pos_i = int(round(pos))
        if pos_i < 0:
            return 0
        if pos_i >= self.n_keys:
            return self.n_keys - 1
        return pos_i

    def __len__(self) -> int:
        return len(self.knots)


def build_spline(keys: Sequence[int], eps: int) -> SplineModel:
    """Greedy one-pass corridor spline over strictly-ascending keys."""
    n = len(keys)
    if n == 0:
        raise InvalidConfigurationError("cannot build a spline over no keys")
    if n == 1:
        return SplineModel([(keys[0], 0)], 1)
    knots: List[Tuple[int, int]] = [(keys[0], 0)]
    slope_lo = float("-inf")
    slope_hi = float("inf")
    base_key, base_pos = keys[0], 0
    for i in range(1, n):
        dx = float(keys[i] - base_key)
        dy = float(i - base_pos)
        # A point is accepted only if the chord from the base knot to the
        # point itself stays inside the corridor; this is what guarantees
        # that linear interpolation between knots is within eps of every
        # intermediate point (Neumann & Michel's greedy spline corridor).
        if slope_lo <= dy / dx <= slope_hi:
            slope_lo = max(slope_lo, (dy - eps) / dx)
            slope_hi = min(slope_hi, (dy + eps) / dx)
            continue
        # Corridor violated: fix a knot at the previous point and restart
        # the corridor from there, constrained by the current point.
        prev = i - 1
        knots.append((keys[prev], prev))
        base_key, base_pos = keys[prev], prev
        dx = float(keys[i] - base_key)
        dy = float(i - base_pos)
        slope_lo = (dy - eps) / dx
        slope_hi = (dy + eps) / dx
    if knots[-1][0] != keys[-1]:
        knots.append((keys[-1], n - 1))
    return SplineModel(knots, n)


class SplineApproximator(Approximator):
    """Expose the spline through the common segment-list interface.

    Each inter-knot interval becomes a :class:`Segment` whose model is the
    chord between the knots, so the spline is directly comparable with the
    PLA algorithms in Fig 17-style sweeps.
    """

    name = "Spline"
    bounded_error = True

    def __init__(self, eps: int = 32):
        if eps < 0:
            raise InvalidConfigurationError(f"eps must be >= 0, got {eps}")
        self.eps = eps

    def fit(self, keys: Sequence[int]) -> Approximation:
        _vec.validate_fit_keys(keys, self.name)
        spline = build_spline(keys, self.eps)
        knots = spline.knots
        segments: List[Segment] = []
        if len(knots) == 1:
            model = LinearModel(0.0, 0.0, keys[0])
            segments.append(Segment(keys[0], 0, keys, model))
            return Approximation(segments, len(keys))
        for j in range(len(knots) - 1):
            k0, p0 = knots[j]
            k1, p1 = knots[j + 1]
            end = p1 if j < len(knots) - 2 else len(keys)
            chunk = keys[p0:end]
            slope = (p1 - p0) / (k1 - k0) if k1 != k0 else 0.0
            model = LinearModel(slope, 0.0, k0)
            segments.append(Segment(k0, p0, chunk, model))
        return Approximation(segments, len(keys))

    def __repr__(self) -> str:
        return f"SplineApproximator(eps={self.eps})"
