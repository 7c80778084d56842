"""Optimal streaming piecewise-linear approximation (PGM-Index's Opt-PLA).

Given a maximum error ``eps``, a segment can absorb a new point while there
still exists *some* line within ``eps`` of every point seen so far
(O'Rourke, CACM 1981).  Extending each segment maximally in one pass yields
the minimum possible number of segments — the property the paper credits to
PGM-Index ("less than or equal to the number of segments in FITing-tree").

The feasible set of lines is tracked by its two extreme members:

* the **max-slope line**, pinned by a lower constraint point
  ``(x, y - eps)`` on the left and an upper constraint point
  ``(x, y + eps)`` on the right, and
* the **min-slope line**, pinned by an upper point on the left and a lower
  point on the right.

When a new point tightens one of the extremes, the new extreme line passes
through the new constraint point and is tangent to the convex hull of the
opposite constraint set; tangents are found by a unimodal walk whose start
pointer only moves forward (amortised O(1) per point).

All geometry runs in coordinates local to the segment's first point so that
double precision remains exact for 64-bit keys.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import (
    Approximation,
    Approximator,
    LinearModel,
    Segment,
)
from repro.errors import InvalidConfigurationError

_TOL = 1e-9


def _slope(p: Tuple[float, float], q: Tuple[float, float]) -> float:
    return (q[1] - p[1]) / (q[0] - p[0])


def _cross(
    o: Tuple[float, float], a: Tuple[float, float], b: Tuple[float, float]
) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class OptimalPLA:
    """Incremental feasibility tracker for one segment.

    Feed strictly-increasing ``x``; :meth:`add` returns ``False`` when the
    point cannot be absorbed, at which point the caller reads
    :meth:`current_line` and starts a new instance.
    """

    def __init__(self, eps: float):
        if eps < 0:
            raise InvalidConfigurationError(f"eps must be >= 0, got {eps}")
        self.eps = float(eps)
        self._n = 0
        self._x0 = 0.0
        self._y0 = 0.0
        # Convex hulls of constraint points (local coordinates).
        self._lower_hull: List[Tuple[float, float]] = []  # upper hull of (x, y-eps)
        self._upper_hull: List[Tuple[float, float]] = []  # lower hull of (x, y+eps)
        self._lo_ptr = 0
        self._up_ptr = 0
        # Extreme feasible lines: slope + a point each passes through.
        self._smax = 0.0
        self._smin = 0.0
        self._last_lx = 0.0
        self._pmax: Tuple[float, float] = (0.0, 0.0)  # on the max-slope line
        self._pmin: Tuple[float, float] = (0.0, 0.0)  # on the min-slope line

    def add(self, x: float, y: float) -> bool:
        """Try to absorb point ``(x, y)``; False means the segment is full."""
        if self._n == 0:
            self._x0, self._y0 = float(x), float(y)
            self._lower_hull = [(0.0, -self.eps)]
            self._upper_hull = [(0.0, self.eps)]
            self._lo_ptr = 0
            self._up_ptr = 0
            self._last_lx = 0.0
            self._n = 1
            return True

        lx = float(x) - self._x0
        ly = float(y) - self._y0
        if lx <= self._last_lx:
            # Distinct integer keys can collapse to the same double once
            # the segment spans more than 2^53; refuse the point so the
            # caller starts a new segment, whose rebasing restores exact
            # local coordinates.
            return False
        self._last_lx = lx
        lower = (lx, ly - self.eps)
        upper = (lx, ly + self.eps)

        if self._n == 1:
            self._smax = _slope(self._lower_hull[0], upper)
            self._smin = _slope(self._upper_hull[0], lower)
            self._pmax = self._lower_hull[0]
            self._pmin = self._upper_hull[0]
            self._append_lower(lower)
            self._append_upper(upper)
            self._n = 2
            return True

        # Feasibility: even the steepest line must reach the new lower
        # point, and the shallowest must stay under the new upper point.
        max_at_x = self._pmax[1] + self._smax * (lx - self._pmax[0])
        min_at_x = self._pmin[1] + self._smin * (lx - self._pmin[0])
        guard = _TOL * max(1.0, abs(ly))
        if lower[1] > max_at_x + guard or upper[1] < min_at_x - guard:
            return False

        # Tighten the max-slope line if the new upper point binds it.
        if upper[1] < max_at_x:
            ptr = min(self._lo_ptr, len(self._lower_hull) - 1)
            best = _slope(self._lower_hull[ptr], upper)
            while ptr + 1 < len(self._lower_hull):
                cand = _slope(self._lower_hull[ptr + 1], upper)
                if cand > best:
                    break
                best = cand
                ptr += 1
            self._lo_ptr = ptr
            self._pmax = self._lower_hull[ptr]
            self._smax = best

        # Tighten the min-slope line if the new lower point binds it.
        if lower[1] > min_at_x:
            ptr = min(self._up_ptr, len(self._upper_hull) - 1)
            best = _slope(self._upper_hull[ptr], lower)
            while ptr + 1 < len(self._upper_hull):
                cand = _slope(self._upper_hull[ptr + 1], lower)
                if cand < best:
                    break
                best = cand
                ptr += 1
            self._up_ptr = ptr
            self._pmin = self._upper_hull[ptr]
            self._smin = best

        self._append_lower(lower)
        self._append_upper(upper)
        self._n += 1
        return True

    def _append_lower(self, p: Tuple[float, float]) -> None:
        """Maintain the upper convex hull of lower constraint points."""
        hull = self._lower_hull
        while (
            len(hull) - 1 > self._lo_ptr
            and _cross(hull[-2], hull[-1], p) >= 0
        ):
            hull.pop()
        hull.append(p)

    def _append_upper(self, p: Tuple[float, float]) -> None:
        """Maintain the lower convex hull of upper constraint points."""
        hull = self._upper_hull
        while (
            len(hull) - 1 > self._up_ptr
            and _cross(hull[-2], hull[-1], p) <= 0
        ):
            hull.pop()
        hull.append(p)

    def current_line(self) -> Tuple[float, float]:
        """``(slope, intercept)`` of a feasible line in local coordinates."""
        if self._n == 0:
            raise ValueError("no points added")
        if self._n == 1:
            return 0.0, 0.0
        slope = (self._smax + self._smin) / 2.0
        if self._smax == self._smin:
            # Degenerate feasible set: pin through the midpoint of the
            # first point's constraint interval (which is the point itself).
            return slope, 0.0
        # Both extreme lines pass through the interior of the feasible
        # strip; their intersection is a point every feasible line can
        # pivot around.
        xi = (
            self._pmin[1]
            - self._smin * self._pmin[0]
            - self._pmax[1]
            + self._smax * self._pmax[0]
        ) / (self._smax - self._smin)
        yi = self._pmax[1] + self._smax * (xi - self._pmax[0])
        return slope, yi - slope * xi


class OptPLAApproximator(Approximator):
    """One-pass minimal-segment PLA with guaranteed ``max_error <= eps``."""

    name = "Opt-PLA"
    bounded_error = True

    def __init__(self, eps: int = 32):
        if eps < 0:
            raise InvalidConfigurationError(f"eps must be >= 0, got {eps}")
        self.eps = eps

    def fit(self, keys: Sequence[int]) -> Approximation:
        if not len(keys):
            raise InvalidConfigurationError("cannot approximate an empty key set")
        arr = _vec.validate_fit_keys(keys, self.name)
        # The hull maintenance stays scalar (each point's tangent walk
        # depends on every previous point), but closing a segment through
        # the exact uint64 array vectorizes its error-bound measurement.
        measure_keys = arr if arr is not None else keys
        segments: List[Segment] = []
        start = 0
        pla = OptimalPLA(self.eps)
        i = 0
        n = len(keys)
        while i < n:
            # y is the local position so the fitted line predicts offsets
            # within the segment directly.
            if pla.add(float(keys[i] - keys[start]), float(i - start)):
                i += 1
                continue
            segments.append(self._close(keys, measure_keys, start, i, pla))
            start = i
            pla = OptimalPLA(self.eps)
        segments.append(self._close(keys, measure_keys, start, n, pla))
        return Approximation(segments, n)

    def _close(
        self,
        keys: Sequence[int],
        measure_keys: Sequence[int],
        start: int,
        end: int,
        pla: OptimalPLA,
    ) -> Segment:
        slope, intercept = pla.current_line()
        model = LinearModel(slope, intercept, keys[start])
        return Segment(keys[start], start, measure_keys[start:end], model)

    def __repr__(self) -> str:
        return f"OptPLAApproximator(eps={self.eps})"
