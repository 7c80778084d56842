"""Greedy feasible-space-window PLA (FITing-tree's algorithm).

The greedy algorithm anchors each segment's line at the segment's first
point and shrinks a feasible slope window as points arrive (Liu et al.'s
FSW); when the window empties, a new segment starts.  It shares Opt-PLA's
maximum-error guarantee but, because the line is forced through the first
point, it can need more segments — which is why the paper swaps it for
Opt-PLA when benchmarking FITing-tree's *other* dimensions (§III-A1).

The fit evaluates the error-bound window with numpy: per-point slope
bounds ``(dy ± eps) / dx`` become array expressions, the running window
is ``maximum.accumulate`` / ``minimum.accumulate``, and a segment break
is the first index where the accumulated bounds cross.  Every float
operation matches the point-by-point loop of the published algorithm bit
for bit, so both give identical segment boundaries *and* models; that
loop is kept as a test oracle (``tests/oracles/greedy_scalar.py``).
Keys must be exact ``uint64`` integers; others raise ``InvalidKeysError``.
"""

from __future__ import annotations

from typing import List, Sequence

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import (
    Approximation,
    Approximator,
    LinearModel,
    Segment,
)
from repro.errors import InvalidConfigurationError, InvalidKeysError

#: Initial block size for the doubling scan of one segment's tail.
_BLOCK = 1024


class GreedyPLAApproximator(Approximator):
    """One-pass greedy PLA with ``max_error <= eps``, anchored segments."""

    name = "Greedy-PLA"
    bounded_error = True

    def __init__(self, eps: int = 32):
        if eps < 0:
            raise InvalidConfigurationError(f"eps must be >= 0, got {eps}")
        self.eps = eps

    def fit(self, keys: Sequence[int]) -> Approximation:
        """Blockwise evaluation of the point-by-point window.

        For the segment anchored at ``start`` the window after absorbing
        point ``i`` is exactly ``(cummax(lo)[i], cummin(hi)[i])``, and the
        break happens at the first ``i`` whose accumulated bounds cross.
        Blocks double so one segment's tail is scanned O(len) total even
        when recomputed.
        """
        if not len(keys):
            raise InvalidConfigurationError("cannot approximate an empty key set")
        arr = _vec.validate_fit_keys(keys, self.name)
        if arr is None:
            raise InvalidKeysError(
                f"{self.name}: fit keys must be integers in the uint64 key space"
            )
        np = _vec.np
        segments: List[Segment] = []
        n = len(keys)
        eps = float(self.eps)
        start = 0
        while start < n:
            if start == n - 1:
                segments.append(
                    self._close(arr, start, n, float("-inf"), float("inf"))
                )
                break
            block = _BLOCK
            while True:
                end = min(n, start + 1 + block)
                dx = (arr[start + 1 : end] - arr[start]).astype(np.float64)
                dy = np.arange(1, end - start, dtype=np.float64)
                lo = (dy - eps) / dx
                hi = (dy + eps) / dx
                np.maximum.accumulate(lo, out=lo)
                np.minimum.accumulate(hi, out=hi)
                crossed = lo > hi
                if crossed.any():
                    brk = int(crossed.argmax())  # first True; never 0
                    i = start + 1 + brk
                    segments.append(
                        self._close(
                            arr, start, i, float(lo[brk - 1]), float(hi[brk - 1])
                        )
                    )
                    start = i
                    break
                if end == n:
                    segments.append(
                        self._close(arr, start, n, float(lo[-1]), float(hi[-1]))
                    )
                    start = n
                    break
                block *= 2
        return Approximation(segments, n)

    def _close(
        self,
        keys: Sequence[int],
        start: int,
        end: int,
        slope_lo: float,
        slope_hi: float,
    ) -> Segment:
        if slope_lo == float("-inf"):
            slope = 0.0  # single-point segment
        else:
            slope = (slope_lo + slope_hi) / 2.0
        first = int(keys[start])
        model = LinearModel(slope, 0.0, first)
        return Segment(first, start, keys[start:end], model)

    def __repr__(self) -> str:
        return f"GreedyPLAApproximator(eps={self.eps})"
