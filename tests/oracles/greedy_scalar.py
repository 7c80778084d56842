"""Point-by-point greedy PLA: the loop ``GreedyPLAApproximator`` vectorizes."""

from typing import List, Sequence

from repro.core.approximation import GreedyPLAApproximator
from repro.core.approximation.base import Approximation, Segment


def greedy_fit_scalar(keys: Sequence[int], eps: int) -> Approximation:
    """Shrink the feasible slope window one key at a time (Liu et al.'s
    FSW); when it empties, close the segment and anchor a new one."""
    close = GreedyPLAApproximator(eps=eps)._close
    segments: List[Segment] = []
    n = len(keys)
    start = 0
    slope_lo = float("-inf")
    slope_hi = float("inf")
    for i in range(1, n):
        dx = float(keys[i] - keys[start])
        dy = float(i - start)
        lo = (dy - eps) / dx
        hi = (dy + eps) / dx
        new_lo = max(slope_lo, lo)
        new_hi = min(slope_hi, hi)
        if new_lo > new_hi:
            segments.append(close(keys, start, i, slope_lo, slope_hi))
            start = i
            slope_lo = float("-inf")
            slope_hi = float("inf")
        else:
            slope_lo, slope_hi = new_lo, new_hi
    segments.append(close(keys, start, n, slope_lo, slope_hi))
    return Approximation(segments, n)
