"""Shared types for approximation-CDF algorithms.

A :class:`Segment` models the *local* CDF of a contiguous key run: it maps a
key to a predicted offset inside the segment.  Working in local coordinates
(key relative to the segment's first key, position relative to the segment's
start) keeps double-precision arithmetic exact enough for 64-bit keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence

import repro.core.approximation.vectorized as _vec


@dataclass(frozen=True)
class LinearModel:
    """``position = slope * (key - base_key) + intercept``."""

    slope: float
    intercept: float
    base_key: int = 0

    def predict(self, key: int) -> float:
        return self.slope * (key - self.base_key) + self.intercept

    def predict_clamped(self, key: int, n: int) -> int:
        """Predicted integer position clamped into ``[0, n - 1]``.

        A NaN or infinite key predicts NaN or an infinity, which no
        integer equals; it clamps by sign, and the search that follows
        finds no stored key equal to it.
        """
        predicted = self.predict(key)
        try:
            pos = int(round(predicted))
        except (ValueError, OverflowError):
            return n - 1 if predicted > 0 else 0
        if pos < 0:
            return 0
        if pos >= n:
            return n - 1
        return pos


class Segment:
    """One piecewise-linear segment covering ``keys[start : start + n]``.

    ``max_error`` / ``avg_error`` are *measured* on the build keys, so
    error-bounded algorithms can be verified and unbounded ones (LSA)
    report what they actually achieved.
    """

    __slots__ = ("first_key", "start", "n", "model", "max_error", "avg_error")

    def __init__(
        self,
        first_key: int,
        start: int,
        keys: Sequence[int],
        model: LinearModel,
    ):
        self.first_key = first_key
        self.start = start
        self.n = len(keys)
        self.model = model
        measured = None
        if self.n >= _vec.MIN_VECTOR_KEYS or not isinstance(keys, list):
            arr = _vec.as_u64(keys)
            if arr is not None:
                measured = _vec.measure_errors(model, arr, self.n)
        if measured is None:
            max_err = 0
            sum_err = 0
            for local_pos, key in enumerate(keys):
                err = abs(model.predict_clamped(key, self.n) - local_pos)
                sum_err += err
                if err > max_err:
                    max_err = err
            measured = (max_err, sum_err)
        self.max_error = measured[0]
        self.avg_error = measured[1] / self.n if self.n else 0.0

    def predict(self, key: int) -> int:
        """Predicted local offset of ``key`` within this segment."""
        return self.model.predict_clamped(key, self.n)

    def search_window(self, key: int) -> tuple:
        """``(lo, hi)`` local bounds that are guaranteed to contain ``key``."""
        pos = self.predict(key)
        lo = max(0, pos - self.max_error)
        hi = min(self.n - 1, pos + self.max_error)
        return lo, hi

    def __repr__(self) -> str:
        return (
            f"Segment(first_key={self.first_key}, n={self.n}, "
            f"max_error={self.max_error}, avg_error={self.avg_error:.2f})"
        )


class Approximation:
    """Result of approximating one sorted key array: a list of segments."""

    def __init__(self, segments: List[Segment], n_keys: int):
        if not segments:
            raise ValueError("an approximation needs at least one segment")
        self.segments = segments
        self.n_keys = n_keys
        self.fences = [s.first_key for s in segments]

    @property
    def leaf_count(self) -> int:
        return len(self.segments)

    @property
    def avg_error(self) -> float:
        total = sum(s.avg_error * s.n for s in self.segments)
        return total / self.n_keys if self.n_keys else 0.0

    @property
    def max_error(self) -> int:
        return max(s.max_error for s in self.segments)

    def param_arrays(self):
        """Per-segment model parameters as parallel numpy arrays.

        ``(slope, intercept, base_key, n, start)`` — what a batch path
        needs to evaluate ``seg.start + seg.predict(key)`` for many
        (query, segment) pairs in one vectorized pass
        (:func:`repro.core.approximation.vectorized.segment_guesses`).
        Cached on the instance (segments never change after fit); the
        base keys are uint64, like every index key.
        """
        cached = getattr(self, "_param_arrays", None)
        if cached is None:
            np = _vec.np
            segs = self.segments
            cached = self._param_arrays = (
                np.array([s.model.slope for s in segs], dtype=np.float64),
                np.array([s.model.intercept for s in segs], dtype=np.float64),
                np.array([s.model.base_key for s in segs], dtype=np.uint64),
                np.array([s.n for s in segs], dtype=np.int64),
                np.array([s.start for s in segs], dtype=np.int64),
            )
        return cached

    def segment_for(self, key: int) -> Segment:
        """The segment whose key range covers ``key``."""
        idx = bisect_right(self.fences, key) - 1
        if idx < 0:
            idx = 0
        return self.segments[idx]

    def __repr__(self) -> str:
        return (
            f"Approximation(leaves={self.leaf_count}, "
            f"avg_error={self.avg_error:.2f}, max_error={self.max_error})"
        )


class Approximator(ABC):
    """An approximation-CDF algorithm: sorted keys -> :class:`Approximation`."""

    #: Short name used in benchmark tables ("LSA", "Opt-PLA", "LSA-gap", ...).
    name: str = "approximator"

    #: Whether the algorithm guarantees a maximum prediction error.
    bounded_error: bool = False

    @abstractmethod
    def fit(self, keys: Sequence[int]) -> Approximation:
        """Approximate the CDF of strictly-ascending ``keys``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
