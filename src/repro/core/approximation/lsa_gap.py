"""Least squares + gapped placement (ALEX's LSA-gap algorithm).

The defining trick (§II-B3, §IV-A): after fitting a least-squares model,
the key array is *expanded with gaps* and every key is re-placed at the
slot the (rescaled) model predicts for it.  This actively changes the
stored data's CDF to match the model, so the prediction error collapses to
collision-induced shifts — LSA-gap achieves both a small error and few
segments simultaneously, which passive approximators cannot.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import (
    Approximation,
    Approximator,
    LinearModel,
    Segment,
)
from repro.core.approximation.lsa import fit_least_squares
from repro.errors import InvalidConfigurationError


class GappedSegment(Segment):
    """A segment whose keys live in a gapped slot array.

    ``slot_keys[i]`` is the key in slot ``i`` or ``None`` for a gap.
    Prediction error is measured in *slot* space: the distance between the
    model's predicted slot and the slot the key actually occupies.
    """

    __slots__ = ("slots", "slot_keys", "occupied", "slot_pos", "keys_u64")

    def __init__(
        self,
        first_key: int,
        start: int,
        keys: Sequence[int],
        density: float,
        vectorized: bool = True,
    ):
        n = len(keys)
        slots = max(n, math.ceil(n / density))
        base = int(keys[0])
        arr = (
            _vec.as_u64(keys)
            if vectorized and n >= _vec.MIN_VECTOR_KEYS
            else None
        )
        if arr is not None:
            slope, intercept = _vec.fit_least_squares_np(arr, base)
        else:
            slope, intercept = fit_least_squares(keys, base)
        scale = slots / n
        model = LinearModel(slope * scale, intercept * scale, base)

        placed = self._place_np(arr, model, slots) if arr is not None else None
        if placed is None:
            slot_keys: List[Optional[int]] = [None] * slots
            max_err = 0
            sum_err = 0
            last = -1
            for key in keys:
                predicted = model.predict_clamped(key, slots)
                slot = predicted if predicted > last else last + 1
                if slot >= slots:
                    slot_keys.extend([None] * (slot - slots + 1))
                    slots = slot + 1
                slot_keys[slot] = key
                last = slot
                err = abs(slot - predicted)
                sum_err += err
                if err > max_err:
                    max_err = err
            slot_pos = keys_u64 = None
        else:
            slot_keys, slots, max_err, sum_err, slot_pos, keys_u64 = placed

        self.first_key = first_key
        self.start = start
        self.n = n
        self.model = model
        self.max_error = max_err
        self.avg_error = sum_err / n if n else 0.0
        self.slots = slots
        self.slot_keys = slot_keys
        self.occupied = n
        # Retained by the vectorized placement so GappedLeaf can build its
        # numpy slot storage by fancy indexing instead of re-scanning the
        # slot list; None when placement ran scalar.
        self.slot_pos = slot_pos
        self.keys_u64 = keys_u64

    @staticmethod
    def _place_np(arr, model, slots):
        """Vectorized model-guided placement; ``None`` -> scalar fallback.

        The scalar recurrence ``slot_i = max(pred_i, slot_{i-1} + 1)``
        unrolls to ``slot_i = i + cummax(pred_i - i)`` — exact in integer
        space.  The rare overflow case (a slot landing at/after the end,
        which the scalar loop handles by growing the array *and* widening
        the model clamp for later keys) is left to the scalar loop so the
        two paths never diverge.
        """
        np = _vec.np
        pred = _vec.predict_clamped_many(model, arr, slots)
        if pred is None:
            return None
        idx = np.arange(arr.size, dtype=np.int64)
        slot = idx + np.maximum.accumulate(pred - idx)
        if int(slot[-1]) >= slots:
            return None  # scalar loop would have extended the slot array
        err = slot - pred  # placement only ever pushes keys rightward
        slot_keys: List[Optional[int]] = [None] * slots
        for s, k in zip(slot.tolist(), arr.tolist()):
            slot_keys[s] = k
        return slot_keys, slots, int(err.max()), int(err.sum()), slot, arr

    def predict(self, key: int) -> int:
        return self.model.predict_clamped(key, self.slots)

    def search_window(self, key: int) -> tuple:
        pos = self.predict(key)
        lo = max(0, pos - self.max_error)
        hi = min(self.slots - 1, pos + self.max_error)
        return lo, hi

    def gap_fraction(self) -> float:
        return 1.0 - self.occupied / self.slots if self.slots else 0.0

    def __repr__(self) -> str:
        return (
            f"GappedSegment(first_key={self.first_key}, n={self.n}, "
            f"slots={self.slots}, max_error={self.max_error}, "
            f"avg_error={self.avg_error:.2f})"
        )


class LSAGapApproximator(Approximator):
    """Fixed-size segments, least-squares models, gapped key placement."""

    name = "LSA-gap"
    bounded_error = False

    def __init__(
        self,
        segment_size: int = 4096,
        density: float = 0.7,
        vectorized: bool = True,
    ):
        if segment_size < 1:
            raise InvalidConfigurationError(
                f"segment_size must be >= 1, got {segment_size}"
            )
        if not 0.0 < density <= 1.0:
            raise InvalidConfigurationError(
                f"density must be in (0, 1], got {density}"
            )
        self.segment_size = segment_size
        self.density = density
        self.vectorized = vectorized

    def fit(self, keys: Sequence[int]) -> Approximation:
        if not len(keys):
            raise InvalidConfigurationError("cannot approximate an empty key set")
        segments: List[Segment] = []
        for start in range(0, len(keys), self.segment_size):
            chunk = keys[start : start + self.segment_size]
            segments.append(
                GappedSegment(
                    int(chunk[0]),
                    start,
                    chunk,
                    self.density,
                    vectorized=self.vectorized,
                )
            )
        return Approximation(segments, len(keys))

    def __repr__(self) -> str:
        return (
            f"LSAGapApproximator(segment_size={self.segment_size}, "
            f"density={self.density})"
        )
