"""Least squares + gapped placement (ALEX's LSA-gap algorithm).

The defining trick (§II-B3, §IV-A): after fitting a least-squares model,
the key array is *expanded with gaps* and every key is re-placed at the
slot the (rescaled) model predicts for it.  This actively changes the
stored data's CDF to match the model, so the prediction error collapses to
collision-induced shifts — LSA-gap achieves both a small error and few
segments simultaneously, which passive approximators cannot.

Placement runs in one numpy pass for runs of at least 64 exact ``uint64``
keys, including runs whose last keys land past the slot array, which
grow it as the point-by-point loop does; shorter runs and keys uint64
cannot hold are placed point by point.  Both give the same layout,
slot count and errors wherever both apply (checked by
``tests/test_batch_api.py``).  Either way the segment keeps each key's
slot as one ``int64`` array beside the keys' ``uint64`` array, which is
all a gapped leaf needs to build its slot storage; the per-slot key list
is built only when something reads ``slot_keys``.  A key array passed in
is used as it is, so a retrain can refit a leaf straight from the leaf's
own arrays.
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


def _as_ints(keys: Sequence[int]) -> Sequence[int]:
    """``keys`` for the point-by-point code, which must see Python ints:
    numpy scalar arithmetic differs (``np.uint64`` minus an int wraps)."""
    return keys.tolist() if isinstance(keys, _vec.np.ndarray) else keys


class GappedSegment(Segment):
    """A segment whose keys live in a gapped slot array.

    ``slot_pos[i]`` is the slot of the ``i``-th key and ``keys_u64`` the
    keys as an exact ``uint64`` array (``None`` when uint64 cannot hold
    them).  Prediction error is measured in *slot* space: the distance
    between the model's predicted slot and the slot the key actually
    occupies.
    """

    __slots__ = ("slots", "occupied", "slot_pos", "keys_u64", "_keys")

    def __init__(
        self,
        first_key: int,
        start: int,
        keys: Sequence[int],
        density: float,
    ):
        np = _vec.np
        n = len(keys)
        slots = max(n, math.ceil(n / density))
        base = int(keys[0])
        arr = _vec.as_u64(keys)
        vector = arr is not None and n >= _vec.MIN_VECTOR_KEYS
        if vector:
            slope, intercept = _vec.fit_least_squares_np(arr, base)
        else:
            slope, intercept = fit_least_squares(_as_ints(keys), base)
        scale = slots / n
        model = LinearModel(slope * scale, intercept * scale, base)

        placed = self._place_np(arr, model, slots) if vector else None
        if placed is None:
            pos, slots, max_err, sum_err = self._place_scalar(
                _as_ints(keys), model, slots
            )
            slot_pos = np.array(pos, dtype=np.int64)
        else:
            slot_pos, slots, max_err, sum_err = placed

        self.first_key = first_key
        self.start = start
        self.n = n
        self.model = model
        self.max_error = max_err
        self.avg_error = sum_err / n if n else 0.0
        self.slots = slots
        self.occupied = n
        self.slot_pos = slot_pos
        self.keys_u64 = arr
        self._keys = keys

    @property
    def slot_keys(self) -> List[Optional[int]]:
        """The slot array as key-or-``None`` per slot, built on each read
        (the list-backed test oracle reads it; the numpy leaf does not)."""
        out: List[Optional[int]] = [None] * self.slots
        for s, k in zip(self.slot_pos.tolist(), _as_ints(self._keys)):
            out[s] = k
        return out

    @staticmethod
    def _place_scalar(keys: Sequence[int], model: LinearModel, slots: int):
        """Point-by-point placement: ``(slot_pos, slots, max_err,
        sum_err)`` with ``slot_pos`` listing each key's slot; a slot at or
        past the end grows the array (and the model clamp)."""
        slot_pos: List[int] = []
        max_err = 0
        sum_err = 0
        last = -1
        for key in keys:
            predicted = model.predict_clamped(key, slots)
            slot = predicted if predicted > last else last + 1
            if slot >= slots:
                slots = slot + 1
            slot_pos.append(slot)
            last = slot
            err = abs(slot - predicted)
            sum_err += err
            if err > max_err:
                max_err = err
        return slot_pos, slots, max_err, sum_err

    @staticmethod
    def _place_np(arr, model: LinearModel, slots: int):
        """``_place_scalar``'s tuple with ``slot_pos`` as an ``int64``
        array, or ``None`` when the predictions cannot be reproduced
        exactly.

        The recurrence ``slot_i = max(pred_i, slot_{i-1} + 1)`` unrolls to
        ``slot_i = i + cummax(pred_i - i)`` — exact in integer space.  Once
        a key lands on slot ``slots``, the point-by-point loop grows the
        array by one slot per key and clamps each later prediction to its
        predecessor's slot, so every later key packs right after its
        predecessor, as the cummax already has it.  Only those keys'
        errors see the wider clamp, and they are measured with it.
        """
        np = _vec.np
        pred = _vec.predict_clamped_many(model, arr, slots)
        if pred is None:
            return None
        idx = np.arange(arr.size, dtype=np.int64)
        slot = idx + np.maximum.accumulate(pred - idx)
        end = int(slot[-1]) + 1
        if end > slots:
            wide = _vec.predict_clamped_many(model, arr, end)
            prev = np.concatenate(([-1], slot[:-1]))
            pred = np.minimum(wide, np.maximum(prev, slots - 1))
            slots = end
        err = slot - pred  # placement only ever pushes keys rightward
        return slot, slots, int(err.max()), int(err.sum())

    def predict(self, key: int) -> int:
        return self.model.predict_clamped(key, self.slots)

    def search_window(self, key: int) -> tuple:
        pos = self.predict(key)
        lo = max(0, pos - self.max_error)
        hi = min(self.slots - 1, pos + self.max_error)
        return lo, hi

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

    def fit(self, keys: Sequence[int]) -> Approximation:
        if not len(keys):
            raise InvalidConfigurationError("cannot approximate an empty key set")
        segments: List[Segment] = []
        for start in range(0, len(keys), self.segment_size):
            chunk = keys[start : start + self.segment_size]
            segments.append(
                GappedSegment(int(chunk[0]), start, chunk, self.density)
            )
        return Approximation(segments, len(keys))

    def __repr__(self) -> str:
        return (
            f"LSAGapApproximator(segment_size={self.segment_size}, "
            f"density={self.density})"
        )
