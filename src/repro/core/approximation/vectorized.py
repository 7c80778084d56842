"""Shared numpy fast-path helpers for the approximation algorithms.

Every vectorized path here mirrors a scalar loop elsewhere in this
package *operation for operation*: the same IEEE-754 double arithmetic in
the same order, the same round-half-even integer rounding, the same
clamping.  That is what lets the fits guarantee **bit-identical segment
boundaries** between the scalar and vectorized implementations (pinned by
``tests/test_batch_api.py``).

Inputs numpy cannot hold exactly (floats, negatives, keys past 2^64)
degrade to ``None``, and the approximators fall back to their
pure-Python loops.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidKeysError

#: Below this many keys the numpy conversion overhead outweighs the win.
MIN_VECTOR_KEYS = 64


def as_u64(keys: Sequence[int]):
    """``keys`` as an exact ``uint64`` ndarray, or ``None`` if impossible.

    Exactness is the point: converting a Python list through a float dtype
    (numpy's default for mixed-magnitude ints) silently collapses adjacent
    64-bit keys, so only unsigned/non-negative integer inputs qualify.
    """
    if isinstance(keys, np.ndarray):
        kind = keys.dtype.kind
        if kind == "u":
            return keys.astype(np.uint64, copy=False)
        if kind == "i":
            if keys.size and int(keys.min()) < 0:
                return None
            return keys.astype(np.uint64)
        return None
    # A list/tuple: only take the fast path when every element is a true
    # Python int (bool excluded); floats must keep the scalar semantics.
    if not all(type(k) is int for k in keys):
        return None
    try:
        return np.array(keys, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        return None


def validate_fit_keys(keys: Sequence[int], algo: str):
    """Reject NaN or non-strictly-ascending fit input with a clear error.

    Returns the exact ``uint64`` array when one could be built (so callers
    can reuse it for their vectorized path) or ``None`` otherwise.
    Raises :class:`~repro.errors.InvalidKeysError` — a ``ReproError`` —
    instead of letting the segmentation loops silently produce broken
    segments (division by a zero/negative key delta).
    """
    arr = as_u64(keys)
    if arr is not None:
        if arr.size > 1 and not bool((arr[1:] > arr[:-1]).all()):
            raise InvalidKeysError(
                f"{algo}: fit keys must be strictly ascending and unique"
            )
        return arr
    # Scalar path: mixed/float/object input.
    prev = None
    for k in keys:
        if k != k:  # NaN is the only value unequal to itself
            raise InvalidKeysError(f"{algo}: fit keys contain NaN")
        if prev is not None and not (k > prev):
            raise InvalidKeysError(
                f"{algo}: fit keys must be strictly ascending and unique"
            )
        prev = k
    return None


def predict_clamped_many(model, keys_u64, n: int):
    """Vectorized :meth:`LinearModel.predict_clamped` over a uint64 array.

    Replicates ``int(round(slope * (key - base_key) + intercept))`` clamped
    to ``[0, n - 1]``: uint64 subtraction is exact, the float64 conversion
    and arithmetic match Python's scalar promotion, and ``np.rint`` is the
    same round-half-even as builtin ``round``.  Returns ``None`` when the
    computation cannot be reproduced exactly (key below the model base, or
    a non-finite prediction).
    """
    if keys_u64.size and int(keys_u64[0]) < model.base_key:
        return None  # uint64 subtraction would wrap
    lx = (keys_u64 - np.uint64(model.base_key)).astype(np.float64)
    pos = model.slope * lx + model.intercept
    if not np.isfinite(pos).all():
        return None
    pred = np.rint(pos)
    np.clip(pred, 0.0, float(n - 1), out=pred)
    return pred.astype(np.int64)


def segment_guesses(params, seg_idx, qs_i64):
    """``seg.start + seg.predict(q)`` over parallel (query, segment) arrays.

    ``params`` is ``Approximation.param_arrays()``; ``seg_idx`` selects
    one segment per query.  Mirrors ``LinearModel.predict_clamped``
    element for element: the int64 key delta is exact (|delta| < 2^63),
    float64 arithmetic matches Python's scalar promotion, ``np.rint`` is
    the same round-half-even as builtin ``round``, and the clamp is the
    per-segment ``[0, n - 1]``.
    """
    slope, intercept, base_key, seg_n, seg_start = params
    pred = np.rint(
        slope[seg_idx] * (qs_i64 - base_key[seg_idx]).astype(np.float64)
        + intercept[seg_idx]
    ).astype(np.int64)
    np.clip(pred, 0, seg_n[seg_idx] - 1, out=pred)
    return seg_start[seg_idx] + pred


def measure_errors(model, keys_u64, n: int) -> Optional[Tuple[int, int]]:
    """``(max_error, sum_error)`` of ``model`` over its own segment keys.

    The vectorized twin of the measurement loop in ``Segment.__init__``;
    bit-identical because every intermediate matches the scalar code.
    """
    pred = predict_clamped_many(model, keys_u64, n)
    if pred is None:
        return None
    err = np.abs(pred - np.arange(n, dtype=np.int64))
    return int(err.max()), int(err.sum())


def fit_least_squares_np(keys_u64, base_key: int) -> Tuple[float, float]:
    """Closed-form simple linear regression, numpy edition.

    Same normal equations as :func:`repro.core.approximation.lsa.
    fit_least_squares`; the sums use numpy's pairwise summation, so the
    slope/intercept can differ from the scalar loop in the last ulp (the
    fixed-size chunking means segment boundaries are unaffected).
    """
    n = int(keys_u64.size)
    if n == 1:
        return 0.0, 0.0
    x = (keys_u64 - np.uint64(base_key)).astype(np.float64)
    y = np.arange(n, dtype=np.float64)
    sum_x = float(x.sum())
    sum_xx = float((x * x).sum())
    sum_y = float(y.sum())
    sum_xy = float((x * y).sum())
    denom = n * sum_xx - sum_x * sum_x
    if denom == 0.0:
        return 0.0, (n - 1) / 2.0
    slope = (n * sum_xy - sum_x * sum_y) / denom
    intercept = (sum_y - slope * sum_x) / n
    return slope, intercept
