"""Shared numpy helpers for the approximation algorithms.

Every helper here mirrors a point-by-point loop *operation for
operation*: the same IEEE-754 double arithmetic in the same order, the
same round-half-even integer rounding, the same clamping.  That is what
lets the fits guarantee **bit-identical segment boundaries** against the
reference loops (pinned by ``tests/test_batch_api.py``).  Two of those
loops still run in production: :func:`repro.core.approximation.lsa.
fit_least_squares` and LSA-gap's point-by-point placement.  The greedy
PLA loop and the list-backed gapped leaf survive only as test oracles
under ``tests/oracles/``.

Inputs numpy cannot hold exactly (floats, negatives, keys past 2^64)
convert to ``None``: LSA and LSA-gap then run their loops, while
Greedy-PLA raises ``InvalidKeysError``.  An index never hands them such
keys: its writes refuse them first (``check_uint64``), and a batch that
converts is itself the proof that every key is uint64.
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
    # One C-level pass collects the element types.
    if not set(map(type, keys)) <= {int}:
        return None
    try:
        return np.fromiter(keys, dtype=np.uint64, count=len(keys))
    except (OverflowError, TypeError, ValueError):
        return None


def validate_fit_keys(keys: Sequence[int], algo: str):
    """Reject NaN or non-strictly-ascending fit input with a clear error.

    Returns the exact ``uint64`` array when one could be built (so callers
    can fit on it) or ``None`` otherwise.
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
    # Mixed/float/object input.
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


def model_positions(slope, intercept, base_key, keys_u64, n):
    """:meth:`LinearModel.predict_clamped` over a uint64 array, exact for
    every key; the parameters are scalars or arrays parallel to the keys.

    The key delta is exact in uint64 on either side of the base and
    converts to float64 as Python's int does; ``np.rint`` is builtin
    ``round``'s half-even, and ``fmax``/``fmin`` clamp a NaN or infinite
    prediction as the scalar does.
    """
    base = np.asarray(base_key, dtype=np.uint64)
    pos = (keys_u64 - base).astype(np.float64)
    below = keys_u64 < base
    if below.any():
        under = base if base.ndim == 0 else base[below]
        pos[below] = -(under - keys_u64[below]).astype(np.float64)
    pos *= slope
    pos += intercept
    np.rint(pos, out=pos)
    np.fmax(pos, 0.0, out=pos)
    np.fmin(pos, n - 1, out=pos)
    return pos.astype(np.int64)


def predict_clamped_many(model, keys_u64, n: int):
    """:func:`model_positions` of one model over sorted keys, or ``None``
    when a key lies below the model's base (the gapped placements then
    run their point-by-point loops)."""
    if keys_u64.size and int(keys_u64[0]) < model.base_key:
        return None
    return model_positions(
        model.slope, model.intercept, model.base_key, keys_u64, n
    )


def segment_guesses(params, seg_idx, keys_u64):
    """``seg.start + seg.predict(q)`` over parallel (query, segment) arrays.

    ``params`` is ``Approximation.param_arrays()``; ``seg_idx`` selects
    one segment per query, and :func:`model_positions` evaluates each
    query under its segment's model with the per-segment ``[0, n - 1]``
    clamp.
    """
    slope, intercept, base_key, seg_n, seg_start = params
    return seg_start[seg_idx] + model_positions(
        slope[seg_idx], intercept[seg_idx], base_key[seg_idx], keys_u64,
        seg_n[seg_idx],
    )


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
