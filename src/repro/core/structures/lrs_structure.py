"""Linear Recursive Structure (PGM-Index's internal layers).

Opt-PLA is applied recursively: the fence keys are approximated with
error-bounded segments, those segments' first keys form the next level,
and so on until a single segment remains.  Every level costs one model
evaluation plus a search bounded by eps — "the target position is obtained
by calculation" rather than comparison, which is why LRS beats BTREE once
there are many leaves (§IV-B).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import Approximation
from repro.core.approximation.optpla import OptPLAApproximator
from repro.core.search import (
    accumulate_replay_charges,
    exp_border_charges,
    exp_replay_charges,
    exponential_search,
)
from repro.core.structures.base import InternalStructure
from repro.errors import EmptyIndexError, InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.perf.events import Event

#: Bytes per PGM segment: first key + slope + intercept.
_SEGMENT_BYTES = 24


class LRSStructure(InternalStructure):
    """Recursive error-bounded PLA layers over the fence keys."""

    name = "LRS"

    def __init__(self, eps: int = 4, perf: Optional[PerfContext] = None):
        super().__init__(perf)
        if eps < 1:
            raise InvalidConfigurationError(f"eps must be >= 1, got {eps}")
        self.eps = eps
        self._levels: List[Approximation] = []
        self._level_keys: List[Sequence[int]] = []

    def build(self, fences: Sequence[int]) -> None:
        if not fences:
            raise EmptyIndexError("cannot build over zero fences")
        self.fences = fences
        approximator = OptPLAApproximator(eps=self.eps)
        self._levels = []
        self._level_keys = []
        keys: Sequence[int] = fences
        while True:
            approx = approximator.fit(keys)
            self._levels.append(approx)
            self._level_keys.append(keys)
            if approx.leaf_count == 1:
                break
            keys = approx.fences
        # Levels are stored bottom-up; lookups walk them top-down.
        self._levels.reverse()
        self._level_keys.reverse()
        self._level_keys_np = None

    def lookup(self, key: int) -> int:
        if not self._levels:
            raise EmptyIndexError("structure not built")
        charge = self.perf.charge
        seg_idx = 0
        for depth, approx in enumerate(self._levels):
            level_keys = self._level_keys[depth]
            seg = approx.segments[seg_idx]
            charge(Event.DRAM_HOP)
            charge(Event.MODEL_EVAL)
            guess = seg.start + seg.predict(key)
            pos = exponential_search(level_keys, key, guess, self.perf)
            if depth == len(self._levels) - 1:
                return pos
            # ``pos`` indexes this level's keys == next level's segments.
            seg_idx = pos
        return seg_idx

    def _level_arrays(self):
        """Exact-uint64 copies of every level's keys, or ``None``."""
        cached = getattr(self, "_level_keys_np", None)
        if cached is not None and cached[0] is self._levels:
            return cached[1]
        arrays = []
        for level_keys in self._level_keys:
            arr = _vec.as_u64(level_keys)
            if arr is None:
                self._level_keys_np = (self._levels, None)
                return None
            arrays.append(arr)
        self._level_keys_np = (self._levels, arrays)
        return arrays

    def lookup_many_exact(self, keys: Sequence[int], qs=None):
        """Batch :meth:`lookup` with the scalar ledger replayed exactly.

        Fully vectorized descent: per level, one ``searchsorted`` yields
        every query's true rank (which is also the routing result —
        rightmost fence <= key, clamped to 0) and
        :func:`repro.core.approximation.vectorized.segment_guesses`
        reproduces every ``seg.start + seg.predict(key)`` in one pass.
        The per-probe ledgers come from the memoized interior-trajectory
        charges (:func:`exp_replay_charges`) with the rare border
        queries replayed individually, so the aggregate charge issued at
        the end is bit-identical to running :meth:`lookup` per key —
        unlike the coarse-billed :meth:`lookup_many`.  Returns the
        segment indices as an int64 ndarray, or ``None`` (charging
        nothing) when the levels or queries cannot be vectorized
        exactly.
        """
        if not self._levels:
            raise EmptyIndexError("structure not built")
        arrays = self._level_arrays()
        if arrays is None:
            return None
        if qs is None:
            qs = _vec.as_u64(keys)
            if qs is None:
                return None
        params = [level.param_arrays() for level in self._levels]
        if any(p is None for p in params):
            return None
        if qs.size and int(qs.max()) >= 2**63:
            return None  # int64 key deltas would overflow
        np = _vec.np
        qs_i = qs.astype(np.int64)
        compare = hop = seq = 0
        seg_idx = np.zeros(qs.size, dtype=np.int64)
        for depth, level_arr in enumerate(arrays):
            astar = (
                np.searchsorted(level_arr, qs, side="right").astype(np.int64)
                - 1
            )
            guess = _vec.segment_guesses(params[depth], seg_idx, qs_i)
            n_level = int(level_arr.size)
            c, h, s = accumulate_replay_charges(
                astar - guess,
                guess,
                astar,
                0,
                n_level - 1,
                exp_replay_charges,
                lambda g, a, n=n_level: exp_border_charges(n, g, a),
            )
            compare += c
            hop += h
            seq += s
            seg_idx = np.maximum(astar, 0)
        n = qs.size
        charge = self.perf.charge
        charge(Event.DRAM_HOP, n * len(self._levels) + hop)
        charge(Event.MODEL_EVAL, n * len(self._levels))
        charge(Event.COMPARE, compare)
        charge(Event.DRAM_SEQ, seq)
        return seg_idx

    def avg_depth(self) -> float:
        return float(len(self._levels))

    def max_depth(self) -> int:
        return len(self._levels)

    def size_bytes(self) -> int:
        return sum(level.leaf_count for level in self._levels) * _SEGMENT_BYTES

    @property
    def height(self) -> int:
        return len(self._levels)
