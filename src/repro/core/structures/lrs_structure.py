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
from repro.core.search import exponential_search, exponential_search_many
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
        self._level_arrays: list = []

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
        self._level_arrays = [_vec.as_u64(keys) for keys in self._level_keys]

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

    def _lookup_many(self, qs):
        """The descent level by level: one pass evaluates every query's
        segment model (:func:`~repro.core.approximation.vectorized.
        segment_guesses`) and one batch gallop finds its rank, billed as
        :meth:`lookup` bills each key."""
        if not self._levels:
            raise EmptyIndexError("structure not built")
        if any(arr is None for arr in self._level_arrays):
            return None
        charge = self.perf.charge
        seg_idx = _vec.np.zeros(qs.size, dtype=_vec.np.int64)
        for level, level_arr in zip(self._levels, self._level_arrays):
            charge(Event.DRAM_HOP, qs.size)
            charge(Event.MODEL_EVAL, qs.size)
            guess = _vec.segment_guesses(level.param_arrays(), seg_idx, qs)
            seg_idx = exponential_search_many(level_arr, qs, guess, self.perf)
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
