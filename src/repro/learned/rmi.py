"""Recursive Model Index (RMI) — the original read-only learned index.

A two-stage model tree built top-down: the root model routes a key to one
of ``branching`` second-stage models, and the chosen model predicts the
key's position in the sorted array.  Errors are *measured* after building
(RMI stores min/max error bounds per model) but are not bounded by
construction — which is why the paper finds RMI's tail latency "much
larger than PGM-Index" despite good average throughput.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.approximation.base import LinearModel
from repro.core.approximation.lsa import fit_least_squares
from repro.core.interfaces import (
    Capabilities,
    IndexStats,
    Key,
    SortedIndex,
    Value,
    check_sorted_unique,
)
from repro.core.search import rank_search
from repro.perf.context import PerfContext
from repro.perf.events import Event

_MODEL_BYTES = 24
#: Build passes over the data: stage-1 fit, stage-1 routing, stage-2 fits.
_BUILD_PASSES = 3


class RMIIndex(SortedIndex):
    """Static two-stage RMI over a sorted key/value array."""

    name = "RMI"

    def __init__(
        self, branching: Optional[int] = None, perf: Optional[PerfContext] = None
    ):
        super().__init__(perf)
        self.branching = branching
        self._keys: List[Key] = []
        self._values: List[Any] = []
        self._root: Optional[LinearModel] = None
        self._models: List[LinearModel] = []
        self._errors: List[int] = []

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._keys = [k for k, _ in items]
        self._values = [v for _, v in items]
        n = len(items)
        if n == 0:
            self._root = None
            self._models = []
            self._errors = []
            return
        branches = self.branching or max(16, n // 32)
        branches = min(branches, n)
        self.perf.charge(Event.RETRAIN_KEY, n * _BUILD_PASSES)
        self.perf.charge(Event.ALLOC, branches + 1)

        slope, intercept = fit_least_squares(self._keys, self._keys[0])
        scale = branches / n
        self._root = LinearModel(slope * scale, intercept * scale, self._keys[0])

        buckets: List[List[int]] = [[] for _ in range(branches)]
        for idx, key in enumerate(self._keys):
            buckets[self._root.predict_clamped(key, branches)].append(idx)

        self._models = []
        self._errors = []
        prev_pos = 0
        for bucket in buckets:
            if bucket:
                chunk = [self._keys[i] for i in bucket]
                s, i0 = fit_least_squares(chunk, chunk[0])
                model = LinearModel(s, i0 + bucket[0], chunk[0])
                worst = 0
                for pos in bucket:
                    err = abs(model.predict_clamped(self._keys[pos], n) - pos)
                    if err > worst:
                        worst = err
                prev_pos = bucket[0]
            else:
                model = LinearModel(0.0, prev_pos, 0)
                worst = 0
            self._models.append(model)
            self._errors.append(worst)

    # -- queries ----------------------------------------------------------

    def _predict(self, key: Key) -> int:
        charge = self.perf.charge
        charge(Event.DRAM_HOP)
        charge(Event.MODEL_EVAL)
        bucket = self._root.predict_clamped(key, len(self._models))
        charge(Event.DRAM_HOP)
        charge(Event.MODEL_EVAL)
        return self._models[bucket].predict_clamped(key, len(self._keys))

    def _rank(self, key: Key) -> int:
        guess = self._predict(key)
        # First touch of the sorted key array is a third cache miss, on
        # top of the two model levels (Table II's depth accounting).
        self.perf.charge(Event.DRAM_HOP)
        return rank_search(self._keys, 0, len(self._keys) - 1, key, guess, self.perf)

    def get(self, key: Key) -> Optional[Value]:
        if self._root is None:
            return None
        pos = self._rank(key)
        if pos >= 0 and self._keys[pos] == key:
            self.perf.charge(Event.DRAM_SEQ)
            return self._values[pos]
        return None

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if self._root is None:
            return
        pos = self._rank(lo)
        if pos < 0 or self._keys[pos] < lo:
            pos += 1
        while pos < len(self._keys) and self._keys[pos] <= hi:
            self.perf.charge(Event.DRAM_SEQ)
            yield self._keys[pos], self._values[pos]
            pos += 1

    def __len__(self) -> int:
        return len(self._keys)

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        return (1 + len(self._models)) * _MODEL_BYTES + len(self._errors) * 4

    def stats(self) -> IndexStats:
        if not self._models:
            return IndexStats()
        populated = [e for e in self._errors]
        return IndexStats(
            depth_avg=2.0,
            depth_max=2,
            leaf_count=len(self._models),
            avg_error=sum(populated) / len(populated),
            max_error=max(populated),
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=False,
            bounded_error=False,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="linear model",
            leaf_node="linear model",
            approximation="machine learning (LSA stages)",
            insertion="-",
            retraining="-",
        )
