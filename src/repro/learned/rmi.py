"""Recursive Model Index (RMI) — the original read-only learned index.

A two-stage model tree built top-down over the sorted key array itself
(:class:`RMIStructure` with the keys as its fences): the root model routes
a key to one of ``branching`` second-stage models, and the chosen model
predicts the key's position.  Errors are *measured* after building (RMI
stores min/max error bounds per model) but are not bounded by
construction — which is why the paper finds RMI's tail latency "much
larger than PGM-Index" despite good average throughput.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.interfaces import Capabilities, IndexStats, Key, Value
from repro.core.structures.rmi_structure import RMIStructure
from repro.learned.static_array import StaticArrayIndex
from repro.perf.context import PerfContext
from repro.perf.events import Event

#: Build passes over the data: stage-1 fit, stage-1 routing, stage-2 fits.
_BUILD_PASSES = 3


class RMIIndex(StaticArrayIndex):
    """Static two-stage RMI over a sorted key/value array."""

    name = "RMI"

    def __init__(
        self, branching: Optional[int] = None, perf: Optional[PerfContext] = None
    ):
        super().__init__(perf)
        self.branching = branching
        self._structure: Optional[RMIStructure] = None
        self._errors: List[int] = []

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        n = self._load(items)
        if n == 0:
            self._structure = None
            self._errors = []
            return
        branches = min(self.branching or max(16, n // 32), n)
        self.perf.charge(Event.RETRAIN_KEY, n * _BUILD_PASSES)
        self.perf.charge(Event.ALLOC, branches + 1)
        rmi = RMIStructure(branches, perf=self.perf)
        rmi.build(self._keys)
        self._structure = rmi
        # Each model's worst error over the keys the root routes to it.
        root, models = rmi.root, rmi.models
        errors = [0] * branches
        for pos, key in enumerate(self._keys):
            b = root.predict_clamped(key, branches)
            err = abs(models[b].predict_clamped(key, n) - pos)
            if err > errors[b]:
                errors[b] = err
        self._errors = errors

    def _guess(self, key: Key) -> int:
        # The first touch of the key array (charged by ``_rank``) is a
        # third cache miss on top of the two model levels: Table II's
        # depth accounting.
        return self._structure.predict(key)

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        if self._structure is None:
            return 0
        return self._structure.size_bytes() + len(self._errors) * 4

    def stats(self) -> IndexStats:
        errors = self._errors
        if not errors:
            return IndexStats()
        return IndexStats(
            depth_avg=2.0,
            depth_max=2,
            leaf_count=len(errors),
            avg_error=sum(errors) / len(errors),
            max_error=max(errors),
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
