"""Two-layer Recursive Model Index structure (RMI / XIndex root).

The root model selects a second-layer model; the second-layer model
predicts the leaf index; an exponential search corrects the prediction.
Built top-down, so the maximum routing error is *not* bounded — the cost
of a lookup depends on how well the models fit (the paper's explanation
for RMI's large tail latency).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import LinearModel
from repro.core.approximation.lsa import fit_least_squares
from repro.core.search import exponential_search, exponential_search_many
from repro.core.structures.base import InternalStructure
from repro.errors import EmptyIndexError, InvalidConfigurationError
from repro.perf.context import PerfContext
from repro.perf.events import Event

#: DRAM bytes per linear model: slope + intercept + base key.
_MODEL_BYTES = 24


class RMIStructure(InternalStructure):
    """Root linear model -> one of ``branching`` second-layer models."""

    name = "RMI"

    def __init__(
        self, branching: int = 1024, perf: Optional[PerfContext] = None
    ):
        super().__init__(perf)
        if branching < 1:
            raise InvalidConfigurationError(
                f"branching must be >= 1, got {branching}"
            )
        self.branching = branching
        #: The root model: key -> second-layer model number.
        self.root: Optional[LinearModel] = None
        #: The second-layer models: key -> fence index.
        self.models: List[LinearModel] = []

    def build(self, fences: Sequence[int]) -> None:
        if not fences:
            raise EmptyIndexError("cannot build over zero fences")
        self.fences = fences
        n = len(fences)
        branches = min(self.branching, n)

        # Root: map key -> second-layer bucket by rescaling an LSA fit of
        # key -> fence index.
        slope, intercept = fit_least_squares(fences, fences[0])
        scale = branches / n
        self.root = LinearModel(slope * scale, intercept * scale, fences[0])

        # Second layer: each bucket gets an LSA model over the fences the
        # *root* routes to it (top-down construction).
        buckets: List[List[int]] = [[] for _ in range(branches)]
        starts: List[int] = [0] * branches
        for idx, fence in enumerate(fences):
            b = self.root.predict_clamped(fence, branches)
            if not buckets[b]:
                starts[b] = idx
            buckets[b].append(fence)

        self.models = []
        prev_start = 0
        for b in range(branches):
            if buckets[b]:
                chunk = buckets[b]
                s, i = fit_least_squares(chunk, chunk[0])
                model = LinearModel(s, i + starts[b], chunk[0])
                prev_start = starts[b]
            else:
                # Empty bucket: fall back to a constant pointing at the
                # nearest populated range on the left.
                model = LinearModel(0.0, prev_start, 0)
            self.models.append(model)
        np = _vec.np
        self._model_arrays = (
            np.array([m.slope for m in self.models], dtype=np.float64),
            np.array([m.intercept for m in self.models], dtype=np.float64),
            np.array([m.base_key for m in self.models], dtype=np.uint64),
        )

    def predict(self, key: int) -> int:
        """The predicted fence index of ``key``: the root picks a
        second-layer model and that model predicts (one hop and one
        model evaluation per layer)."""
        charge = self.perf.charge
        charge(Event.DRAM_HOP)
        charge(Event.MODEL_EVAL)
        bucket = self.root.predict_clamped(key, len(self.models))
        charge(Event.DRAM_HOP)
        charge(Event.MODEL_EVAL)
        return self.models[bucket].predict_clamped(key, len(self.fences))

    def lookup(self, key: int) -> int:
        if self.root is None:
            raise EmptyIndexError("structure not built")
        return exponential_search(self.fences, key, self.predict(key), self.perf)

    def _lookup_many(self, qs):
        """Both model layers evaluated over the whole batch, billed as
        :meth:`predict` bills each key, then one batch gallop."""
        if self.root is None:
            raise EmptyIndexError("structure not built")
        fences = self._fence_array()
        if fences is None:
            return None
        charge = self.perf.charge
        charge(Event.DRAM_HOP, 2 * qs.size)
        charge(Event.MODEL_EVAL, 2 * qs.size)
        root = self.root
        bucket = _vec.model_positions(
            root.slope, root.intercept, root.base_key, qs, len(self.models)
        )
        slope, intercept, base_key = self._model_arrays
        guess = _vec.model_positions(
            slope[bucket], intercept[bucket], base_key[bucket], qs,
            len(fences),
        )
        return exponential_search_many(fences, qs, guess, self.perf)

    def avg_depth(self) -> float:
        return 2.0

    def max_depth(self) -> int:
        return 2

    def size_bytes(self) -> int:
        return (1 + len(self.models)) * _MODEL_BYTES
