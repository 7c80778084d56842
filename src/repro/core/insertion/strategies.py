"""Insertion-strategy factories: how a segment becomes a leaf node.

These adapt the three leaf containers to the composer: given a key/value
run (and, when available, the approximator's fitted segment), produce the
leaf the strategy calls for.  When the segment's model does not speak the
container's language (e.g. a gapped slot model handed to a dense leaf, or
a retrain with no segment at all), the strategy refits a least-squares
model locally.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Tuple

from repro.core.approximation.base import LinearModel, Segment
from repro.core.approximation.lsa import fit_least_squares
from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.base import Leaf
from repro.core.insertion.buffered import BufferedLeaf
from repro.core.insertion.gapped import GappedLeaf
from repro.core.insertion.inplace import InplaceLeaf
from repro.errors import InvalidConfigurationError
from repro.perf.context import PerfContext


def fit_dense_model(keys: Sequence[int]) -> Tuple[LinearModel, int]:
    """LSA model over a dense sorted run + its measured max error."""
    slope, intercept = fit_least_squares(keys, keys[0])
    model = LinearModel(slope, intercept, keys[0])
    n = len(keys)
    max_err = 0
    for i, key in enumerate(keys):
        err = abs(model.predict_clamped(key, n) - i)
        if err > max_err:
            max_err = err
    return model, max_err


def _dense_model_from(
    segment: Optional[Segment], keys: Sequence[int]
) -> Tuple[LinearModel, int]:
    if segment is not None and not isinstance(segment, GappedSegment):
        return segment.model, segment.max_error
    return fit_dense_model(keys)


class InsertionStrategy(ABC):
    """Factory turning a (keys, values, segment) triple into a leaf."""

    name: str = "strategy"

    @abstractmethod
    def make_leaf(
        self,
        keys: Sequence[int],
        values: Sequence[Any],
        segment: Optional[Segment],
        perf: PerfContext,
    ) -> Leaf: ...

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InplaceStrategy(InsertionStrategy):
    """FITing-tree-inp: reserved slots at both ends of each leaf."""

    name = "inplace"

    def __init__(self, reserve: int = 128):
        if reserve < 1:
            raise InvalidConfigurationError(f"reserve must be >= 1, got {reserve}")
        self.reserve = reserve

    def make_leaf(self, keys, values, segment, perf) -> Leaf:
        model, max_error = _dense_model_from(segment, keys)
        return InplaceLeaf(keys, values, model, max_error, self.reserve, perf)


class BufferStrategy(InsertionStrategy):
    """FITing-tree-buf / XIndex: a per-leaf offsite sorted buffer."""

    name = "buffer"

    def __init__(self, buffer_capacity: int = 256):
        if buffer_capacity < 1:
            raise InvalidConfigurationError(
                f"buffer_capacity must be >= 1, got {buffer_capacity}"
            )
        self.buffer_capacity = buffer_capacity

    def make_leaf(self, keys, values, segment, perf) -> Leaf:
        model, max_error = _dense_model_from(segment, keys)
        return BufferedLeaf(
            keys, values, model, max_error, self.buffer_capacity, perf
        )


class GappedStrategy(InsertionStrategy):
    """ALEX-gap: model-addressed gapped arrays."""

    name = "gapped"

    def __init__(
        self,
        density: float = 0.7,
        upper_density: float = 0.8,
    ):
        if not 0.0 < density <= upper_density <= 1.0:
            raise InvalidConfigurationError(
                "need 0 < density <= upper_density <= 1, got "
                f"density={density}, upper_density={upper_density}"
            )
        self.density = density
        self.upper_density = upper_density

    def make_leaf(self, keys, values, segment, perf) -> Leaf:
        if isinstance(segment, GappedSegment) and segment.n == len(keys):
            gapped = segment
        else:
            gapped = GappedSegment(keys[0], 0, keys, self.density)
        return GappedLeaf(gapped, values, perf, self.upper_density)
