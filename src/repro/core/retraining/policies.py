"""Concrete retraining policies: retrain-one-node and expand-or-split."""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.insertion.base import Leaf
from repro.core.insertion.gapped import GappedLeaf
from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.retraining.base import RetrainPolicy
from repro.errors import InvalidConfigurationError
from repro.obs.trace import EventType
from repro.perf.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.composer import ComposedIndex


class SplitRetrainPolicy(RetrainPolicy):
    """Retrain one node (FITing-tree / XIndex style).

    The full leaf's live data (main run + buffer) is refit with the
    index's approximator; if the merged data no longer fits one segment
    within the approximator's tolerance, the leaf splits into several.
    ``max_leaf_keys`` additionally forces a split when a leaf outgrows the
    configured node capacity.
    """

    name = "retrain-one-node"

    def __init__(self, max_leaf_keys: int = 1 << 16):
        super().__init__()
        if max_leaf_keys < 2:
            raise InvalidConfigurationError("max_leaf_keys must be >= 2")
        self.max_leaf_keys = max_leaf_keys

    def retrain_leaf(self, index: "ComposedIndex", leaf_pos: int) -> List[Leaf]:
        leaf = index.leaves[leaf_pos]
        items = leaf.items()
        keys = [k for k, _ in items]
        values = [v for _, v in items]
        perf = index.perf
        perf.charge(Event.RETRAIN_KEY, len(keys))

        approx = index.approximator.fit(keys)
        if approx.leaf_count > 1:
            # The merged data no longer fits one segment within the
            # approximator's tolerance: the refit model is rejected and
            # the leaf splits along the new segment boundaries.
            perf.trace(
                EventType.FIT_REJECT,
                index=index.name,
                leaf=leaf_pos,
                key_lo=keys[0],
                key_hi=keys[-1],
                keys=len(keys),
                count=approx.leaf_count,
                reason="eps_overflow",
            )
        new_leaves: List[Leaf] = []
        for segment in approx.segments:
            seg_keys = keys[segment.start : segment.start + segment.n]
            seg_values = values[segment.start : segment.start + segment.n]
            # Enforce the node-capacity cap with an even split.
            if segment.n > self.max_leaf_keys:
                pieces = -(-segment.n // self.max_leaf_keys)
                step = -(-segment.n // pieces)
                for off in range(0, segment.n, step):
                    sub_keys = seg_keys[off : off + step]
                    sub_values = seg_values[off : off + step]
                    perf.charge(Event.ALLOC)
                    new_leaves.append(
                        index.insertion.make_leaf(sub_keys, sub_values, None, perf)
                    )
            else:
                perf.charge(Event.ALLOC)
                new_leaves.append(
                    index.insertion.make_leaf(seg_keys, seg_values, segment, perf)
                )
        return new_leaves


class ExpandOrSplitPolicy(RetrainPolicy):
    """ALEX's strategy: expand the gapped array if the model still fits,
    split into two data nodes otherwise (§II-B3).

    The decision mirrors ALEX's cost model in spirit: after refitting the
    merged keys, a low average slot error means the linear model still
    describes the data, so growing the array (same leaf, lower density)
    keeps queries fast; a high error means the CDF changed shape and the
    leaf must split.

    A retrain reads the leaf's live keys and values as arrays
    (``Leaf.live_arrays``) and builds every new segment and leaf from
    slices of them, so a node rebuild moves its keys and values with
    numpy gathers and scatters rather than one Python step per key.
    """

    name = "expand-or-split"

    def __init__(
        self,
        density: float = 0.6,
        split_error_threshold: float = 4.0,
        max_leaf_keys: int = 1 << 16,
    ):
        super().__init__()
        if not 0.0 < density <= 1.0:
            raise InvalidConfigurationError("density must be in (0, 1]")
        if split_error_threshold <= 0:
            raise InvalidConfigurationError("split_error_threshold must be > 0")
        if max_leaf_keys < 4:
            raise InvalidConfigurationError("max_leaf_keys must be >= 4")
        # ``density`` is the *lower* density bound: an expansion rebuilds
        # the gapped array at this density, so the headroom regained per
        # retrain is (upper_density - density) of the node — the reason
        # ALEX retrains rarely but each retrain is large (Fig 18b).
        self.density = density
        self.split_error_threshold = split_error_threshold
        self.max_leaf_keys = max_leaf_keys

    def retrain_leaf(self, index: "ComposedIndex", leaf_pos: int) -> List[Leaf]:
        leaf = index.leaves[leaf_pos]
        keys, values = leaf.live_arrays()
        perf = index.perf
        perf.charge(Event.RETRAIN_KEY, len(keys))
        # A retrain triggered by insert pressure (sustained key shifting)
        # rather than density is ALEX's "catastrophic cost" signal: the
        # node is too hot for its model, so it must shrink, not expand.
        pressure_split = (
            isinstance(leaf, GappedLeaf)
            and leaf._move_ema > GappedLeaf.MOVE_EMA_LIMIT
            and len(keys) >= 64
        )
        return self._expand_or_split(
            keys,
            values,
            perf,
            depth=0,
            force_split=pressure_split,
            index_name=index.name,
            leaf_pos=leaf_pos,
        )

    def _expand_or_split(
        self,
        keys,
        values,
        perf,
        depth: int,
        force_split: bool = False,
        index_name: str = "",
        leaf_pos: int = -1,
    ) -> List[Leaf]:
        """Expand if the refit model describes the data; otherwise split
        recursively until each piece's model does (ALEX converges the same
        way: nodes shrink where the CDF has curvature).  ``keys`` is a
        ``uint64`` array and ``values`` an object array of the same
        length; the halves are views of both."""
        first = int(keys[0])
        trial = GappedSegment(first, 0, keys, self.density)
        fits = (
            not force_split
            and trial.avg_error <= self.split_error_threshold
            and len(keys) <= self.max_leaf_keys
        )
        if fits or len(keys) < 4 or depth >= 12:
            perf.charge(Event.ALLOC)
            return [GappedLeaf(trial, values, perf)]
        perf.trace(
            EventType.FIT_REJECT,
            index=index_name,
            leaf=leaf_pos,
            key_lo=first,
            key_hi=int(keys[-1]),
            keys=len(keys),
            reason="pressure" if force_split else "error_above_threshold",
        )
        mid = len(keys) // 2
        return self._expand_or_split(
            keys[:mid], values[:mid], perf, depth + 1,
            index_name=index_name, leaf_pos=leaf_pos,
        ) + self._expand_or_split(
            keys[mid:], values[mid:], perf, depth + 1,
            index_name=index_name, leaf_pos=leaf_pos,
        )
