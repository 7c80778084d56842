"""Asymmetric Tree Structure (ALEX's internal index).

Built top-down with a cost-model flavour: a node whose linear model
already routes its fences accurately becomes a terminal immediately, while
poorly-fitting regions split into model-partitioned children and grow
deeper.  Leaf depth therefore varies — "this structure does not need to go
through the longest internal path ... for every query" (§IV-B) — giving a
low *average* depth (cf. Table II's 1.03/1.89 for ALEX).
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

_MODEL_BYTES = 24
_POINTER_BYTES = 8
_MAX_DEPTH = 32


class _Node:
    """Inner node (``children`` set) or terminal node (``children=None``)."""

    __slots__ = ("model", "children", "lo", "hi")

    def __init__(self, model: LinearModel, lo: int, hi: int):
        self.model = model
        self.children: Optional[List["_Node"]] = None
        self.lo = lo  # covered fence range [lo, hi)
        self.hi = hi


class ATSStructure(InternalStructure):
    """Variable-depth model tree over fence keys."""

    name = "ATS"

    def __init__(
        self,
        max_node_fences: int = 64,
        max_fanout: int = 256,
        error_threshold: int = 8,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        if max_node_fences < 1:
            raise InvalidConfigurationError("max_node_fences must be >= 1")
        if max_fanout < 2:
            raise InvalidConfigurationError("max_fanout must be >= 2")
        self.max_node_fences = max_node_fences
        self.max_fanout = max_fanout
        self.error_threshold = error_threshold
        self._root: Optional[_Node] = None
        self._node_count = 0
        self._depth_weighted = 0.0
        self._depth_max = 0

    # -- construction ---------------------------------------------------

    def build(self, fences: Sequence[int]) -> None:
        if not fences:
            raise EmptyIndexError("cannot build over zero fences")
        self.fences = fences
        self._node_count = 0
        self._depth_weighted = 0.0
        self._depth_max = 0
        self._root = self._build_node(fences, 0, len(fences), 1)

    def _fit_global(self, fences: Sequence[int], lo: int, hi: int) -> LinearModel:
        """Model predicting the *global* fence index for keys in [lo, hi)."""
        chunk = fences[lo:hi]
        slope, intercept = fit_least_squares(chunk, chunk[0])
        return LinearModel(max(slope, 0.0), intercept + lo, chunk[0])

    def _max_error(
        self, model: LinearModel, fences: Sequence[int], lo: int, hi: int
    ) -> int:
        worst = 0
        total = len(fences)
        for idx in range(lo, hi):
            err = abs(model.predict_clamped(fences[idx], total) - idx)
            if err > worst:
                worst = err
        return worst

    def _make_terminal(self, model: LinearModel, lo: int, hi: int, depth: int) -> _Node:
        if depth > self._depth_max:
            self._depth_max = depth
        self._depth_weighted += depth * (hi - lo)
        return _Node(model, lo, hi)

    def _build_node(
        self, fences: Sequence[int], lo: int, hi: int, depth: int
    ) -> _Node:
        self._node_count += 1
        model = self._fit_global(fences, lo, hi)
        n = hi - lo
        if (
            n <= self.max_node_fences
            or depth >= _MAX_DEPTH
            or self._max_error(model, fences, lo, hi) <= self.error_threshold
        ):
            return self._make_terminal(model, lo, hi, depth)

        fanout = min(self.max_fanout, max(2, n // self.max_node_fences))
        scale = fanout / n
        child_model = LinearModel(
            model.slope * scale, (model.intercept - lo) * scale, model.base_key
        )

        # The model is monotone over sorted fences, so each child slot maps
        # to a contiguous run of fences; record the run boundaries.
        boundaries = [lo]
        current_slot = 0
        for idx in range(lo, hi):
            slot = child_model.predict_clamped(fences[idx], fanout)
            while current_slot < slot:
                boundaries.append(idx)
                current_slot += 1
        while len(boundaries) < fanout:
            boundaries.append(hi)
        boundaries.append(hi)
        runs = [(boundaries[c], boundaries[c + 1]) for c in range(fanout)]

        if sum(1 for a, b in runs if b > a) <= 1:
            # The model cannot discriminate children (pathological CDF);
            # stop splitting and let the terminal correction search pay.
            return self._make_terminal(model, lo, hi, depth)

        node = _Node(child_model, lo, hi)
        children: List[Optional[_Node]] = []
        prev: Optional[_Node] = None
        for a, b in runs:
            if b > a:
                prev = self._build_node(fences, a, b, depth + 1)
            children.append(prev)
        # Leading empty slots route to the first real child (queries there
        # are corrected by the terminal search anyway).
        first_real = next(c for c in children if c is not None)
        node.children = [c if c is not None else first_real for c in children]
        return node

    # -- queries ----------------------------------------------------------

    def lookup(self, key: int) -> int:
        if self._root is None:
            raise EmptyIndexError("structure not built")
        charge = self.perf.charge
        node = self._root
        while node.children is not None:
            charge(Event.DRAM_HOP)
            charge(Event.MODEL_EVAL)
            slot = node.model.predict_clamped(key, len(node.children))
            node = node.children[slot]
        charge(Event.DRAM_HOP)
        charge(Event.MODEL_EVAL)
        guess = node.model.predict_clamped(key, len(self.fences))
        return exponential_search(self.fences, key, guess, self.perf)

    def _lookup_many(self, qs):
        """The descent node by node: each node's model routes its share
        of the batch in one pass, and each query pays a hop and a model
        evaluation per node it visits, as :meth:`lookup` does."""
        if self._root is None:
            raise EmptyIndexError("structure not built")
        fences = self._fence_array()
        if fences is None:
            return None
        np = _vec.np
        guess = np.empty(qs.size, dtype=np.int64)
        visits = 0
        todo = [(self._root, slice(None))]
        while todo:
            node, at = todo.pop()
            sub = qs[at]
            visits += sub.size
            m, children = node.model, node.children
            slots = _vec.model_positions(
                m.slope, m.intercept, m.base_key, sub,
                len(fences) if children is None else len(children),
            )
            if children is None:
                guess[at] = slots
                continue
            members = np.arange(qs.size)[at]
            for slot in np.unique(slots).tolist():
                todo.append((children[slot], members[slots == slot]))
        self.perf.charge(Event.DRAM_HOP, visits)
        self.perf.charge(Event.MODEL_EVAL, visits)
        return exponential_search_many(fences, qs, guess, self.perf)

    # -- metadata -----------------------------------------------------------

    def avg_depth(self) -> float:
        if not self.fences:
            return 0.0
        return self._depth_weighted / len(self.fences)

    def max_depth(self) -> int:
        return self._depth_max

    def size_bytes(self) -> int:
        return self._node_count * (_MODEL_BYTES + _POINTER_BYTES)
