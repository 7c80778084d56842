"""ComposedIndex: recombine the four design dimensions into a working index.

Section IV opens with the observation that "in theory, the four dimensions
of the existing learned indexes are orthogonal, i.e., they can be combined
to form brand new indexes".  ``ComposedIndex`` is that claim as code:

>>> from repro.core import ComposedIndex
>>> from repro.core.approximation import OptPLAApproximator
>>> from repro.core.structures import ATSStructure
>>> from repro.core.insertion.strategies import GappedStrategy
>>> from repro.core.retraining import ExpandOrSplitPolicy
>>> idx = ComposedIndex(
...     OptPLAApproximator(eps=32), ATSStructure(),
...     GappedStrategy(), ExpandOrSplitPolicy())

The learned indexes in :mod:`repro.learned` are purpose-built
implementations of the published designs; ``ComposedIndex`` exists for the
dimension-isolation experiments (Figs 17-18) and for exploring the design
space the paper recommends.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import Approximator
from repro.core.insertion.base import InsertResult, Leaf, object_array
from repro.core.insertion.strategies import InsertionStrategy
from repro.core.interfaces import (
    Capabilities,
    IndexStats,
    Key,
    UpdatableIndex,
    Value,
    check_sorted_unique,
    check_uint64,
    check_uint64_items,
)
from repro.core.retraining.base import RetrainPolicy
from repro.core.structures.base import InternalStructure
from repro.errors import ReproError
from repro.obs.trace import EventType
from repro.perf.context import PerfContext
from repro.perf.events import Event

_MAX_RETRAIN_ATTEMPTS = 4


class ComposedIndex(UpdatableIndex):
    """An updatable learned index assembled from the four dimensions."""

    #: Passes over the data a bulk build makes (fit + leaf construction);
    #: subclasses override to reflect their algorithm's build constant,
    #: which drives the recovery-time experiment (Fig 16).
    _build_passes = 2

    def __init__(
        self,
        approximator: Approximator,
        structure: InternalStructure,
        insertion: InsertionStrategy,
        retraining: RetrainPolicy,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        self.approximator = approximator
        self.structure = structure
        self.structure.perf = self.perf  # share one simulated clock
        self.insertion = insertion
        self.retraining = retraining
        self.leaves: List[Leaf] = []
        self.name = (
            f"{approximator.name}+{structure.name}"
            f"+{insertion.name}+{retraining.name}"
        )
        self._n = 0
        self._split_count = 0
        self._merge_count = 0

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        if not items:
            self.leaves = []
            self._n = 0
            return
        keys = [k for k, _ in items]
        values = [v for _, v in items]
        self.perf.charge(Event.RETRAIN_KEY, len(items) * self._build_passes)
        approx = self.approximator.fit(keys)
        self.perf.charge(Event.ALLOC, approx.leaf_count)
        self.leaves = [
            self.insertion.make_leaf(
                keys[seg.start : seg.start + seg.n],
                values[seg.start : seg.start + seg.n],
                seg,
                self.perf,
            )
            for seg in approx.segments
        ]
        self._n = len(items)
        self.perf.trace(
            EventType.NODE_ALLOC,
            index=self.name,
            reason="bulk_load",
            keys=len(items),
            count=approx.leaf_count,
            key_lo=keys[0],
            key_hi=keys[-1],
        )
        self._rebuild_structure()

    def _rebuild_structure(self) -> None:
        self.perf.charge(Event.ALLOC)
        self.structure.build([leaf.first_key for leaf in self.leaves])

    # -- queries ----------------------------------------------------------

    def get(self, key: Key) -> Optional[Value]:
        if not self.leaves:
            return None
        idx = self.structure.lookup(key)
        return self.leaves[idx].get(key)

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """Sorted-batch leaf routing.

        The batch is argsorted, routed through the internal structure in
        one vectorized pass (see ``InternalStructure.lookup_many``), and
        each run of queries landing in the same leaf is answered with a
        single ``Leaf.get_many`` call, which gets the run's sorted
        ``uint64`` slice as it is; answers scatter back to the caller's
        order.  Each run's positions become Python ints only when its
        turn comes, so the batch is never held as Python ints whole; the
        leaf indexes of sorted queries never decrease, so a run ends
        where ``bisect_right`` says.  Any batch
        that cannot be converted exactly to uint64 takes the per-key
        fallback, so results always match ``[self.get(k) for k in keys]``.
        """
        n = len(keys)
        if not self.leaves or not n:
            return [None] * n
        qs = _vec.as_u64(keys)
        if qs is None:
            return [self.get(key) for key in keys]
        np = _vec.np
        order = np.argsort(qs, kind="stable")
        sorted_qs = qs[order]
        leaf_idx = self.structure.lookup_many(sorted_qs)
        results: List[Optional[Value]] = [None] * n
        start = 0
        while start < n:
            li = leaf_idx[start]
            end = bisect_right(leaf_idx, li, start)
            values = self.leaves[li].get_many(sorted_qs[start:end])
            for pos, value in zip(order[start:end].tolist(), values):
                results[pos] = value
            start = end
        return results

    def __len__(self) -> int:
        return self._n

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        if not self.leaves:
            return
        idx = self.structure.lookup(lo)
        while idx < len(self.leaves):
            leaf = self.leaves[idx]
            if leaf.first_key > hi:
                return
            yield from leaf.iter_range(lo, hi)
            idx += 1

    def scan_many(
        self, starts: Sequence[Key], count: int
    ) -> List[List[Tuple[Key, Value]]]:
        """Native batch scan: one structure lookup per start, then the
        run is stitched from whole-leaf extractions.

        A scan spanning N leaves is N ``Leaf.scan_from`` slice copies
        (of the occupied-slot view for gapped leaves, bounded merges for
        buffered/fine-bin ones) instead of ``count`` iterator item
        probes.  Only the structure lookup charges events — exactly what
        the scalar ``range`` walk charges — so totals stay bit-identical
        to sequential :meth:`scan` calls.
        """
        if not self.leaves or count <= 0:
            return [[] for _ in starts]
        leaves = self.leaves
        n_leaves = len(leaves)
        results: List[List[Tuple[Key, Value]]] = []
        for start in starts:
            idx = self.structure.lookup(start)
            out: List[Tuple[Key, Value]] = []
            while idx < n_leaves and len(out) < count:
                run = leaves[idx].scan_from(start, count - len(out))
                if run:
                    out.extend(run)
                idx += 1
            results.append(out)
        return results

    # -- mutation -----------------------------------------------------------

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        """Single-descent insert-or-overwrite: one structure lookup plus
        one in-leaf rank search resolves both the old value and the write
        target.  A FULL leaf is retrained and the key re-routed."""
        check_uint64(key)
        if not self.leaves:
            self.leaves = [
                self.insertion.make_leaf([key], [value], None, self.perf)
            ]
            self._n = 1
            self._rebuild_structure()
            return None
        for _ in range(_MAX_RETRAIN_ATTEMPTS):
            idx = self.structure.lookup(key)
            result, old = self.leaves[idx].upsert(key, value)
            if result is InsertResult.INSERTED:
                self._n += 1
                return None
            if result is InsertResult.UPDATED:
                return old
            self._retrain(idx)
        raise ReproError(
            f"upsert of key {key} did not converge after "
            f"{_MAX_RETRAIN_ATTEMPTS} retrains"
        )

    def upsert_many(
        self, items: Sequence[Tuple[Key, Value]]
    ) -> List[Optional[Value]]:
        """Sorted-batch leaf routing; returns each item's previous value
        in the caller's order.

        Mirrors ``get_many``: the keys are converted to ``uint64`` once,
        argsorted stably (so the later of two equal keys wins) and routed
        through ``InternalStructure.lookup_many``.  The conversion is the
        key check: a batch ``as_u64`` refuses holds a key outside uint64,
        and ``check_uint64_items`` raises on it before anything is
        written.  Each same-leaf run is offered to ``Leaf.insert_batch``
        as its key and value slices; a declined run takes
        ``Leaf.upsert`` per key.  A leaf reporting FULL hands its key to
        :meth:`upsert`, which retrains, and the rest is re-routed, since
        retraining changes the leaves.
        """
        if not items:
            return []
        qs = _vec.as_u64([k for k, _ in items])
        if qs is None:
            check_uint64_items(items)  # as_u64 refused a key: this raises
        head: List[Optional[Value]] = []
        if not self.leaves:
            head = [self.upsert(*items[0])]
            items, qs = items[1:], qs[1:]
            if not items:
                return head
        n = len(items)
        np = _vec.np
        order = np.argsort(qs, kind="stable")
        sorted_qs = qs[order]
        sorted_vs = object_array([v for _, v in items])[order]
        olds = np.full(n, None, dtype=object)
        i = 0
        while i < n:
            leaf_idx = self.structure.lookup_many(sorted_qs[i:])
            total = len(leaf_idx)
            start = 0
            rerouted = False
            while start < total and not rerouted:
                li = leaf_idx[start]
                end = bisect_right(leaf_idx, li, start)
                a, b = i + start, i + end
                leaf = self.leaves[li]
                done = leaf.insert_batch(sorted_qs[a:b], sorted_vs[a:b])
                if done is not None:
                    self._n += done[0]
                    olds[order[a:b]] = done[1]
                    start = end
                    continue
                for j, pos in enumerate(order[a:b].tolist(), a):
                    key, value = items[pos]
                    result, old = leaf.upsert(key, value)
                    if result is InsertResult.INSERTED:
                        self._n += 1
                    elif result is InsertResult.UPDATED:
                        olds[pos] = old
                    else:
                        # FULL: upsert retrains until the key fits, then
                        # the outer loop re-routes the rest.
                        olds[pos] = self.upsert(key, value)
                        i = j + 1
                        rerouted = True
                        break
                start = end
            if not rerouted:
                break
        return head + olds.tolist()

    def delete(self, key: Key) -> bool:
        if not self.leaves:
            return False
        idx = self.structure.lookup(key)
        removed = self.leaves[idx].delete(key)
        if not removed:
            return False
        self._n -= 1
        if self.leaves[idx].n == 0:
            # Drop the emptied leaf; the structure must forget its fence.
            # An empty leaf may have no first key, so the event reports
            # the fence the structure routed by.
            del self.leaves[idx]
            self._merge_count += 1
            self.perf.trace(
                EventType.LEAF_MERGE,
                index=self.name,
                leaf=idx,
                key_lo=self.structure.fences[idx],
                reason="leaf_emptied",
            )
            if self.leaves:
                self._rebuild_structure()
        return True

    def _retrain(self, idx: int) -> None:
        leaf = self.leaves[idx]
        old_n = leaf.n
        key_lo = leaf.first_key
        buffered = getattr(leaf, "buffer_fill", None)
        flushed = buffered() if callable(buffered) else 0
        mark = self.perf.begin()
        new_leaves = self.retraining.retrain_leaf(self, idx)
        self.leaves[idx : idx + 1] = new_leaves
        self._rebuild_structure()
        op = self.perf.end(mark)
        self.retraining.stats.record(old_n, op.time_ns)
        # The first key of the leaf after the retrained range is an
        # exclusive upper bound on the keys the retrain covered.
        nxt = idx + len(new_leaves)
        key_hi = self.leaves[nxt].first_key if nxt < len(self.leaves) else None
        if flushed:
            self.perf.trace(
                EventType.BUFFER_FLUSH,
                index=self.name,
                leaf=idx,
                key_lo=key_lo,
                key_hi=key_hi,
                keys=flushed,
                reason="merge_on_retrain",
            )
        if len(new_leaves) > 1:
            self._split_count += 1
            self.perf.trace(
                EventType.LEAF_SPLIT,
                index=self.name,
                leaf=idx,
                key_lo=key_lo,
                key_hi=key_hi,
                keys=old_n,
                count=len(new_leaves),
                reason="model_refit_split",
                cost_ns=op.time_ns,
            )
        self.perf.trace(
            EventType.RETRAIN,
            index=self.name,
            leaf=idx,
            key_lo=key_lo,
            key_hi=key_hi,
            keys=old_n,
            count=len(new_leaves),
            reason="leaf_full",
            cost_ns=op.time_ns,
        )

    # -- metadata -----------------------------------------------------------

    #: Per-leaf structural metadata: model (24B) + header/pointer (16B).
    _LEAF_META_BYTES = 40

    def size_bytes(self) -> int:
        return (
            self.structure.size_bytes()
            + len(self.leaves) * self._LEAF_META_BYTES
        )

    def key_store_bytes(self) -> int:
        return sum(leaf.capacity_slots for leaf in self.leaves) * 16

    def stats(self) -> IndexStats:
        rs = self.retraining.stats
        return IndexStats(
            depth_avg=self.structure.avg_depth() if self.leaves else 0.0,
            depth_max=self.structure.max_depth() if self.leaves else 0,
            leaf_count=len(self.leaves),
            retrain_count=rs.count,
            retrain_keys=rs.keys_retrained,
            retrain_time_ns=rs.time_ns,
            extra={
                "leaf_splits": self._split_count,
                "leaf_merges": self._merge_count,
            },
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=False,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="configurable",
            leaf_node="linear",
            approximation="configurable",
            insertion="configurable",
            retraining="configurable",
        )
