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
    scan_start,
)
from repro.core.retraining.base import RetrainPolicy
from repro.core.structures.base import InternalStructure
from repro.errors import ReproError
from repro.obs.trace import EventType
from repro.perf.context import PerfContext
from repro.perf.events import Event

_MAX_RETRAIN_ATTEMPTS = 4


def _runs(leaf_idx):
    """``(leaf, start, end)`` of each run of equal leaf indexes in a
    routed sorted batch (a sorted batch's leaf indexes never decrease)."""
    cuts = _vec.np.flatnonzero(leaf_idx[1:] != leaf_idx[:-1]) + 1
    starts = [0] + cuts.tolist()
    ends = starts[1:] + [len(leaf_idx)]
    return zip(leaf_idx[starts].tolist(), starts, ends)


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

        The batch is argsorted and routed through the internal structure
        in one call (``InternalStructure.lookup_many``); each run of
        queries landing in the same leaf is answered with a single
        ``Leaf.get_many`` call, which gets the run's sorted ``uint64``
        slice as it is, and the run's answers scatter back to the
        caller's order in one indexed assignment.  The routing bills
        what a loop of structure lookups bills, and so does every leaf
        but the gapped one (see ``GappedLeaf.get_many``).  A batch that
        cannot be converted exactly to uint64 takes the per-key loop.
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
        results = np.full(n, None, dtype=object)
        for li, start, end in _runs(leaf_idx):
            values = self.leaves[li].get_many(sorted_qs[start:end])
            results[order[start:end]] = object_array(values)
        return results.tolist()

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
        """Native batch scan: sorted-batch leaf routing, then each run
        is extracted leaf by leaf.

        A batch of at least ``MIN_VECTOR_KEYS`` (64) uint64 starts is
        argsorted and routed with one ``InternalStructure.lookup_many``;
        each leaf answers its routed starts with one ``Leaf.scan_many``
        (one ``searchsorted`` and one gather for a gapped leaf).  A run
        cut off by its leaf's end continues into the next leaves through
        ``Leaf.scan_from``.  A smaller batch, or one holding a start that
        is not a uint64 int, walks start by start: one structure lookup,
        then ``scan_from`` per leaf.  Below the cutoff the numpy routing
        costs more than the walk (a one-start batch 3-13x; see
        ``docs/performance.md``), and every ``ViperStore.scan`` is a
        one-start batch.  Either way a scan spanning N leaves is N slice
        copies or bounded merges instead of ``count`` iterator steps,
        and only the structure lookups charge events, which is what the
        scalar ``range`` walk charges, so totals stay bit-identical to
        sequential :meth:`scan` calls.  Every answer is a new list.
        """
        if not self.leaves or count <= 0:
            return [[] for _ in starts]
        n = len(starts)
        qs = _vec.as_u64(starts) if n >= _vec.MIN_VECTOR_KEYS else None
        if qs is None:
            results = []
            for start in starts:
                out: List[Tuple[Key, Value]] = []
                results.append(out)
                if type(start) is not int:
                    start = scan_start(start)
                    if start is None:
                        continue
                self._scan_on(out, start, self.structure.lookup(start), count)
            return results
        np = _vec.np
        order = np.argsort(qs, kind="stable")
        sorted_qs = qs[order]
        leaf_idx = self.structure.lookup_many(sorted_qs)
        positions = order.tolist()
        keys = sorted_qs.tolist()
        results = [None] * n
        for li, a, b in _runs(leaf_idx):
            runs = self.leaves[li].scan_many(sorted_qs[a:b], count)
            for pos, start, out in zip(positions[a:b], keys[a:b], runs):
                if len(out) < count:
                    self._scan_on(out, start, li + 1, count)
                results[pos] = out
        return results

    def _scan_on(
        self, out: List[Tuple[Key, Value]], start: int, idx: int, count: int
    ) -> None:
        """Extend ``out`` from leaf ``idx`` onward until it holds
        ``count`` pairs or the leaves run out."""
        leaves = self.leaves
        while idx < len(leaves) and len(out) < count:
            out.extend(leaves[idx].scan_from(start, count - len(out)))
            idx += 1

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
            rerouted = False
            routed = self.structure.lookup_many(sorted_qs[i:])
            for li, start, end in _runs(routed):
                a, b = i + start, i + end
                leaf = self.leaves[li]
                done = leaf.insert_batch(sorted_qs[a:b], sorted_vs[a:b])
                if done is not None:
                    self._n += done[0]
                    olds[order[a:b]] = done[1]
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
                if rerouted:
                    break
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
