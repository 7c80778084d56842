"""PGM-Index: optimal PLA recursed into itself, plus the LSM dynamisation.

:class:`PGMIndex` is the static index: Opt-PLA segments over the data with
a Linear Recursive Structure (recursive Opt-PLA over segment fences) on
top.  Both the routing and the leaf search are bounded by the configured
epsilons, so tail latency is bounded — the property the paper contrasts
with RMI.

:class:`DynamicPGMIndex` is the updatable variant: a logarithmic method
(Bentley-Saxe / LSM) over static PGM indexes.  "When a key is inserted,
the first empty set S_i is found and a new PGM-Index ... is created" from
the union of all smaller sets — frequent but individually cheap retrains
(Fig 18b's 'PGM-Index has the lowest average retraining time').
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import repro.core.approximation.vectorized as _vec
from repro.core.approximation.base import Approximation
from repro.core.approximation.optpla import OptPLAApproximator
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
from repro.core.retraining.base import RetrainStats
from repro.core.search import (
    accumulate_replay_charges,
    rank_border_charges,
    rank_replay_charges,
    rank_search,
    scan_rank,
)
from repro.core.structures.lrs_structure import LRSStructure
from repro.errors import InvalidConfigurationError
from repro.learned.static_array import StaticArrayIndex
from repro.obs.trace import EventType
from repro.perf.context import PerfContext
from repro.perf.events import Event

#: Sentinel marking a deleted key inside the LSM levels.
_TOMBSTONE = object()

#: Sentinel distinguishing "not found yet" from "resolved to None" while a
#: batched get drains through the LSM levels.
_MISSING = object()

#: Opt-PLA's convex-hull maintenance makes the build pass heavier than a
#: plain spline pass; this constant scales the charged build work.
_BUILD_PASSES = 2


class PGMIndex(StaticArrayIndex):
    """Static PGM: Opt-PLA leaves + recursive Opt-PLA routing."""

    name = "PGM"

    def __init__(
        self,
        eps: int = 16,
        eps_internal: int = 4,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        if eps < 1:
            raise InvalidConfigurationError(f"eps must be >= 1, got {eps}")
        self.eps = eps
        self.eps_internal = eps_internal
        self._keys_np = None
        self._values_np = None
        self._pairs: Optional[List[Tuple[Key, Any]]] = None
        self._approx: Optional[Approximation] = None
        self._structure: Optional[LRSStructure] = None

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        n = self._load(items)
        self._keys_np = _vec.as_u64(self._keys)
        # Exact-integer payloads get a contiguous copy too, so batch
        # scans can materialize runs without chasing heap pointers.
        self._values_np = _vec.as_u64(self._values)
        self._pairs = None
        if n == 0:
            self._approx = None
            self._structure = None
            return
        self.perf.charge(Event.RETRAIN_KEY, n * _BUILD_PASSES)
        self._approx = OptPLAApproximator(eps=self.eps).fit(self._keys)
        self.perf.charge(Event.ALLOC, self._approx.leaf_count)
        self._structure = LRSStructure(eps=self.eps_internal, perf=self.perf)
        self._structure.build(self._approx.fences)

    def _guess(self, key: Key) -> int:
        # The LRS descent names the segment, one model evaluation predicts;
        # the one hop past the descent is ``_rank``'s first touch of the
        # key array.
        seg = self._approx.segments[self._structure.lookup(key)]
        self.perf.charge(Event.MODEL_EVAL)
        return seg.start + seg.predict(key)

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """One ``searchsorted`` over the contiguous key array per batch.

        The per-probe ledger of the scalar descent (LRS hops, model
        evals, bounded search) collapses into an aggregate bill: one
        model eval per routing level and one comparison per halving of
        the 2*eps search window, per query.  Results are always exactly
        ``[self.get(k) for k in keys]``; inexact batches fall back.
        """
        if self._approx is None:
            return [None] * len(keys)
        qs = _vec.as_u64(keys) if self._keys_np is not None else None
        if qs is None:
            return [self.get(key) for key in keys]
        np = _vec.np
        pos = np.searchsorted(self._keys_np, qs, side="right").astype(np.int64) - 1
        hit = (pos >= 0) & (self._keys_np[np.maximum(pos, 0)] == qs)
        n = len(keys)
        levels = self._structure.height + 1
        window_steps = max(1, (2 * self.eps).bit_length())
        self.perf.charge(Event.MODEL_EVAL, n * levels)
        self.perf.charge(Event.DRAM_HOP, n * 2)
        self.perf.charge(Event.COMPARE, n * window_steps)
        self.perf.charge(Event.DRAM_SEQ, int(hit.sum()))
        values = self._values
        return [
            values[p] if h else None
            for p, h in zip(pos.tolist(), hit.tolist())
        ]

    def scan_many(
        self, starts: Sequence[Key], count: int
    ) -> List[List[Tuple[Key, Value]]]:
        """Native batch scan: replayed positioning, sliced extraction.

        Fast path (exact-integer batches with numpy available): one
        ``searchsorted`` pair over the key array resolves every start's
        true rank and run begin, the LRS descent and leaf search ledgers
        are replayed in pure integer arithmetic
        (:meth:`LRSStructure.lookup_many_exact`,
        :func:`rank_border_charges`) without touching the key array, and
        the whole batch's charges are issued as four aggregate events.
        Totals stay bit-identical to sequential :meth:`scan` — the
        scalar searches charge from the same replays — while skipping
        the per-start descent, model evaluation and ``bisect`` of scalar
        positioning.  Inexact batches keep the per-start charged
        descent.
        """
        if self._approx is None or count <= 0:
            return [[] for _ in starts]
        keys = self._keys
        values = self._values
        n = len(keys)
        out: List[List[Tuple[Key, Value]]] = []
        # Decide the whole fast path before charging anything, so a late
        # bail-out can never double-bill the routing descent.
        leaf_params = (
            self._approx.param_arrays() if self._keys_np is not None else None
        )
        qs = _vec.as_u64(starts) if leaf_params is not None else None
        seg_ids = (
            self._structure.lookup_many_exact(starts, qs=qs)
            if qs is not None and qs.size
            else None
        )
        if seg_ids is None:
            for start in starts:
                pos = self._rank(start)
                if pos < 0 or keys[pos] < start:
                    pos += 1
                take = min(count, n - pos)
                if take > 0:
                    self.perf.charge(Event.DRAM_SEQ, take)
                    out.append(list(zip(keys[pos : pos + take],
                                        values[pos : pos + take])))
                else:
                    out.append([])
            return out
        np = _vec.np
        knp = self._keys_np
        astar = np.searchsorted(knp, qs, side="right").astype(np.int64) - 1
        guess = _vec.segment_guesses(leaf_params, seg_ids, qs.astype(np.int64))
        compare, hop, seq = accumulate_replay_charges(
            astar - guess,
            guess,
            astar,
            0,
            n - 1,
            rank_replay_charges,
            lambda g, a: rank_border_charges(n - 1, g, a),
        )
        # First index with key >= start, i.e. searchsorted(side="left").
        present = (knp[np.maximum(astar, 0)] == qs) & (astar >= 0)
        begin = astar + 1 - present
        takes = np.minimum(count, n - begin)
        taken = int(takes.sum())
        # Materialized pair list, built lazily on the first batch scan:
        # extraction becomes a slice of consecutively allocated tuples
        # (pointer copies, zero allocation) instead of building every
        # pair from scratch per call.  Kept in sync by bulk_load and
        # set_value; value-equal to what sequential ``scan`` returns.
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = list(zip(keys, values))
        out = [
            pairs[p : p + t]
            for p, t in zip(begin.tolist(), takes.tolist())
        ]
        m = len(starts)
        charge = self.perf.charge
        charge(Event.DRAM_HOP, m + hop)
        charge(Event.MODEL_EVAL, m)
        charge(Event.COMPARE, compare)
        charge(Event.DRAM_SEQ, seq + taken)
        return out

    def set_value(self, key: Key, value: Any) -> Any:
        """Overwrite the payload of a stored key in place; returns the
        payload it found, ``_MISSING`` if the key is absent.  A tombstone
        stays: its key is deleted."""
        pos = self._rank(key)
        if pos < 0 or self._keys[pos] != key:
            return _MISSING
        self.perf.charge(Event.DRAM_SEQ)
        old = self._values[pos]
        if old is _TOMBSTONE:
            return old
        self._values[pos] = value
        if self._values_np is not None:
            if type(value) is int and 0 <= value < 2**64:
                self._values_np[pos] = value
            else:
                self._values_np = None  # payload left the u64 domain
        if self._pairs is not None:
            self._pairs[pos] = (self._keys[pos], value)
        return old

    def items_list(self) -> List[Tuple[Key, Any]]:
        """All stored pairs in key order (used by the LSM merge)."""
        return list(zip(self._keys, self._values))

    def size_bytes(self) -> int:
        if self._approx is None:
            return 0
        return self._approx.leaf_count * 24 + self._structure.size_bytes()

    def stats(self) -> IndexStats:
        if self._approx is None:
            return IndexStats()
        return IndexStats(
            depth_avg=float(self._structure.height + 1),
            depth_max=self._structure.height + 1,
            leaf_count=self._approx.leaf_count,
            avg_error=self._approx.avg_error,
            max_error=self._approx.max_error,
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=False,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="recursive linear",
            leaf_node="linear",
            approximation="Opt-PLA",
            insertion="-",
            retraining="-",
        )


class DynamicPGMIndex(UpdatableIndex):
    """LSM (logarithmic method) of static PGM indexes, with tombstones."""

    name = "PGM"

    def __init__(
        self,
        eps: int = 16,
        eps_internal: int = 4,
        base_level_size: int = 64,
        perf: Optional[PerfContext] = None,
    ):
        super().__init__(perf)
        if base_level_size < 1:
            raise InvalidConfigurationError("base_level_size must be >= 1")
        self.eps = eps
        self.eps_internal = eps_internal
        self.base_level_size = base_level_size
        # levels[0] is a small sorted staging buffer; levels[i >= 1] hold
        # static PGM indexes of geometrically growing capacity.
        self._buffer: List[Tuple[Key, Any]] = []
        self._levels: List[Optional[PGMIndex]] = []
        self.retrain_stats = RetrainStats()

    # -- construction ---------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        check_sorted_unique(items)
        self._buffer = []
        self._levels = []
        if not items:
            return
        level = self._level_for(len(items))
        self._levels = [None] * level + [self._build_level(list(items))]

    def _level_for(self, n: int) -> int:
        level = 0
        cap = self.base_level_size
        while cap < n:
            cap *= 2
            level += 1
        return level

    def _level_capacity(self, i: int) -> int:
        return self.base_level_size * (1 << i)

    def _build_level(self, items: List[Tuple[Key, Any]]) -> PGMIndex:
        pgm = PGMIndex(self.eps, self.eps_internal, perf=self.perf)
        pgm.bulk_load(items)
        return pgm

    # -- mutation -----------------------------------------------------------

    def _put(self, key: Key, value: Any) -> None:
        # Stage into the level-0 buffer (sorted insert).
        mid = len(self._buffer) // 2
        keys = [k for k, _ in self._buffer]
        pos = (
            rank_search(keys, 0, len(keys) - 1, key, mid, self.perf) + 1
            if keys
            else 0
        )
        if pos > 0 and self._buffer[pos - 1][0] == key:
            self._buffer[pos - 1] = (key, value)
            return
        self.perf.charge(Event.KEY_MOVE, len(self._buffer) - pos)
        self._buffer.insert(pos, (key, value))
        if len(self._buffer) >= self.base_level_size:
            self._carry()

    def _carry(self) -> None:
        """Merge the buffer and every full prefix level into the first slot
        that can hold the result (the logarithmic method)."""
        mark = self.perf.begin()
        flushed = len(self._buffer)
        merged: List[Tuple[Key, Any]] = list(self._buffer)
        self._buffer = []
        target = 0
        while True:
            if target >= len(self._levels):
                self._levels.append(None)
            level = self._levels[target]
            if level is not None:
                merged = self._merge(merged, level.items_list())
                self._levels[target] = None
            if len(merged) <= self._level_capacity(target):
                break
            target += 1
        self.perf.charge(Event.RETRAIN_KEY, len(merged))
        self._levels[target] = self._build_level(merged)
        op = self.perf.end(mark)
        self.retrain_stats.record(len(merged), op.time_ns)
        self.perf.trace(
            EventType.BUFFER_FLUSH,
            index=self.name,
            leaf=0,
            keys=flushed,
            reason="staging_buffer_full",
        )
        self.perf.trace(
            EventType.RETRAIN,
            index=self.name,
            leaf=target,
            key_lo=merged[0][0] if merged else None,
            key_hi=merged[-1][0] if merged else None,
            keys=len(merged),
            count=target + 1,
            reason="lsm_carry",
            cost_ns=op.time_ns,
        )

    @staticmethod
    def _merge(
        newer: List[Tuple[Key, Any]], older: List[Tuple[Key, Any]]
    ) -> List[Tuple[Key, Any]]:
        """Two-way merge; on duplicate keys the newer value wins."""
        out: List[Tuple[Key, Any]] = []
        i = j = 0
        while i < len(newer) and j < len(older):
            kn, ko = newer[i][0], older[j][0]
            if kn < ko:
                out.append(newer[i])
                i += 1
            elif kn > ko:
                out.append(older[j])
                j += 1
            else:
                out.append(newer[i])
                i += 1
                j += 1
        out.extend(newer[i:])
        out.extend(older[j:])
        return out

    def insert(self, key: Key, value: Value) -> None:
        check_uint64(key)
        self._put(key, value)

    def insert_many(self, items: Sequence[Tuple[Key, Value]]) -> None:
        """Native batch insert: one merge into the buffer, one carry.

        Sequential ``insert`` pays a rank search plus a list shift per
        key and triggers a carry every ``base_level_size`` inserts; the
        batch path sorts the items once (stably, so the batch's last
        write of a duplicate key wins), merges them into the staging
        buffer in one newest-wins pass, and carries at most once.  The
        observable LSM state is the same — staged keys shadow deeper
        copies either way — while the event bill is the coarse aggregate
        of the one merge (see ``docs/performance.md``).
        """
        check_uint64_items(items)
        if len(items) <= 1:
            for key, value in items:
                self._put(key, value)
            return
        batch: List[Tuple[Key, Any]] = []
        for key, value in sorted(items, key=lambda kv: kv[0]):
            if batch and batch[-1][0] == key:
                batch[-1] = (key, value)  # in-batch duplicate: last wins
            else:
                batch.append((key, value))
        self.perf.charge(Event.DRAM_HOP)
        self.perf.charge(Event.COMPARE, len(batch) + len(self._buffer))
        self.perf.charge(Event.KEY_MOVE, len(batch) + len(self._buffer))
        self._buffer = self._merge(batch, self._buffer)
        if len(self._buffer) >= self.base_level_size:
            self._carry()

    def upsert(self, key: Key, value: Value) -> Optional[Value]:
        """Probe, then :meth:`update` a present key in place or stage a
        fresh one: an LSM insert of a present key would stack a shadowing
        copy of it."""
        check_uint64(key)
        old = self.get(key)
        if old is None:
            self._put(key, value)
        else:
            self.update(key, value)
        return old

    def upsert_many(
        self, items: Sequence[Tuple[Key, Value]]
    ) -> List[Optional[Value]]:
        """Batch :meth:`upsert`: one ``get_many`` probe, an in-place
        :meth:`update` per occurrence of a present key (as the scalar
        upsert does), and one :meth:`insert_many` of the fresh keys (the
        two key sets are disjoint).  A repeated key's old value is its
        predecessor's value."""
        check_uint64_items(items)
        existing = self.get_many([key for key, _ in items])
        olds: List[Optional[Value]] = []
        fresh: List[Tuple[Key, Value]] = []
        last: dict = {}
        for item, old in zip(items, existing):
            key, value = item
            olds.append(last.get(key, old))
            if old is None:
                fresh.append(item)
            else:
                self.update(key, value)
            last[key] = value
        if fresh:
            self.insert_many(fresh)
        return olds

    def update(self, key: Key, value: Value) -> bool:
        """In-place payload overwrite: a value update does not change the
        key set, so it must not grow the LSM (it would otherwise shadow
        the old version and bloat every future merge)."""
        check_uint64(key)
        i = self._staged(key)
        if i >= 0:
            if self._buffer[i][1] is _TOMBSTONE:
                return False
            self._buffer[i] = (key, value)
            return True
        for level in self._levels:
            if level is None:
                continue
            # The newest level holding the key decides, as in ``get``.
            old = level.set_value(key, value)
            if old is not _MISSING:
                return old is not _TOMBSTONE
        return False

    def delete(self, key: Key) -> bool:
        """Stage a tombstone for the stored key ``key`` equals (so
        ``delete(3.0)`` removes 3); a key no stored key equals is
        absent, and nothing is staged."""
        if self.get(key) is None:
            return False
        self._put(int(key), _TOMBSTONE)
        return True

    # -- queries ----------------------------------------------------------

    def _staged(self, key: Key) -> int:
        """Index of ``key`` in the staging buffer, or -1.

        Charged as a hop to the buffer plus the front-to-back scan that
        stops at the first staged key >= ``key``.
        """
        self.perf.charge(Event.DRAM_HOP)
        buffer = self._buffer
        i = scan_rank(buffer, key, self.perf)
        return i if i < len(buffer) and buffer[i][0] == key else -1

    def get(self, key: Key) -> Optional[Value]:
        i = self._staged(key)
        if i >= 0:
            v = self._buffer[i][1]
            return None if v is _TOMBSTONE else v
        for level in self._levels:
            if level is None:
                continue
            hit = level.get(key)
            if hit is not None:
                return None if hit is _TOMBSTONE else hit
        return None

    def get_many(self, keys: Sequence[Key]) -> List[Optional[Value]]:
        """Batch get through the LSM: buffer first, then levels newest-first.

        Unresolved keys drain level by level, so each static PGM level
        answers one (shrinking) batch with its own vectorized
        ``get_many``; tombstones resolve a key to ``None`` and stop the
        drain, matching the scalar path's first-writer-wins semantics.
        """
        n = len(keys)
        out: List[Optional[Value]] = [None] * n
        unresolved = list(range(n))
        if self._buffer:
            self.perf.charge(Event.DRAM_HOP)
            self.perf.charge(Event.COMPARE, n)
            staged = dict(self._buffer)
            still: List[int] = []
            for i in unresolved:
                value = staged.get(keys[i], _MISSING)
                if value is _MISSING:
                    still.append(i)
                else:
                    out[i] = None if value is _TOMBSTONE else value
            unresolved = still
        for level in self._levels:
            if level is None or not unresolved:
                continue
            values = level.get_many([keys[i] for i in unresolved])
            still = []
            for i, value in zip(unresolved, values):
                if value is None:
                    still.append(i)
                else:
                    out[i] = None if value is _TOMBSTONE else value
            unresolved = still
        return out

    def range(self, lo: Key, hi: Key) -> Iterator[Tuple[Key, Value]]:
        sources: List[List[Tuple[Key, Any]]] = []
        if self._buffer:
            sources.append([(k, v) for k, v in self._buffer if lo <= k <= hi])
        for level in self._levels:
            if level is not None:
                sources.append(list(level.range(lo, hi)))
        merged: List[Tuple[Key, Any]] = []
        for source in sources:  # newest first: first writer wins
            merged = self._merge(merged, source)
        for k, v in merged:
            if v is not _TOMBSTONE:
                yield k, v

    def __len__(self) -> int:
        return sum(1 for _ in self.range(0, 2**64))

    # -- metadata -----------------------------------------------------------

    def size_bytes(self) -> int:
        total = len(self._buffer) * 16
        for level in self._levels:
            if level is not None:
                total += level.size_bytes()
        return total

    def stats(self) -> IndexStats:
        live = [lv for lv in self._levels if lv is not None]
        depth = max((lv.stats().depth_max for lv in live), default=0)
        return IndexStats(
            depth_avg=float(depth),
            depth_max=depth,
            leaf_count=sum(lv.stats().leaf_count for lv in live),
            retrain_count=self.retrain_stats.count,
            retrain_keys=self.retrain_stats.keys_retrained,
            retrain_time_ns=self.retrain_stats.time_ns,
            extra={"levels": len(self._levels)},
        )

    @classmethod
    def capabilities(cls) -> Capabilities:
        return Capabilities(
            sorted_order=True,
            updatable=True,
            bounded_error=True,
            concurrent_read=True,
            concurrent_write=False,
            inner_node="recursive linear",
            leaf_node="linear",
            approximation="Opt-PLA",
            insertion="offsite (LSM)",
            retraining="LSM merge",
        )
