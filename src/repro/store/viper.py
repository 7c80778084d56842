"""Viper-style hybrid PMem-DRAM key-value store (Benson et al., VLDB'21).

Architecture (the paper's Fig 9): a volatile index lives entirely in DRAM
and maps keys to ``(page, slot)`` offsets of records persisted in NVM
VPages.  A put writes its record to a free slot (one freed by an update
or a delete, else the next slot of the open page), gets follow the index
then read one record from NVM, and an update writes a new record,
repoints the index and frees the old record's slot straight back to the
allocator, so the device grows only with the live keys.  On a crash the
index and the free list are gone; recovery scans the device and rebuilds
both — the cost compared across indexes in Fig 16.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.core.interfaces import (
    Index,
    SortedIndex,
    check_uint64,
    check_uint64_items,
)
from repro.errors import CrashedError, UnsupportedOperationError
from repro.perf.context import PerfContext
from repro.store.pmem import PMemDevice


class ViperStore:
    """DRAM index + NVM value pages."""

    def __init__(
        self,
        index: Index,
        perf: PerfContext,
        record_bytes: int = 208,
        slots_per_page: int = 16,
    ):
        self.index = index
        self.perf = perf
        self.device = PMemDevice(
            record_bytes=record_bytes,
            slots_per_page=slots_per_page,
            perf=perf,
        )
        self._open_page = self.device.allocate_page()
        self._next_slot = 0
        self._free_slots: List[Tuple[int, int]] = []
        self._crashed = False
        self._n = 0

    # -- helpers ------------------------------------------------------------

    def _check_alive(self) -> None:
        if self._crashed:
            raise CrashedError("store crashed; call recover() first")

    def _allocate_slot(self) -> Tuple[int, int]:
        if self._free_slots:
            return self._free_slots.pop()
        if self._next_slot >= self.device.slots_per_page:
            self._open_page = self.device.allocate_page()
            self._next_slot = 0
        slot = (self._open_page, self._next_slot)
        self._next_slot += 1
        return slot

    def _allocate_slots(self, n: int) -> List[Tuple[int, int]]:
        """``n`` slot addresses — freed slots first, then the open page,
        then bulk page allocation with one batched ``ALLOC`` charge.  The
        addresses (and event totals) match ``n`` sequential
        :meth:`_allocate_slot` calls."""
        out: List[Tuple[int, int]] = []
        while self._free_slots and len(out) < n:
            out.append(self._free_slots.pop())
        need = n - len(out)
        if need <= 0:
            return out
        spp = self.device.slots_per_page
        take = min(spp - self._next_slot, need)
        if take > 0:
            out.extend(
                (self._open_page, self._next_slot + i) for i in range(take)
            )
            self._next_slot += take
            need -= take
        if need > 0:
            fresh = self.device.allocate_slots(need)
            out.extend(fresh)
            self._open_page, last_slot = fresh[-1]
            self._next_slot = last_slot + 1
        return out

    # -- operations -----------------------------------------------------------

    def bulk_load(self, items: List[Tuple[int, Any]]) -> None:
        """Load sorted unique items: persist records, then build the index.

        Records are placed with one bulk slot allocation and persisted
        with one batched NVM write — the charge totals are identical to
        the per-record path, issued in two calls instead of ``2n``.
        Every key is checked first: a batch holding a key outside uint64
        raises ``InvalidKeysError`` and persists nothing.
        """
        self._check_alive()
        check_uint64_items(items)
        locations = self._allocate_slots(len(items))
        self.device.write_records(locations, items)
        self.index.bulk_load(
            [(key, loc) for (key, _), loc in zip(items, locations)]
        )
        self._n = len(items)

    def put(self, key: int, value: Any) -> None:
        """Insert or update: persist the record, then one index upsert.

        ``Index.upsert`` resolves the previous record location and
        repoints the index in a single descent, so a put costs one lookup
        and one write.  A key outside uint64 raises
        ``InvalidKeysError`` before a slot is allocated: a record persisted
        for a key the index then refused would resurface at recovery."""
        self._check_alive()
        check_uint64(key)
        page, slot = self._allocate_slot()
        self.device.write_record(page, slot, key, value)
        old = self.index.upsert(key, (page, slot))
        if old is not None:
            self.device.free_record(*old)
            self._free_slots.append(old)
        else:
            self._n += 1

    def put_many(self, items: List[Tuple[int, Any]]) -> None:
        """Batch put, observably equivalent to ``put`` of each item in order.

        The records land via one bulk slot allocation plus one batched
        NVM write, and the index side is one ``index.upsert_many``, which
        hands back each item's previous record location to free and
        reuse.  In-batch duplicates chain: the second occurrence's old
        location is the first occurrence's record, and the last value
        wins.  The whole batch's keys are checked before any slot is
        allocated, as in :meth:`put`.
        """
        self._check_alive()
        if not items:
            return
        check_uint64_items(items)
        locations = self._allocate_slots(len(items))
        self.device.write_records(locations, items)
        olds = self.index.upsert_many(
            [(key, loc) for (key, _), loc in zip(items, locations)]
        )
        self._n += olds.count(None)
        for old in filter(None, olds):  # a replaced record's (page, slot)
            self.device.free_record(*old)
            self._free_slots.append(old)

    def get(self, key: int) -> Optional[Any]:
        self._check_alive()
        location = self.index.get(key)
        if location is None:
            return None
        _, value = self.device.read_record(*location)
        return value

    def get_many(self, keys: List[int]) -> List[Optional[Any]]:
        """Batch get: one index batch lookup, then every hit's record
        through one ``PMemDevice.read_records`` call, whose single
        ``NVM_READ`` charge totals the per-hit reads of sequential
        :meth:`get` calls."""
        self._check_alive()
        locations = self.index.get_many(keys)
        records = iter(
            self.device.read_records(
                [loc for loc in locations if loc is not None]
            )
        )
        return [
            None if loc is None else next(records)[1] for loc in locations
        ]

    def update(self, key: int, value: Any) -> bool:
        self._check_alive()
        check_uint64(key)
        if self.index.get(key) is None:
            return False
        self.put(key, value)
        return True

    def delete(self, key: int) -> bool:
        self._check_alive()
        location = self.index.get(key)
        if location is None:
            return False
        removed = self.index.delete(key)
        if removed:
            self.device.free_record(*location)
            self._free_slots.append(location)
            self._n -= 1
        return removed

    def scan(self, start_key: int, count: int) -> List[Tuple[int, Any]]:
        """Range scan: :meth:`scan_many` of one start."""
        return self.scan_many([start_key], count)[0]

    def scan_many(
        self, starts: List[int], count: int
    ) -> List[List[Tuple[int, Any]]]:
        """Batch scan: one index batch scan, then batched NVM record reads.

        The index side goes through ``Index.scan_many`` (bit-identical to
        sequential index ``scan`` calls, vectorized where the index has
        a native path) and every hit's record comes back via one
        ``PMemDevice.read_records`` call, whose ``NVM_READ`` total is one
        read per record.
        """
        self._check_alive()
        if not isinstance(self.index, SortedIndex):
            raise UnsupportedOperationError(
                f"{self.index.name} cannot serve ordered scans"
            )
        runs = self.index.scan_many(starts, count)
        records = self.device.read_records(
            [location for run in runs for _, location in run]
        )
        # A stored record is the (key, value) pair the scan returns, so
        # each run is a slice of the records, not a copy of each one.
        out: List[List[Tuple[int, Any]]] = []
        i = 0
        for run in runs:
            out.append(records[i : i + len(run)])
            i += len(run)
        return out

    def __len__(self) -> int:
        return self._n

    def __contains__(self, key: int) -> bool:
        return self.index.get(key) is not None

    # -- crash & recovery -----------------------------------------------------

    def crash(self) -> None:
        """Lose all DRAM state; NVM contents survive."""
        self._crashed = True

    def crash_during_put(self, key: int, value: Any) -> None:
        """Simulate power loss in the middle of persisting a put.

        The record's blocks are partially flushed (torn), so its checksum
        cannot verify; recovery must drop it, leaving the key's previous
        state intact — Viper's crash-consistency contract.
        """
        self._check_alive()
        page, slot = self._allocate_slot()
        self.device.write_record_torn(page, slot, key, value)
        self._crashed = True

    def recover(self, index_factory: Callable[[], Index]) -> float:
        """Rebuild the DRAM index and the free list from one NVM scan;
        returns simulated ns.

        Slots are reused, so address order is not write order.  A key
        has one valid record, unless the crash cut a put between its
        record write and its free of the old record.  That put was never
        acknowledged, so either record is a correct state: the scan keeps
        the later one in address order and frees the other, so no stale
        copy of the key survives to a later recovery.  A torn slot is
        cleared.  Every empty slot, torn slot and freed extra record goes
        to the free list, so recovery allocates no page.
        """
        mark = self.perf.begin()
        latest: dict = {}
        free: List[Tuple[int, int]] = []
        for page_id, slot, record in self.device.scan_slots():
            if record is None:
                if self.device.is_torn(page_id, slot):
                    self.device.free_record(page_id, slot)
                free.append((page_id, slot))
                continue
            extra = latest.get(record[0])
            if extra is not None:
                self.device.free_record(*extra)
                free.append(extra)
            latest[record[0]] = (page_id, slot)
        items = sorted(latest.items())
        index = index_factory()
        index.bulk_load(items)
        self.index = index
        self._n = len(items)
        self._crashed = False
        self._free_slots = free
        # Every slot the pages hold is live or on the free list, so the
        # next page comes from the device once the free list runs dry.
        self._open_page = self.device.page_count - 1
        self._next_slot = self.device.slots_per_page
        return self.perf.end(mark).time_ns

    # -- accounting (Table III) -------------------------------------------------

    def space_overhead(self) -> dict:
        """The three DRAM-budget scenarios of Table III."""
        index_size = self.index.size_bytes()
        key_size = self.index.key_store_bytes()
        value_size = self._n * (self.device.record_bytes - 8)
        return {
            "index": index_size,
            "index+key": index_size + key_size,
            "index+kv": index_size + key_size + value_size,
        }
