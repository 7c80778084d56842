"""Simulated Optane persistent memory with page/slot record layout.

Records live in fixed-size slots inside fixed-size pages (Viper's VPage
layout).  Every slot access charges one ``NVM_READ``/``NVM_WRITE`` per
256-byte Optane block the record spans — the paper's platform's real
access granularity (Yang et al., FAST'20).  Contents survive a simulated
crash; only the DRAM-side index is lost.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DeviceError, InvalidConfigurationError
from repro.obs.trace import EventType
from repro.perf.context import DEFAULT_CONTEXT, PerfContext
from repro.perf.events import Event

_BLOCK_BYTES = 256


class _Page:
    __slots__ = ("slots", "used")

    def __init__(self, slots_per_page: int):
        self.slots: List[Optional[Tuple[int, Any]]] = [None] * slots_per_page
        self.used = 0


class PMemDevice:
    """Page-granular simulated NVM device."""

    def __init__(
        self,
        record_bytes: int = 208,  # 8-byte key + 200-byte value (§III-A3)
        slots_per_page: int = 16,
        capacity_pages: Optional[int] = None,
        perf: Optional[PerfContext] = None,
    ):
        if record_bytes < 1:
            raise InvalidConfigurationError("record_bytes must be >= 1")
        if slots_per_page < 1:
            raise InvalidConfigurationError("slots_per_page must be >= 1")
        self.perf = perf if perf is not None else DEFAULT_CONTEXT
        self.record_bytes = record_bytes
        self.slots_per_page = slots_per_page
        self.capacity_pages = capacity_pages
        self._pages: List[_Page] = []
        self._blocks_per_record = max(1, math.ceil(record_bytes / _BLOCK_BYTES))
        # Slots whose last write was interrupted (checksum cannot verify).
        self._torn: set = set()

    # -- allocation ---------------------------------------------------------

    def allocate_page(self) -> int:
        if (
            self.capacity_pages is not None
            and len(self._pages) >= self.capacity_pages
        ):
            raise DeviceError("device full: no pages left")
        self.perf.charge(Event.ALLOC)
        self._pages.append(_Page(self.slots_per_page))
        self.perf.trace(
            EventType.NODE_ALLOC,
            index="pmem",
            leaf=len(self._pages) - 1,
            count=1,
            reason="vpage",
        )
        return len(self._pages) - 1

    def allocate_slots(self, n: int) -> List[Tuple[int, int]]:
        """Allocate ``n`` slots on fresh pages with one batched ALLOC.

        Returns ``n`` ``(page_id, slot)`` addresses — the same addresses
        ``n`` sequential :meth:`allocate_page` + slot-cursor walks would
        produce, with ``ALLOC`` charged once for all
        ``ceil(n / slots_per_page)`` pages instead of per page.  The last
        page may be partially used; the caller owns its remaining slots.
        """
        if n <= 0:
            return []
        pages_needed = -(-n // self.slots_per_page)
        if (
            self.capacity_pages is not None
            and len(self._pages) + pages_needed > self.capacity_pages
        ):
            raise DeviceError("device full: no pages left")
        self.perf.charge(Event.ALLOC, pages_needed)
        first = len(self._pages)
        self._pages.extend(
            _Page(self.slots_per_page) for _ in range(pages_needed)
        )
        self.perf.trace(
            EventType.NODE_ALLOC,
            index="pmem",
            leaf=first,
            count=pages_needed,
            reason="vpage_bulk",
        )
        # One int object per page, shared by the addresses of its slots.
        pages = list(range(first, first + pages_needed))
        return [
            (pages[i // self.slots_per_page], i % self.slots_per_page)
            for i in range(n)
        ]

    @property
    def page_count(self) -> int:
        return len(self._pages)

    # -- record access ------------------------------------------------------

    def _page(self, page_id: int) -> _Page:
        if not 0 <= page_id < len(self._pages):
            raise DeviceError(f"bad page id {page_id}")
        return self._pages[page_id]

    def write_record(self, page_id: int, slot: int, key: int, value: Any) -> None:
        page = self._page(page_id)
        if not 0 <= slot < self.slots_per_page:
            raise DeviceError(f"bad slot {slot}")
        self.perf.charge(Event.NVM_WRITE, self._blocks_per_record)
        if page.slots[slot] is None:
            page.used += 1
        page.slots[slot] = (key, value)
        self._torn.discard((page_id, slot))

    def write_records(
        self,
        locations: Sequence[Tuple[int, int]],
        records: Sequence[Tuple[int, Any]],
    ) -> None:
        """Persist each ``(key, value)`` record at the ``(page_id, slot)``
        in the same position of ``locations``, with one batched
        ``NVM_WRITE`` charge covering every record's blocks (the total is
        identical to per-record :meth:`write_record` calls).

        A record that is already a tuple is stored as it is, so the device
        and the caller share one pair instead of holding two equal copies.
        """
        if not records:
            return
        for (page_id, slot), record in zip(locations, records):
            page = self._page(page_id)
            if not 0 <= slot < self.slots_per_page:
                raise DeviceError(f"bad slot {slot}")
            if page.slots[slot] is None:
                page.used += 1
            page.slots[slot] = tuple(record)
            self._torn.discard((page_id, slot))
        self.perf.charge(
            Event.NVM_WRITE, self._blocks_per_record * len(records)
        )

    def write_record_torn(
        self, page_id: int, slot: int, key: int, value: Any
    ) -> None:
        """Write a record that a crash interrupted mid-flush.

        Only some of the record's blocks reached the media, so its
        checksum will not verify: reads raise and the recovery scan
        drops it (Viper persists a per-record CRC for exactly this).
        """
        page = self._page(page_id)
        if not 0 <= slot < self.slots_per_page:
            raise DeviceError(f"bad slot {slot}")
        self.perf.charge(Event.NVM_WRITE, max(1, self._blocks_per_record // 2))
        if page.slots[slot] is None:
            page.used += 1
        page.slots[slot] = (key, value)
        self._torn.add((page_id, slot))

    def is_torn(self, page_id: int, slot: int) -> bool:
        return (page_id, slot) in self._torn

    def read_record(self, page_id: int, slot: int) -> Tuple[int, Any]:
        page = self._page(page_id)
        record = page.slots[slot]
        self.perf.charge(Event.NVM_READ, self._blocks_per_record)
        if record is None:
            raise DeviceError(f"empty slot ({page_id}, {slot})")
        if (page_id, slot) in self._torn:
            raise DeviceError(
                f"checksum mismatch at ({page_id}, {slot}): torn write"
            )
        return record

    def read_records(
        self, locations: Sequence[Tuple[int, int]]
    ) -> List[Tuple[int, Any]]:
        """Read ``(page_id, slot)`` records with one batched ``NVM_READ``
        charge covering every record's blocks (the total is identical to
        per-record :meth:`read_record` calls).  Each page is looked up
        in place, with :meth:`_page`'s bounds check and :meth:`read_record`'s
        empty-slot and torn-record errors."""
        if not locations:
            return []
        out: List[Tuple[int, Any]] = []
        self.perf.charge(
            Event.NVM_READ, self._blocks_per_record * len(locations)
        )
        pages = self._pages
        n_pages = len(pages)
        torn = self._torn
        for page_id, slot in locations:
            if not 0 <= page_id < n_pages:
                raise DeviceError(f"bad page id {page_id}")
            record = pages[page_id].slots[slot]
            if record is None:
                raise DeviceError(f"empty slot ({page_id}, {slot})")
            if torn and (page_id, slot) in torn:
                raise DeviceError(
                    f"checksum mismatch at ({page_id}, {slot}): torn write"
                )
            out.append(record)
        return out

    def free_record(self, page_id: int, slot: int) -> None:
        page = self._page(page_id)
        if page.slots[slot] is not None:
            self.perf.charge(Event.NVM_WRITE, 1)  # tombstone flag flush
            page.slots[slot] = None
            page.used -= 1
            self._torn.discard((page_id, slot))

    # -- recovery -----------------------------------------------------------

    #: A sequential scan streams at device bandwidth (~39 GB/s for six
    #: Optane DIMMs), so one charged random-read covers this many blocks.
    SEQ_BLOCKS_PER_READ = 32

    def scan_slots(
        self,
    ) -> Iterator[Tuple[int, int, Optional[Tuple[int, Any]]]]:
        """Yield ``(page_id, slot, record)`` for every slot in address
        order; ``record`` is ``None`` for a free slot, one that is empty
        or torn (its checksum fails: the record never committed).

        The recovery scan (Fig 16) is sequential, so it is charged at
        streaming bandwidth — one ``NVM_READ`` per
        :attr:`SEQ_BLOCKS_PER_READ` blocks of written records, torn ones
        included — rather than per random block.
        """
        pending_blocks = 0
        for page_id, page in enumerate(self._pages):
            for slot, record in enumerate(page.slots):
                if record is not None:
                    pending_blocks += self._blocks_per_record
                    if pending_blocks >= self.SEQ_BLOCKS_PER_READ:
                        self.perf.charge(Event.NVM_READ)
                        pending_blocks -= self.SEQ_BLOCKS_PER_READ
                    if (page_id, slot) in self._torn:
                        record = None
                yield page_id, slot, record
        if pending_blocks:
            self.perf.charge(Event.NVM_READ)

    # -- accounting -----------------------------------------------------------

    def used_bytes(self) -> int:
        return sum(p.used for p in self._pages) * self.record_bytes
