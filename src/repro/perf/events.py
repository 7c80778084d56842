"""Hardware event taxonomy charged by index and store implementations.

Each event is a proxy for a micro-architectural cost the paper reasons
about explicitly:

* ``DRAM_HOP`` — a pointer chase to a node that is not in cache (the paper:
  "each level of the internal structure searched down causes a cache miss").
* ``DRAM_SEQ`` — touching an adjacent cache line inside a node that is
  already resident (sequential scan step, slot probe).
* ``COMPARE`` — one key comparison (the dominant cost of comparison-based
  inner structures such as the FITing-tree's B+tree).
* ``MODEL_EVAL`` — evaluating one linear model (fused multiply-add plus a
  clamp), the dominant cost of calculated structures such as PGM's LRS.
* ``KEY_MOVE`` — shifting one stored key/slot during an insert (the cost
  that makes the inplace strategy slow).
* ``HASH`` — one hash computation (CCEH, Wormhole anchors).
* ``NVM_READ`` / ``NVM_WRITE`` — one 256-byte Optane block access.
* ``ALLOC`` — allocating a new node/page.
* ``RETRAIN_KEY`` — refitting one key during a model retrain.
* ``LATCH_ACQUIRE`` — taking one latch/lock (a CAS plus a fence on the
  latch word's cacheline); charged by the concurrency simulator.
* ``OPT_RETRY`` — one failed optimistic-read validation forcing a retry
  (Masstree/Bw-tree style version checks); charged by the simulator.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Iterator


class Event:
    """Event ids: each names one slot of :attr:`Counters.counts`.

    Indexes charge with these constants (``perf.charge(Event.NVM_READ)``),
    never with a name string; :data:`NAMES` spells an id for export.
    """

    DRAM_HOP = 0
    DRAM_SEQ = 1
    COMPARE = 2
    MODEL_EVAL = 3
    KEY_MOVE = 4
    HASH = 5
    NVM_READ = 6
    NVM_WRITE = 7
    ALLOC = 8
    RETRAIN_KEY = 9
    LATCH_ACQUIRE = 10
    OPT_RETRY = 11

    #: Export name of every event, indexed by id.
    NAMES = (
        "dram_hop",
        "dram_seq",
        "compare",
        "model_eval",
        "key_move",
        "hash",
        "nvm_read",
        "nvm_write",
        "alloc",
        "retrain_key",
        "latch_acquire",
        "opt_retry",
    )


_ZEROS = (0,) * len(Event.NAMES)


def _count(event: int) -> property:
    """The named, assignable view of one event's slot."""

    def read(self: "Counters"):
        return self.counts[event]

    def write(self: "Counters", n) -> None:
        self.counts[event] = n

    return property(read, write, doc=f"Count of ``{Event.NAMES[event]}`` events.")


class Counters:
    """Event counts: one flat list, ``counts``, indexed by :class:`Event` id.

    A charge is one indexed add on ``counts``, a snapshot one list copy,
    and a delta one ``map(sub)``.  ``counts`` is an exact ``list`` rather
    than a subclass because CPython specializes item access on exact
    lists only.  Each event also reads and assigns by name
    (``counters.nvm_read``), and iterating a ``Counters`` yields its
    counts in id order.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Iterable[int] = _ZEROS) -> None:
        self.counts = list(counts)

    dram_hop = _count(Event.DRAM_HOP)
    dram_seq = _count(Event.DRAM_SEQ)
    compare = _count(Event.COMPARE)
    model_eval = _count(Event.MODEL_EVAL)
    key_move = _count(Event.KEY_MOVE)
    hash = _count(Event.HASH)
    nvm_read = _count(Event.NVM_READ)
    nvm_write = _count(Event.NVM_WRITE)
    alloc = _count(Event.ALLOC)
    retrain_key = _count(Event.RETRAIN_KEY)
    latch_acquire = _count(Event.LATCH_ACQUIRE)
    opt_retry = _count(Event.OPT_RETRY)

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    def copy(self) -> "Counters":
        return Counters(self.counts)

    def delta(self, earlier: Iterable[int]) -> "Counters":
        """Return a new ``Counters`` holding ``self - earlier`` per event."""
        return Counters(map(sub, self.counts, earlier))

    def add(self, other: Iterable[int]) -> None:
        self.counts[:] = map(add, self.counts, other)

    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict:
        """Event name -> count, in :class:`Event` id order."""
        return dict(zip(Event.NAMES, self.counts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"Counters({nonzero})"
