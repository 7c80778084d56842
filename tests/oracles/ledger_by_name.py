"""The ledger arithmetic by event name, as a dict of counts would do it.

``repro.perf`` keeps counts in a flat list and prices them with weight
and byte tuples indexed by event id.  This oracle keeps a ``{name:
count}`` dict and prices it name by name: each count times its weight,
added in name order with the builtin ``sum``.  ``tests/test_perf.py``
holds the flat ledger equal to it (``==``, not approximately).
"""

from typing import Dict

#: Event names in ledger order.
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

#: Bytes of memory traffic per event.
EVENT_BYTES = {
    "dram_hop": 64,
    "dram_seq": 16,
    "compare": 0,
    "model_eval": 0,
    "key_move": 16,
    "hash": 0,
    "nvm_read": 256,
    "nvm_write": 256,
    "alloc": 64,
    "retrain_key": 16,
    "latch_acquire": 64,
    "opt_retry": 64,
}


def time_ns(model, counts: Dict[str, int]) -> float:
    """Simulated ns of ``counts`` under a ``CostModel``."""
    weight = {name: getattr(model, f"{name}_ns") for name in NAMES}
    return sum(counts[name] * weight[name] for name in NAMES)


def bytes_touched(counts: Dict[str, int]) -> int:
    return sum(counts[name] * EVENT_BYTES[name] for name in NAMES)


class NamedLedger:
    """Named counts with begin/end brackets that return named deltas."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(NAMES, 0)

    def charge(self, name: str, n: int) -> None:
        self.counts[name] += n

    def begin(self) -> Dict[str, int]:
        return dict(self.counts)

    def end(self, mark: Dict[str, int]) -> Dict[str, int]:
        return {name: self.counts[name] - mark[name] for name in NAMES}
