"""Event-to-nanoseconds cost model.

Default latencies follow published measurements of the paper's platform
(Xeon Gold 6242 + Optane DC PMem, see Yang et al., FAST'20, and the Viper
paper, VLDB'21):

* an uncached DRAM pointer chase costs ~90 ns,
* a cache-resident sequential access costs ~4 ns,
* an Optane 256 B block read costs ~300 ns, a write to the WPQ ~100 ns,
* arithmetic (compares, model evaluations) costs single nanoseconds.

The absolute values only set the simulated clock's scale; the paper-shape
results depend on their *ratios*, which is what the defaults preserve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import mul
from typing import Iterable, Tuple

from repro.perf.events import Event


@dataclass(frozen=True)
class CostModel:
    """Per-event latencies in nanoseconds."""

    dram_hop_ns: float = 90.0
    dram_seq_ns: float = 4.0
    compare_ns: float = 1.5
    model_eval_ns: float = 4.0
    key_move_ns: float = 6.0
    hash_ns: float = 12.0
    nvm_read_ns: float = 300.0
    nvm_write_ns: float = 100.0
    alloc_ns: float = 60.0
    retrain_key_ns: float = 14.0
    latch_acquire_ns: float = 20.0
    opt_retry_ns: float = 30.0

    def __post_init__(self) -> None:
        # Built once: every measured op prices its delta with it.
        object.__setattr__(
            self,
            "_weights",
            tuple(getattr(self, f"{name}_ns") for name in Event.NAMES),
        )

    def weights(self) -> Tuple[float, ...]:
        """Nanoseconds per event, indexed by :class:`Event` id."""
        return self._weights

    def time_ns(self, counts: Iterable[int]) -> float:
        """Simulated time for a bag of events (counts in :class:`Event`
        id order): each count times its weight, summed in id order."""
        return sum(map(mul, counts, self._weights))

    def scaled(self, factor: float) -> "CostModel":
        """A cost model with every latency multiplied by ``factor``."""
        return replace(
            self,
            **{
                f.name: getattr(self, f.name) * factor
                for f in self.__dataclass_fields__.values()  # type: ignore[attr-defined]
            },
        )


#: Bytes moved from memory per event, indexed by :class:`Event` id; used
#: by the bandwidth contention model.
EVENT_BYTES = tuple(
    {
        Event.DRAM_HOP: 64,
        Event.DRAM_SEQ: 16,
        Event.COMPARE: 0,
        Event.MODEL_EVAL: 0,
        Event.KEY_MOVE: 16,
        Event.HASH: 0,
        Event.NVM_READ: 256,
        Event.NVM_WRITE: 256,
        Event.ALLOC: 64,
        Event.RETRAIN_KEY: 16,
        # The latch word / version stamp lives on one cacheline that
        # bounces between the contending cores.
        Event.LATCH_ACQUIRE: 64,
        Event.OPT_RETRY: 64,
    }[event]
    for event in range(len(Event.NAMES))
)


def bytes_touched(counts: Iterable[int]) -> int:
    """Total bytes of memory traffic implied by a bag of events."""
    return sum(map(mul, counts, EVENT_BYTES))
