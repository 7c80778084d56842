"""The per-probe search loops that ``repro.core.search`` replays.

Each loop reads the keys and charges every probe as it makes it.  The
production searches take their answer from ``bisect`` and their charges
from a replay of the same probe path; ``tests/test_search_oracle.py``
holds them equal to these loops in answer and in every event count.
"""

from typing import Any, Sequence, Tuple

from repro.core.search import PROBE_LOCALITY_KEYS
from repro.errors import EmptyIndexError
from repro.perf import Event, PerfContext


def charge_probe(perf: PerfContext, distance: int) -> None:
    """Charge one search probe at ``distance`` keys from the previous one:
    a cache miss beyond two lines, a sequential access within them."""
    if distance > PROBE_LOCALITY_KEYS or distance < -PROBE_LOCALITY_KEYS:
        perf.charge(Event.DRAM_HOP)
    else:
        perf.charge(Event.DRAM_SEQ)


def rank_search(
    keys: Any, lo: int, hi: int, key: int, guess: int, perf: PerfContext
) -> int:
    """Rightmost index in ``[lo, hi]`` with ``keys[i] <= key``; ``lo - 1``
    if none.  Exponential search from ``guess``, then binary search."""
    charge = perf.charge
    if guess < lo:
        guess = lo
    elif guess > hi:
        guess = hi
    prev = guess
    charge(Event.COMPARE)
    if keys[guess] <= key:
        a = guess
        bound = 1
        while guess + bound <= hi:
            charge(Event.COMPARE)
            charge_probe(perf, guess + bound - prev)
            prev = guess + bound
            if keys[guess + bound] <= key:
                a = guess + bound
                bound *= 2
            else:
                break
        b = min(hi, guess + bound)
        while a < b:
            mid = (a + b + 1) // 2
            charge(Event.COMPARE)
            charge_probe(perf, mid - prev)
            prev = mid
            if keys[mid] <= key:
                a = mid
            else:
                b = mid - 1
        return a
    b = guess
    bound = 1
    while guess - bound >= lo:
        charge(Event.COMPARE)
        charge_probe(perf, guess - bound - prev)
        prev = guess - bound
        if keys[guess - bound] > key:
            b = guess - bound
            bound *= 2
        else:
            break
    a = guess - bound
    if a < lo:
        a = lo
        charge(Event.COMPARE)
        charge_probe(perf, a - prev)
        prev = a
        if keys[a] > key:
            return lo - 1
    # Invariant: keys[a] <= key < keys[b]; rightmost <= key is in [a, b-1].
    hi2 = b - 1
    while a < hi2:
        mid = (a + hi2 + 1) // 2
        charge(Event.COMPARE)
        charge_probe(perf, mid - prev)
        prev = mid
        if keys[mid] <= key:
            a = mid
        else:
            hi2 = mid - 1
    return a


def exponential_search(
    fences: Sequence[int], key: int, guess: int, perf: PerfContext
) -> int:
    """Index of the rightmost fence <= key (clamped to 0) from ``guess``."""
    n = len(fences)
    if n == 0:
        raise EmptyIndexError("no fences to search")
    if guess < 0:
        guess = 0
    elif guess >= n:
        guess = n - 1

    charge = perf.charge
    prev = guess
    charge(Event.COMPARE)
    if fences[guess] <= key:
        # Gallop right for the first fence > key.
        bound = 1
        while guess + bound < n:
            charge(Event.COMPARE)
            charge_probe(perf, guess + bound - prev)
            prev = guess + bound
            if fences[guess + bound] > key:
                break
            bound *= 2
        lo = guess + bound // 2
        hi = min(n - 1, guess + bound)
    else:
        # Gallop left for a fence <= key.
        bound = 1
        while guess - bound >= 0:
            charge(Event.COMPARE)
            charge_probe(perf, guess - bound - prev)
            prev = guess - bound
            if fences[guess - bound] <= key:
                break
            bound *= 2
        lo = max(0, guess - bound)
        hi = guess - bound // 2
    # Binary search for rightmost fence <= key within [lo, hi].
    while lo < hi:
        mid = (lo + hi + 1) // 2
        charge(Event.COMPARE)
        charge_probe(perf, mid - prev)
        prev = mid
        if fences[mid] <= key:
            lo = mid
        else:
            hi = mid - 1
    return lo


def bounded_binary_search(
    fences: Sequence[int], key: int, lo: int, hi: int, perf: PerfContext
) -> int:
    """Rightmost fence <= key within ``[lo, hi]``, charging per probe."""
    charge = perf.charge
    prev = (lo + hi + 1) // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        charge(Event.COMPARE)
        charge_probe(perf, mid - prev)
        prev = mid
        if fences[mid] <= key:
            lo = mid
        else:
            hi = mid - 1
    return max(0, lo)


def node_rank(keys: Sequence[int], key: int, perf: PerfContext) -> int:
    """Rightmost index with ``keys[i] <= key``, or -1 (the B+tree, Bw-tree
    and Wormhole leaf search)."""
    charge = perf.charge
    lo, hi = 0, len(keys) - 1
    ans = -1
    while lo <= hi:
        mid = (lo + hi) // 2
        charge(Event.COMPARE)
        charge(Event.DRAM_SEQ)
        if keys[mid] <= key:
            ans = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return ans


def child_slot(keys: Sequence[int], key: int, perf: PerfContext) -> int:
    """Binary search for the B+tree child covering ``key``."""
    charge = perf.charge
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        charge(Event.COMPARE)
        charge(Event.DRAM_SEQ)
        if key < keys[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def scan_rank(
    pairs: Sequence[Tuple[int, Any]], key: int, perf: PerfContext
) -> int:
    """The dynamic PGM staging-buffer scan: front to back, one comparison
    per pair, stopping at the key or the first larger one."""
    for i, (k, _) in enumerate(pairs):
        perf.charge(Event.COMPARE)
        if k == key:
            return i
        if k > key:
            return i
    return len(pairs)
