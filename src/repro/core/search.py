"""Charged searches over sorted arrays: one probe path per search shape.

Every search here finds a key's position in a sorted array and bills the
simulated clock for the probes an index would make to find it.  A probe
compares ``keys[x] <= key``, which over sorted keys equals ``x <= astar``
where ``astar`` is the answer.  So the probe path, and every charge along
it, is a pure function of the range, the guess and the answer.  Each
search therefore takes its answer from :mod:`bisect` (exact on Python
ints and floats) and its charges from a replay of the probe path, issued
as one ``perf.charge`` per event kind.  A gallop that stays far from
both ends of its range depends only on the error ``d = astar - guess``,
so it takes its charges from a per-error memo.  The batch forms
(``*_many``), which every batch read bills through, find ``astar`` for a
whole uint64 batch with one ``searchsorted`` and bill the same replays'
totals once per event kind, so a batch call and the loop of scalar
calls charge the same events by construction.

Each replay classifies every probe: one that lands more than
:data:`PROBE_LOCALITY_KEYS` keys from the previous probe is a cache miss
(``DRAM_HOP``), a nearer one is sequential (``DRAM_SEQ``).  That is how a
model's error reaches the simulated clock: the first log2(error/16)
probes of a correction search all miss.

Search shapes:

* :func:`rank_search` — gallop from a model's guess over ``keys[lo..hi]``
  (leaves, PGM, RMI, RS);
* :func:`exponential_search` — the same gallop over a fence array,
  clamped to 0 (ATS, RMI and LRS routing);
* :func:`bounded_binary_search` — halving inside a known window (B+tree
  routing levels, radix tables, RS knots);
* :func:`node_rank` and :func:`child_slot` — the in-node binary searches
  of the traditional trees, one comparison plus one sequential line per
  probe;
* :func:`scan_rank` — a front-to-back scan of a small sorted pair list,
  one comparison per pair read.

The per-probe loops these replace are the test oracles in
``tests/oracles/search_loops.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Sequence, Tuple

import numpy as np

from repro.errors import EmptyIndexError
from repro.perf.context import PerfContext
from repro.perf.events import Event

#: Keys per cache line (8-byte keys, 64-byte lines); probes that jump
#: further than two lines from the previous probe are charged as cache
#: misses rather than sequential accesses.
PROBE_LOCALITY_KEYS = 16


def _charge(perf: PerfContext, compare: int, hop: int, seq: int) -> None:
    """Issue a replayed search's totals, one call per non-zero event."""
    charge = perf.charge
    if compare:
        charge(Event.COMPARE, compare)
    if hop:
        charge(Event.DRAM_HOP, hop)
    if seq:
        charge(Event.DRAM_SEQ, seq)


# -- gallop from a guess over keys[lo..hi] -----------------------------------


def rank_search(
    keys: Sequence[Any], lo: int, hi: int, key: Any, guess: int,
    perf: PerfContext,
) -> int:
    """Rightmost index in ``[lo, hi]`` with ``keys[i] <= key``; ``lo - 1`` if none.

    ``keys[lo..hi]`` must be sorted and non-empty.  Charged as an
    exponential search from ``guess``: the probe count grows with the
    prediction error, and each probe that jumps beyond cache-line
    locality is a cache miss — the mechanism through which model quality
    reaches the simulated clock.  A search far from both ends of the
    range bills from the per-error memo the batch paths share
    (:func:`rank_replay_charges`).
    """
    astar = bisect_right(keys, key, lo, hi + 1) - 1
    d = astar - guess
    margin = 2 * abs(d) + 2
    if lo + margin <= guess <= hi - margin:
        # No probe can reach an end of the range: d alone sets the path.
        compare, hop, seq = rank_replay_charges(d)
    else:
        compare, hop, seq, _ = replay_rank_search(lo, hi, guess, astar)
    _charge(perf, compare, hop, seq)
    return astar


def replay_rank_search(
    lo: int, hi: int, guess: int, astar: int
) -> Tuple[int, int, int, int]:
    """``(compare, hop, seq, pos)`` of :func:`rank_search`'s probe path.

    The path gallops from ``guess`` (clamped into ``[lo, hi]``) towards
    ``astar`` with doubling steps, then halves the bracketing window.
    ``pos`` equals ``astar`` whenever ``astar`` is in ``[lo - 1, hi]``.
    """
    compare = hop = seq = 0
    if guess < lo:
        guess = lo
    elif guess > hi:
        guess = hi
    prev = guess
    compare += 1
    if guess <= astar:
        a = guess
        bound = 1
        while guess + bound <= hi:
            compare += 1
            d = guess + bound - prev
            if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
                hop += 1
            else:
                seq += 1
            prev = guess + bound
            if guess + bound <= astar:
                a = guess + bound
                bound *= 2
            else:
                break
        b = min(hi, guess + bound)
        while a < b:
            mid = (a + b + 1) // 2
            compare += 1
            d = mid - prev
            if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
                hop += 1
            else:
                seq += 1
            prev = mid
            if mid <= astar:
                a = mid
            else:
                b = mid - 1
        return compare, hop, seq, a
    b = guess
    bound = 1
    while guess - bound >= lo:
        compare += 1
        d = guess - bound - prev
        if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
            hop += 1
        else:
            seq += 1
        prev = guess - bound
        if guess - bound > astar:
            b = guess - bound
            bound *= 2
        else:
            break
    a = guess - bound
    if a < lo:
        a = lo
        compare += 1
        d = a - prev
        if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
            hop += 1
        else:
            seq += 1
        prev = a
        if a > astar:
            return compare, hop, seq, lo - 1
    # Invariant: a <= astar < b; the answer is in [a, b - 1].
    hi2 = b - 1
    while a < hi2:
        mid = (a + hi2 + 1) // 2
        compare += 1
        d = mid - prev
        if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
            hop += 1
        else:
            seq += 1
        prev = mid
        if mid <= astar:
            a = mid
        else:
            hi2 = mid - 1
    return compare, hop, seq, a


#: d -> (compare, hop, seq) of an interior rank search (see
#: :func:`rank_replay_charges`); cleared if wild guesses ever grow it.
_RANK_REPLAY_MEMO: dict = {}


def rank_replay_charges(d: int) -> Tuple[int, int, int]:
    """``(compare, hop, seq)`` of a rank search with error ``d``.

    Valid when ``guess - (2|d| + 2) >= lo`` and
    ``guess + (2|d| + 2) <= hi``: the gallop never exceeds a bound of
    ``2|d|``, so no probe can leave ``[lo, hi]`` and no clamp branch can
    fire — the probe path, and with it the ledger, is then a pure
    function of ``d = astar - guess``, shared across positions and
    across indexes.
    """
    hit = _RANK_REPLAY_MEMO.get(d)
    if hit is None:
        if len(_RANK_REPLAY_MEMO) > 65536:
            _RANK_REPLAY_MEMO.clear()
        span = 2 * abs(d) + 4
        c, h, s, _ = replay_rank_search(0, 2 * span, span, span + d)
        hit = _RANK_REPLAY_MEMO[d] = (c, h, s)
    return hit


# -- gallop from a guess over a whole fence array ----------------------------


def exponential_search(
    fences: Sequence[Any], key: Any, guess: int, perf: PerfContext
) -> int:
    """Exact leaf index from a (possibly wrong) ``guess``.

    Returns the index of the rightmost fence <= key, clamped to 0:
    ``max(0, bisect_right(fences, key) - 1)``.  Charged as a gallop from
    ``guess`` plus a halving of the bracket it finds, each probe a
    comparison and a locality-dependent memory access, so a better guess
    is genuinely cheaper — how prediction quality feeds the simulated
    clock.  A search far from both ends bills from the per-error memo the
    batch paths share (:func:`exp_replay_charges`).
    """
    n = len(fences)
    if n == 0:
        raise EmptyIndexError("no fences to search")
    astar = bisect_right(fences, key) - 1
    d = astar - guess
    margin = 2 * abs(d) + 2
    if margin <= guess <= n - 1 - margin:
        # No probe can reach an end of the array: d alone sets the path.
        compare, hop, seq = exp_replay_charges(d)
        pos = astar
    else:
        compare, hop, seq, pos = replay_exponential_search(n, guess, astar)
    _charge(perf, compare, hop, seq)
    return pos


def replay_exponential_search(n, guess, astar):
    """``(compare, hop, seq, pos)`` of :func:`exponential_search`'s probes.

    ``astar = bisect_right(fences, key) - 1`` (``-1`` when the key
    precedes every fence); ``pos`` is ``max(0, astar)``, the search's
    answer.
    """
    compare = hop = seq = 0
    if guess < 0:
        guess = 0
    elif guess >= n:
        guess = n - 1
    prev = guess
    compare += 1
    if guess <= astar:
        # Gallop right for the first fence > key.
        bound = 1
        while guess + bound < n:
            compare += 1
            d = guess + bound - prev
            if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
                hop += 1
            else:
                seq += 1
            prev = guess + bound
            if guess + bound > astar:
                break
            bound *= 2
        lo = guess + bound // 2
        hi = min(n - 1, guess + bound)
    else:
        # Gallop left for a fence <= key.
        bound = 1
        while guess - bound >= 0:
            compare += 1
            d = guess - bound - prev
            if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
                hop += 1
            else:
                seq += 1
            prev = guess - bound
            if guess - bound <= astar:
                break
            bound *= 2
        lo = max(0, guess - bound)
        hi = guess - bound // 2
    # Halve [lo, hi] for the rightmost fence <= key.
    while lo < hi:
        mid = (lo + hi + 1) // 2
        compare += 1
        d = mid - prev
        if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
            hop += 1
        else:
            seq += 1
        prev = mid
        if mid <= astar:
            lo = mid
        else:
            hi = mid - 1
    return compare, hop, seq, lo


#: d -> (compare, hop, seq) of an interior exponential search (see
#: :func:`exp_replay_charges`); probe paths this far from the borders
#: depend only on the prediction error, so the memo is index-agnostic
#: (cleared if wild guesses ever grow it).
_EXP_REPLAY_MEMO: dict = {}


def exp_replay_charges(d: int):
    """``(compare, hop, seq)`` of an exponential search with error ``d``.

    Valid when every probe provably stays inside the fence array:
    ``guess - (2|d| + 2) >= 0`` and ``guess + (2|d| + 2) <= n - 1``
    (gallop bounds never exceed ``2|d|``, so neither loop condition nor
    a lo/hi clamp can fire).  Interior probe paths are then translation
    invariant — a pure function of ``d = astar - guess`` — which lets
    batch paths bill thousands of searches from a tiny memo instead of
    replaying each one.
    """
    hit = _EXP_REPLAY_MEMO.get(d)
    if hit is None:
        if len(_EXP_REPLAY_MEMO) > 65536:
            _EXP_REPLAY_MEMO.clear()
        span = 2 * abs(d) + 4
        c, h, s, _ = replay_exponential_search(2 * span + 1, span, span + d)
        hit = _EXP_REPLAY_MEMO[d] = (c, h, s)
    return hit


# -- halving inside a known window -------------------------------------------


def bounded_binary_search(
    fences: Sequence[Any], key: Any, lo: int, hi: int, perf: PerfContext
) -> int:
    """Rightmost fence <= key within ``[lo, hi]`` (``0 <= lo``).

    The halving never probes ``fences[lo]``: the window is assumed to
    start at or below the key, so a key below every fence in it answers
    ``lo``.
    """
    compare, hop, seq, pos = replay_bounded_binary_search(
        lo, hi, bisect_right(fences, key, lo, hi + 1) - 1
    )
    _charge(perf, compare, hop, seq)
    return pos


def replay_bounded_binary_search(lo, hi, astar):
    """``(compare, hop, seq, pos)`` of :func:`bounded_binary_search`'s
    probes: each ``fences[mid] <= key`` is ``mid <= astar``."""
    compare = hop = seq = 0
    prev = (lo + hi + 1) // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        compare += 1
        d = mid - prev
        if d > PROBE_LOCALITY_KEYS or d < -PROBE_LOCALITY_KEYS:
            hop += 1
        else:
            seq += 1
        prev = mid
        if mid <= astar:
            lo = mid
        else:
            hi = mid - 1
    return compare, hop, seq, max(0, lo)


# -- batch forms: one searchsorted answers, the replays bill -----------------

#: A gallop over at most this many keys bills from one table of every
#: (guess, answer) pair's charges, built once per array length.
GALLOP_TABLE_KEYS = 16

#: (replay, n) -> int64 array of shape (n * (n + 1), 3): row
#: ``guess * (n + 1) + astar + 1`` holds that search's charges.
_GALLOP_TABLES: dict = {}


def _replay_rank(n, guess, astar):
    return replay_rank_search(0, n - 1, guess, astar)


def _gallop_charges(n, guess, astar, replay, charges_of_d):
    """Total ``(compare, hop, seq)`` of a batch of gallops over ``n`` keys.

    The replays clamp each guess into ``[0, n - 1]`` first, so the batch
    does too.  Over a longer array, a query whose probes provably stay
    inside it bills from the per-error memo, and the rest replay.
    """
    guess = np.minimum(np.maximum(guess, 0), n - 1)
    if n <= GALLOP_TABLE_KEYS:
        table = _GALLOP_TABLES.get((replay, n))
        if table is None:
            table = _GALLOP_TABLES[replay, n] = np.array(
                [replay(n, g, a)[:3] for g in range(n) for a in range(-1, n)],
                dtype=np.int64,
            )
        pairs = np.bincount(guess * (n + 1) + astar + 1, minlength=len(table))
        return (pairs @ table).tolist()
    d = astar - guess
    margin = 2 * np.abs(d) + 2
    inside = (guess >= margin) & (guess + margin <= n - 1)
    compare = hop = seq = 0
    border = np.flatnonzero(~inside)
    for g, a in zip(guess[border].tolist(), astar[border].tolist()):
        c, h, s, _ = replay(n, g, a)
        compare += c
        hop += h
        seq += s
    errors, counts = np.unique(d[inside], return_counts=True)
    for dv, count in zip(errors.tolist(), counts.tolist()):
        c, h, s = charges_of_d(dv)
        compare += c * count
        hop += h * count
        seq += s * count
    return compare, hop, seq


def rank_search_many(keys, qs, guess, perf: PerfContext):
    """Batch :func:`rank_search` over all of a sorted non-empty uint64
    array, from int64 guesses: each query's rank (-1 if none) as an int64
    array."""
    n = len(keys)
    astar = np.searchsorted(keys, qs, side="right") - 1
    _charge(perf, *_gallop_charges(
        n, guess, astar, _replay_rank, rank_replay_charges
    ))
    return astar


def exponential_search_many(fences, qs, guess, perf: PerfContext):
    """Batch :func:`exponential_search` over a sorted uint64 fence array:
    each query's rightmost fence <= it, clamped to 0, as an int64 array."""
    n = len(fences)
    if n == 0:
        raise EmptyIndexError("no fences to search")
    astar = np.searchsorted(fences, qs, side="right") - 1
    _charge(perf, *_gallop_charges(
        n, guess, astar, replay_exponential_search, exp_replay_charges
    ))
    return np.maximum(astar, 0)


#: (width, offset + 1) -> charges of a halving (see
#: :func:`bounded_binary_search_many`); cleared if it ever grows large.
_HALVING_MEMO: dict = {}


def bounded_binary_search_many(fences, qs, lo, hi, perf: PerfContext):
    """Batch :func:`bounded_binary_search`, query ``i`` in the window
    ``[lo[i], hi[i]]``.  A halving's probes depend only on the window's
    width and the answer's offset in it: each distinct pair replays once.
    """
    astar = np.searchsorted(fences, qs, side="right") - 1
    off = np.clip(astar, lo - 1, hi) - lo  # in [-1, width]
    if not off.size:
        return off
    width = hi - lo
    span = int(width.max()) + 2
    codes, counts = np.unique(width * span + off + 1, return_counts=True)
    compare = hop = seq = 0
    memo = _HALVING_MEMO
    if len(memo) > 65536:
        memo.clear()
    for code, count in zip(codes.tolist(), counts.tolist()):
        w, o = divmod(code, span)
        hit = memo.get((w, o))
        if hit is None:
            hit = memo[w, o] = replay_bounded_binary_search(0, w, o - 1)[:3]
        compare += hit[0] * count
        hop += hit[1] * count
        seq += hit[2] * count
    _charge(perf, compare, hop, seq)
    return lo + np.maximum(off, 0)


# -- in-node binary searches of the traditional trees ------------------------


def node_rank(keys: Sequence[Any], key: Any, perf: PerfContext) -> int:
    """Rightmost index with ``keys[i] <= key`` in a sorted node, or -1.

    Charged as the textbook ``lo <= hi`` halving: one ``COMPARE`` and
    one ``DRAM_SEQ`` per probe (a node spans a few cache lines).
    """
    astar = bisect_right(keys, key) - 1
    probes = replay_node_rank(len(keys), astar)
    if probes:
        perf.charge(Event.COMPARE, probes)
        perf.charge(Event.DRAM_SEQ, probes)
    return astar


def replay_node_rank(n: int, astar: int) -> int:
    """Probes the ``lo <= hi`` halving over ``n`` keys makes to find
    ``astar`` (``keys[mid] <= key`` is ``mid <= astar``)."""
    probes = 0
    lo, hi = 0, n - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        if mid <= astar:
            lo = mid + 1
        else:
            hi = mid - 1
    return probes


def child_slot(keys: Sequence[Any], key: Any, perf: PerfContext) -> int:
    """``bisect_right(keys, key)``: the inner-node child covering ``key``.

    Charged as the ``lo < hi`` halving over the separators: one
    ``COMPARE`` and one ``DRAM_SEQ`` per probe.
    """
    slot = bisect_right(keys, key)
    probes = replay_child_slot(len(keys), slot)
    if probes:
        perf.charge(Event.COMPARE, probes)
        perf.charge(Event.DRAM_SEQ, probes)
    return slot


def replay_child_slot(n: int, slot: int) -> int:
    """Probes the ``lo < hi`` halving over ``n`` separators makes to find
    ``slot`` (``keys[mid] <= key`` is ``mid < slot``)."""
    probes = 0
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if mid < slot:
            lo = mid + 1
        else:
            hi = mid
    return probes


# -- front-to-back scan of a sorted pair list --------------------------------

_first = itemgetter(0)


def scan_rank(
    pairs: Sequence[Tuple[Any, Any]], key: Any, perf: PerfContext
) -> int:
    """Index of the first pair whose key is >= ``key`` (``len`` if none).

    Charged as the front-to-back scan that stops there: one ``COMPARE``
    per pair read, the stopping pair included.
    """
    i = bisect_left(pairs, key, key=_first)
    compared = i + 1 if i < len(pairs) else i
    if compared:
        perf.charge(Event.COMPARE, compared)
    return i
