"""Every charged search equals the per-probe loop it replaces.

``repro.core.search`` answers each search with ``bisect`` and charges it
from a replay of the probe path; ``tests/oracles/search_loops.py`` keeps
the loops that read the keys and charge each probe as they go.  For every
search shape, seeded random cases (at least 10,000 per shape) and an
exhaustive sweep of small arrays compare the answer and the full event
ledger.
"""

import random
from bisect import bisect_right

import pytest

from repro.core import search
from repro.errors import EmptyIndexError
from repro.perf import PerfContext
from tests.oracles import search_loops as loops

CASES = 10_000


def _sorted_keys(rng, n):
    """Up to ``n`` unique ascending keys: dense, sparse, near 2^60, or
    spread over the whole uint64 range."""
    shape = rng.randrange(4)
    if shape == 0:
        start = rng.randrange(100)
        return list(range(start, start + 3 * n, 3))
    if shape == 1:
        return sorted(rng.sample(range(10 * n + 10), n))
    if shape == 2:
        base = 2**60 + rng.randrange(1000)
        return sorted(rng.sample(range(base, base + 50 * n + 50), n))
    return sorted({rng.randrange(2**64) for _ in range(n)})


def _probe(rng, keys):
    """A key to search for: stored, between, below or above the keys,
    integer or float."""
    if not keys:
        return rng.choice([0, -1, 2.5])
    k = rng.choice(keys)
    return rng.choice([
        k, k - 1, k + 1, k + 0.5, k - 0.5, float(k),
        keys[0] - 1, keys[0] - 0.5, -3, keys[-1] + 1, keys[-1] + 0.5,
    ])


def _guess(rng, lo, hi, near):
    """A model guess: near the answer, anywhere in range, or outside it."""
    kind = rng.randrange(5)
    if kind == 0:
        return near + rng.randint(-3, 3)
    if kind == 1:
        return near + rng.randint(-200, 200)
    if kind == 2:
        return rng.randint(lo, hi)
    if kind == 3:
        return rng.choice([lo - 1, lo, hi, hi + 1])
    return rng.choice(
        [-10**6, lo - rng.randint(1, 50), hi + rng.randint(1, 50)]
    )


def _size(rng):
    return rng.choice([
        1, 2, 3, rng.randint(4, 40), rng.randint(4, 40), rng.randint(40, 300),
        rng.randint(300, 3000),
    ])


def _same(new, old, *args):
    """Run a production search and its loop on fresh ledgers; compare."""
    perf_new, perf_old = PerfContext(), PerfContext()
    got = new(*args, perf_new)
    want = old(*args, perf_old)
    assert got == want, (new.__name__, args[1:])
    assert perf_new.counters == perf_old.counters, (
        new.__name__, args[1:], perf_new.counters, perf_old.counters
    )


def _arrays(seed, count=80):
    rng = random.Random(seed)
    return rng, [_sorted_keys(rng, _size(rng)) for _ in range(count)]


def test_rank_search_matches_loop():
    rng, arrays = _arrays(101)
    for _ in range(CASES):
        keys = rng.choice(arrays)
        n = len(keys)
        lo = rng.choice([0, 0, rng.randrange(n)])
        hi = rng.choice([n - 1, n - 1, rng.randint(lo, n - 1)])
        key = _probe(rng, keys[lo : hi + 1])
        near = bisect_right(keys, key, lo, hi + 1) - 1
        _same(search.rank_search, loops.rank_search,
              keys, lo, hi, key, _guess(rng, lo, hi, near))


def test_exponential_search_matches_loop():
    rng, arrays = _arrays(202)
    for _ in range(CASES):
        fences = rng.choice(arrays)
        n = len(fences)
        key = _probe(rng, fences)
        near = bisect_right(fences, key) - 1
        _same(search.exponential_search, loops.exponential_search,
              fences, key, _guess(rng, 0, n - 1, near))


def test_exponential_search_rejects_empty_fences():
    for fn in (search.exponential_search, loops.exponential_search):
        with pytest.raises(EmptyIndexError):
            fn([], 5, 0, PerfContext())


def test_bounded_binary_search_matches_loop():
    rng, arrays = _arrays(303)
    for _ in range(CASES):
        fences = rng.choice(arrays)
        n = len(fences)
        lo = rng.randrange(n)
        hi = rng.choice([lo, min(n - 1, lo + rng.randint(0, 70)),
                         rng.randint(lo, n - 1)])
        key = _probe(rng, fences[lo : hi + 1])
        _same(search.bounded_binary_search, loops.bounded_binary_search,
              fences, key, lo, hi)


def test_node_rank_matches_loop():
    rng = random.Random(404)
    for _ in range(CASES):
        keys = _sorted_keys(rng, rng.choice([0, 1, 2, rng.randint(3, 300)]))
        _same(search.node_rank, loops.node_rank, keys, _probe(rng, keys))


def test_child_slot_matches_loop():
    rng = random.Random(505)
    for _ in range(CASES):
        keys = _sorted_keys(rng, rng.choice([0, 1, 2, rng.randint(3, 300)]))
        _same(search.child_slot, loops.child_slot, keys, _probe(rng, keys))


def test_scan_rank_matches_loop():
    rng = random.Random(606)
    for _ in range(CASES):
        keys = _sorted_keys(rng, rng.choice([0, 1, 2, rng.randint(3, 130)]))
        pairs = [(k, object()) for k in keys]
        _same(search.scan_rank, loops.scan_rank, pairs, _probe(rng, keys))


# -- exhaustive borders: every guess, every answer, small arrays -------------

SMALL = range(1, 36)


def _every_probe(keys):
    """A probe for every answer: below all, each key, each gap, above all."""
    return [keys[0] - 1] + [p for k in keys for p in (k, k + 1)]


@pytest.mark.parametrize("n", SMALL)
def test_rank_and_exponential_search_borders(n):
    keys = list(range(0, 2 * n, 2))
    for key in _every_probe(keys):
        for guess in range(-2, n + 2):
            _same(search.rank_search, loops.rank_search,
                  keys, 0, n - 1, key, guess)
            _same(search.exponential_search, loops.exponential_search,
                  keys, key, guess)
        if n > 2:  # a sub-range with room outside it on both sides
            for guess in (0, 1, n // 2, n - 2, n - 1):
                _same(search.rank_search, loops.rank_search,
                      keys, 1, n - 2, key, guess)


@pytest.mark.parametrize("n", SMALL)
def test_halving_searches_borders(n):
    keys = list(range(0, 2 * n, 2))
    pairs = [(k, k) for k in keys]
    for key in _every_probe(keys):
        _same(search.node_rank, loops.node_rank, keys, key)
        _same(search.child_slot, loops.child_slot, keys, key)
        _same(search.scan_rank, loops.scan_rank, pairs, key)
        for lo in range(n):
            for hi in (lo, min(n - 1, lo + 1), min(n - 1, lo + 17), n - 1):
                _same(search.bounded_binary_search,
                      loops.bounded_binary_search, keys, key, lo, hi)
