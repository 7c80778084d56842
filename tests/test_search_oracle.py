"""Every charged search equals the per-probe loop it replaces.

``repro.core.search`` answers each search with ``bisect`` and charges it
from a replay of the probe path; ``tests/oracles/search_loops.py`` keeps
the loops that read the keys and charge each probe as they go.  For every
search shape, seeded random cases (at least 10,000 per shape) and an
exhaustive sweep of small arrays compare the answer and the full event
ledger.  The batch forms answer a batch with one ``searchsorted`` and
bill the same replays; each is held equal to the loop of its scalar
search over every (guess, answer) pair of small arrays and over seeded
large ones, next to 2^63 and 2^64 - 1 too.
"""

import random
from bisect import bisect_right

import numpy as np
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


# -- batch forms: each equals the loop of its scalar search ------------------


def _same_batch(many, scalar, keys, queries, *per_query):
    """Run a batch form once and its scalar search per query on fresh
    ledgers; compare the answers and the full ledgers.  ``per_query``
    holds one list per trailing scalar argument (a guess, or a window's
    bounds)."""
    perf_many, perf_loop = PerfContext(), PerfContext()
    arrays = [np.array(a, dtype=np.int64) for a in per_query]
    got = many(np.array(keys, dtype=np.uint64),
               np.array(queries, dtype=np.uint64), *arrays, perf_many)
    want = [scalar(keys, q, *args, perf_loop)
            for q, *args in zip(queries, *per_query)]
    assert got.tolist() == want, many.__name__
    assert perf_many.counters == perf_loop.counters, (
        many.__name__, perf_many.counters, perf_loop.counters
    )


def _rank_whole(keys, key, guess, perf):
    return search.rank_search(keys, 0, len(keys) - 1, key, guess, perf)


def _bounded(keys, key, lo, hi, perf):
    return search.bounded_binary_search(keys, key, lo, hi, perf)


def _every_pair(keys):
    """Every query of :func:`_every_probe` at every guess in and around
    the array, as parallel query and guess lists."""
    n = len(keys)
    probes = [p for p in _every_probe(keys) if p >= 0]
    pairs = [(p, g) for p in probes for g in range(-2, n + 2)]
    return [p for p, _ in pairs], [g for _, g in pairs]


@pytest.mark.parametrize("base", [1, 2**63 - 41, 2**64 - 81])
def test_gallop_batch_forms_every_guess_and_answer(base):
    """Arrays of 1-40 keys, so both billing paths (the table up to
    ``GALLOP_TABLE_KEYS``, the memo and border replays above it), every
    answer at every guess, next to 2^63 and to 2^64 - 1 too."""
    for n in range(1, 41):
        keys = list(range(base, base + 2 * n, 2))
        queries, guesses = _every_pair(keys)
        _same_batch(search.rank_search_many, _rank_whole,
                    keys, queries, guesses)
        _same_batch(search.exponential_search_many,
                    search.exponential_search, keys, queries, guesses)


@pytest.mark.parametrize("base", [1, 2**64 - 81])
def test_halving_batch_form_every_window_and_answer(base):
    for n in range(1, 41):
        keys = list(range(base, base + 2 * n, 2))
        windows = [(lo, hi) for lo in range(n)
                   for hi in sorted({lo, min(n - 1, lo + 1),
                                     min(n - 1, lo + 17), n - 1})]
        cases = [(p, lo, hi) for lo, hi in windows
                 for p in _every_probe(keys[lo : hi + 1])]
        _same_batch(search.bounded_binary_search_many, _bounded, keys,
                    [p for p, _, _ in cases], [lo for _, lo, _ in cases],
                    [hi for _, _, hi in cases])


def _large_case(rng):
    """A sorted array past the gallop table's size, with queries at both
    borders and inside, and guesses near, far from and outside them."""
    n = rng.randint(search.GALLOP_TABLE_KEYS + 1, 3000)
    shape = rng.randrange(3)
    if shape == 0:
        keys = sorted(rng.sample(range(1, 20 * n), n))
    elif shape == 1:  # straddling 2^63
        keys = sorted(rng.sample(range(2**63 - 10 * n, 2**63 + 10 * n), n))
    else:  # up to 2^64 - 1
        keys = sorted(rng.sample(range(2**64 - 20 * n, 2**64), n))
    queries, guesses = [], []
    for _ in range(600):
        at = rng.choice([rng.randrange(8), n - 1 - rng.randrange(8),
                         rng.randrange(n)])
        q = min(keys[at] + rng.choice([-1, 0, 0, 1]), 2**64 - 1)
        near = bisect_right(keys, q) - 1
        queries.append(max(q, 0))
        guesses.append(_guess(rng, 0, n - 1, near))
    return keys, queries, guesses


def test_batch_forms_on_large_arrays():
    rng = random.Random(707)
    for _ in range(40):
        keys, queries, guesses = _large_case(rng)
        _same_batch(search.rank_search_many, _rank_whole,
                    keys, queries, guesses)
        _same_batch(search.exponential_search_many,
                    search.exponential_search, keys, queries, guesses)
        n = len(keys)
        los = [rng.randrange(n) for _ in queries]
        his = [min(n - 1, lo + rng.choice([0, 1, 15, 64, n])) for lo in los]
        inside = [min(max(q, keys[lo]), keys[hi])
                  for q, lo, hi in zip(queries, los, his)]
        _same_batch(search.bounded_binary_search_many, _bounded,
                    keys, inside, los, his)
