"""``GappedLeaf`` with the ``(page, slot)`` tuple values ``ViperStore``
stores in it.

The leaf keeps its values in a 1-d numpy object array.  Converting a
value list with ``np.array(values, dtype=object)`` would turn a list of
equal-length tuples into a 2-d array, so every path that moves values
runs here with tuples, next to two references:

* the per-key answers: ``get`` key by key, and a dict that takes the same
  writes one key at a time (the last duplicate wins);
* a twin leaf over the same segment whose values are ints, one per
  tuple, taking the same calls.  ``insert_batch`` re-spreads the slot
  array and bills a coarse aggregate, so the twin, not a per-key insert
  loop, is what its slot layout and full ``Counters`` must equal; the
  old values it returns must equal a per-key ``upsert`` loop's.

A retrain through ``ExpandOrSplitPolicy`` reads the leaf's arrays; its
per-key path is the retrain as it ran on ``items()`` lists, rebuilt here,
and the new leaves must equal it in layout, model, stored values and the
retrain's full ``Counters``.  Pieces under 64 keys take
``GappedSegment``'s point-by-point placement.
"""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion.base import object_array
from repro.core.insertion.gapped import GappedLeaf
from repro.core.retraining import ExpandOrSplitPolicy
from repro.perf.context import PerfContext
from repro.perf.events import Event

SLOTS_PER_PAGE = 16


def _loc(key, gen=0):
    """A ``(page, slot)`` location, as ``ViperStore`` stores it."""
    return (key % 7919 + 8000 * gen, key % SLOTS_PER_PAGE)


def _code(loc):
    """The twin's int value for a location (one int per location)."""
    return None if loc is None else loc[0] * SLOTS_PER_PAGE + loc[1]


def _keys(n, seed, lo=1, hi=2**40):
    return sorted(random.Random(seed).sample(range(lo, hi), n))


def _twins(keys, density=0.5, upper_density=0.8):
    """A tuple-valued leaf and its int-valued twin over one segment."""
    segment = GappedSegment(keys[0], 0, keys, density)
    values = [_loc(k) for k in keys]
    perf_t, perf_i = PerfContext(), PerfContext()
    tup = GappedLeaf(segment, values, perf_t, upper_density)
    codes = [_code(v) for v in values]
    twin = GappedLeaf(segment, codes, perf_i, upper_density)
    return tup, perf_t, twin, perf_i


def _stored(leaf):
    """Every slot's value, ``None`` for a gap."""
    return leaf._values.tolist()


def _assert_twins(tup, perf_t, twin, perf_i, model):
    """Same slots, same charges, the same values slot by slot, and the
    per-key answers of ``model``."""
    assert tup._values.ndim == 1
    assert tup.slot_layout() == twin.slot_layout()
    assert perf_t.counters == perf_i.counters
    assert [_code(v) for v in _stored(tup)] == _stored(twin)
    assert tup.items() == sorted(model.items())
    assert all(type(v) is tuple for _, v in tup.items())


def test_insert_batch_fresh_overwrite_and_duplicates():
    keys = _keys(3000, seed=1)
    tup, perf_t, twin, perf_i = _twins(keys)
    model = {k: _loc(k) for k in keys}
    rng = random.Random(2)
    key_set = set(keys)
    fresh = [k for k in rng.sample(range(1, 2**40), 300) if k not in key_set]
    over = rng.sample(keys, 200)
    dups = rng.sample(fresh, 40) + rng.sample(over, 40)
    writes = (
        [(k, _loc(k, 1)) for k in fresh]
        + [(k, _loc(k, 2)) for k in over]
        + [(k, _loc(k, 3)) for k in dups]
    )
    # Sorted stably, so each key's duplicates keep their write order.
    run = sorted(writes, key=lambda kv: kv[0])
    loop, _, _, _ = _twins(keys)
    want_olds = [loop.upsert(k, v)[1] for k, v in run]
    model_olds = []
    for k, v in run:
        model_olds.append(model.get(k))
        model[k] = v  # the per-key path: the last duplicate wins
    assert want_olds == model_olds
    # Hits, misses, and repeats that read their predecessor's value.
    assert None in want_olds and _loc(over[0]) in want_olds
    assert _loc(dups[0], 1) in want_olds and _loc(dups[-1], 2) in want_olds
    ks = np.array([k for k, _ in run], dtype=np.uint64)
    got_t = tup.insert_batch(ks, object_array([v for _, v in run]))
    got_i = twin.insert_batch(ks, object_array([_code(v) for _, v in run]))
    assert got_t[0] == got_i[0] == len(set(fresh))
    assert got_t[1].tolist() == want_olds
    assert got_i[1].tolist() == [_code(v) for v in want_olds]
    _assert_twins(tup, perf_t, twin, perf_i, model)
    probe = sorted(model)
    assert [tup.get(k) for k in probe] == [model[k] for k in probe]
    assert [twin.get(k) for k in probe] == [_code(model[k]) for k in probe]
    assert perf_t.counters == perf_i.counters


def test_get_many_scan_from_and_items():
    keys = _keys(2000, seed=3)
    tup, perf_t, twin, perf_i = _twins(keys)
    model = {k: _loc(k) for k in keys}
    rng = random.Random(4)
    queries = sorted(rng.sample(keys, 300) + rng.sample(range(1, 2**40), 100))
    per_key = [model.get(q) for q in queries]
    for batch in (queries, np.array(queries, dtype=np.uint64), queries[:5]):
        want = per_key[: len(batch)]
        assert tup.get_many(batch) == want
        assert twin.get_many(batch) == [_code(v) for v in want]
    assert [tup.get(q) for q in queries] == per_key
    assert [twin.get(q) for q in queries] == [_code(v) for v in per_key]
    ordered = sorted(model.items())
    starts = ((0, 50), (keys[700], 64), (keys[-3], 10), (keys[-1] + 1, 5))
    for lo, limit in starts:
        start = sum(1 for k, _ in ordered if k < lo)
        want = ordered[start : start + limit]
        assert tup.scan_from(lo, limit) == want
        assert twin.scan_from(lo, limit) == [(k, _code(v)) for k, v in want]
    _assert_twins(tup, perf_t, twin, perf_i, model)


def _retrain_per_key(policy, leaf, perf):
    """The expand-or-split retrain as it ran on ``items()`` lists."""
    items = leaf.items()
    keys = [k for k, _ in items]
    values = [v for _, v in items]
    perf.charge(Event.RETRAIN_KEY, len(keys))
    pressure = leaf._move_ema > GappedLeaf.MOVE_EMA_LIMIT and len(keys) >= 64

    def build(keys, values, depth, force):
        seg = GappedSegment(keys[0], 0, keys, policy.density)
        fits = (
            not force
            and seg.avg_error <= policy.split_error_threshold
            and len(keys) <= policy.max_leaf_keys
        )
        if fits or len(keys) < 4 or depth >= 12:
            perf.charge(Event.ALLOC)
            return [GappedLeaf(seg, values, perf)]
        mid = len(keys) // 2
        return build(keys[:mid], values[:mid], depth + 1, False) + build(
            keys[mid:], values[mid:], depth + 1, False
        )

    return build(keys, values, 0, pressure)


def _retrain_both_ways(keys, pressure=False):
    """Retrain one tuple-valued leaf through the policy and per key."""
    policy = ExpandOrSplitPolicy(density=0.6)
    built = []
    for _ in range(2):
        tup, _, _, _ = _twins(keys)
        if pressure:
            tup._move_ema = GappedLeaf.MOVE_EMA_LIMIT + 1.0
        built.append(tup)
    perf_a, perf_p = PerfContext(), PerfContext()
    index = SimpleNamespace(leaves=[built[0]], perf=perf_a, name="t")
    got = policy.retrain_leaf(index, 0)
    want = _retrain_per_key(policy, built[1], perf_p)
    assert perf_a.counters == perf_p.counters
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a._values.ndim == 1
        assert (a.model, a.slots, a.first_key, a.n) == (
            b.model, b.slots, b.first_key, b.n
        )
        assert type(a.first_key) is int
        assert a.slot_layout() == b.slot_layout()
        assert _stored(a) == _stored(b)
        assert a.items() == b.items()
    merged = [kv for leaf in got for kv in leaf.items()]
    assert merged == [(k, _loc(k)) for k in keys]
    return got


def test_expand_rebuilds_one_leaf():
    got = _retrain_both_ways(_keys(2000, seed=5))
    assert len(got) == 1
    assert got[0].slots > 2000 / 0.8  # re-spread at the lower density


def test_expand_of_a_small_leaf_places_point_by_point():
    got = _retrain_both_ways(_keys(40, seed=6))
    assert len(got) == 1


@pytest.mark.parametrize("n", [100, 126])
def test_pressure_split_places_halves_point_by_point(n):
    got = _retrain_both_ways(_keys(n, seed=7), pressure=True)
    assert [leaf.n for leaf in got] == [n // 2, n - n // 2]
    assert all(leaf.n < 64 for leaf in got)


def test_split_of_clustered_keys():
    """A CDF with a step: the refit model misses, so the leaf splits,
    and the placement of the clustered pieces grows their slot arrays."""
    rng = random.Random(8)
    keys = sorted(
        rng.sample(range(10**6), 1500)
        + rng.sample(range(10**12, 10**12 + 10**4), 500)
    )
    got = _retrain_both_ways(keys)
    assert len(got) > 1
    assert any(leaf.slots > math.ceil(leaf.n / 0.6) for leaf in got)
