"""One key domain: every write that stores a key or a value, in every
index and both engine classes, refuses a key outside uint64 before it
changes anything, and ``delete`` finds its key as a lookup does.

A storable key is an ``int`` (not a ``bool``) in [0, 2^64), exactly what
``as_u64`` converts.  Each write below carries one bad key (NaN, -1, 5.5,
2^64 or the integral float 3.0) in mid-batch, after a fresh key, and must
raise ``InvalidKeysError`` and leave the loaded target as it was: its
``len``, its ``get_many`` answers and its scan.  The fresh keys sit on
both shards of a 2-shard engine, so a batch refused by one shard only
would show.  A read-only spec's write raises a typed error and changes
nothing; for an in-domain key it is ``UnsupportedOperationError``.
"""

import pytest

from repro.concurrency.parallel import (
    parallel_sharded_index,
    parallel_sharded_store,
)
from repro.core.interfaces import SortedIndex
from repro.errors import InvalidKeysError, UnsupportedOperationError
from repro.perf import PerfContext
from repro.registry import specs
from repro.store.viper import ViperStore

SPECS = specs()
UPDATABLE = [s for s in SPECS if s.build().capabilities().updatable]
READ_ONLY = [s for s in SPECS if not s.build().capabilities().updatable]
BAD_KEYS = (float("nan"), -1, 5.5, 2**64, 3.0)
LOADED = [(k, k) for k in range(0, 3000, 3)]
#: Fresh keys, one below and one far above the loaded keys.
FRESH = (4, 2**63 + 5)
PROBES = [k for k, _ in LOADED] + list(FRESH)


def _batch(bad):
    return [(FRESH[1], 1), (bad, 2), (FRESH[0], 3)]


def _bulk(bad, n):
    items = [(k, k) for k in range(1, n + 1)]
    items[n // 2] = (bad, 0)
    return items


#: The index writes, each given the bad key.  ``bulk_load`` runs key by
#: key below 64 keys and through ``as_u64`` at 64 or more.
INDEX_WRITES = {
    "insert": lambda t, bad: t.insert(bad, 1),
    "upsert": lambda t, bad: t.upsert(bad, 1),
    "update": lambda t, bad: t.update(bad, 1),
    "insert_many": lambda t, bad: t.insert_many(_batch(bad)),
    "upsert_many": lambda t, bad: t.upsert_many(_batch(bad)),
    "bulk_load": lambda t, bad: t.bulk_load(_bulk(bad, 3)),
    "bulk_load_100": lambda t, bad: t.bulk_load(_bulk(bad, 100)),
}
STORE_WRITES = {
    "put": lambda t, bad: t.put(bad, 1),
    "update": lambda t, bad: t.update(bad, 1),
    "put_many": lambda t, bad: t.put_many(_batch(bad)),
    "bulk_load": lambda t, bad: t.bulk_load(_bulk(bad, 3)),
    "bulk_load_100": lambda t, bad: t.bulk_load(_bulk(bad, 100)),
}


def _state(target, sorted_):
    state = (len(target), target.get_many(PROBES))
    if sorted_:
        state += (target.scan(0, len(LOADED) + 5),)
    return state


def _refuses_every_bad_key(target, write, sorted_, error=InvalidKeysError):
    """Load ``target``, then refuse each bad key; returns its state."""
    target.bulk_load(LOADED)
    before = _state(target, sorted_)
    assert before[0] == len(LOADED)
    for bad in BAD_KEYS:
        with pytest.raises(error):
            write(target, bad)
        assert _state(target, sorted_) == before, bad
    return before


@pytest.mark.parametrize("call", sorted(INDEX_WRITES))
@pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
def test_updatable_index_refuses_before_any_change(spec, call):
    index = spec.build(PerfContext())
    _refuses_every_bad_key(
        index, INDEX_WRITES[call], isinstance(index, SortedIndex)
    )


#: Keys no stored key equals.
NOT_STORED = (-1, -0.5, 5.5, 2**64, float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("store", [False, True], ids=["index", "store"])
@pytest.mark.parametrize("spec", UPDATABLE, ids=lambda s: s.name)
def test_delete_finds_its_key_as_a_lookup_does(spec, store):
    """``delete`` stores nothing: a key no stored key equals answers
    False, and an integral float removes the int it equals.  The writes
    that follow, enough to carry PGM's staging buffer into its levels
    and to split leaves, keep every stored key an ``int``."""
    index = spec.build(PerfContext())
    target = ViperStore(index, PerfContext()) if store else index
    sorted_ = isinstance(index, SortedIndex)
    target.bulk_load(LOADED)
    before = _state(target, sorted_)
    for key in NOT_STORED:
        assert target.delete(key) is False, key
        assert _state(target, sorted_) == before, key
    model = dict(LOADED)
    for key in (3.0, 9.0):
        assert target.delete(key) is True
        del model[int(key)]
    write = target.put if store else target.insert
    for key in range(1, 1500, 3):
        write(key, -key)
        model[key] = -key
    keys = sorted(model)
    assert len(target) == len(model)
    assert target.get_many(keys) == [model[k] for k in keys]
    assert target.get_many([3, 9]) == [None, None]
    if sorted_:
        scanned = index.scan(0, len(model) + 1)
        assert [k for k, _ in scanned] == keys
        assert all(type(k) is int for k, _ in scanned)


@pytest.mark.parametrize("call", sorted(INDEX_WRITES))
@pytest.mark.parametrize("spec", READ_ONLY, ids=lambda s: s.name)
def test_read_only_index_refuses_with_a_typed_error(spec, call):
    index = spec.build(PerfContext())
    error = InvalidKeysError
    if not call.startswith("bulk_load"):
        error = (InvalidKeysError, UnsupportedOperationError)
    before = _refuses_every_bad_key(index, INDEX_WRITES[call], True, error)
    if error is not InvalidKeysError:
        with pytest.raises(UnsupportedOperationError):
            INDEX_WRITES[call](index, 5)
        assert _state(index, True) == before


@pytest.mark.parametrize("spec", ["ALEX", "CCEH"])
def test_engine_index_refuses_before_any_shard_changes(spec):
    engine = parallel_sharded_index(spec, 2, transport="loopback")
    try:
        for write in INDEX_WRITES.values():
            _refuses_every_bad_key(
                engine, write, isinstance(engine, SortedIndex)
            )
    finally:
        engine.close()


@pytest.mark.parametrize("spec", ["ALEX", "CCEH"])
def test_engine_store_refuses_before_any_shard_changes(spec):
    store = parallel_sharded_store(spec, 2, transport="loopback")
    try:
        sorted_ = isinstance(store.index, SortedIndex)
        for write in STORE_WRITES.values():
            _refuses_every_bad_key(store, write, sorted_)
    finally:
        store.close()


def test_engine_delete_of_nan_answers_false():
    """A NaN delete reaches a learned shard's model and answers False."""
    engine = parallel_sharded_index("ALEX", 2, transport="loopback")
    try:
        engine.bulk_load(LOADED)
        before = _state(engine, True)
        assert engine.delete(float("nan")) is False
        assert _state(engine, True) == before
    finally:
        engine.close()
