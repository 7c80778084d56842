"""Golden simulated ledgers: every spec's event counts, pinned to a file.

The simulated clock is the paper's figures, so a change to how the
ledger is kept (or to anything that charges it) must leave every count
exactly where it was.  Each pass below builds a fresh
:class:`~repro.perf.context.PerfContext`, bulk-loads 2,000 seeded YCSB
keys, and runs a seeded 1,000-op stream through ``execute_ops`` at
``batch_size`` 1 and 64; the context's ``as_dict()`` at the end must
equal the committed file.  Updatable specs run YCSB-A and read-only
specs YCSB-C, on the bare index and on a :class:`ViperStore`.  ALEX, PGM
and BTree also run through a 2-shard loopback
:class:`ParallelShardedStore`, which pins the engine's delta path (each
shard's ledger delta folded into the caller's context).

Two parities are read off the file: a spec without a native batch path
bills at batch size 64 exactly what it bills at 1, and a store's puts,
scalar or batched, bill the index's writes plus device events on every
updatable spec but PGM.

The counts are integers, so the file holds on every Python.  Regenerate
it only for a change that is meant to move simulated numbers::

    PYTHONPATH=src python tests/test_ledger_golden.py --write

which prints one ``id field old -> new`` line per count it moved.
"""

import json
import os
import sys

import pytest

from repro.bench import IndexAdapter, StoreAdapter, execute_ops
from repro.concurrency.parallel import ParallelShardedStore
from repro.core.interfaces import Index
from repro.perf.context import PerfContext
from repro.registry import resolve, specs
from repro.store.viper import ViperStore
from repro.workloads import YCSB_A, YCSB_C, generate_operations, ycsb_keys

GOLDEN = os.path.join(os.path.dirname(__file__), "ledger_golden.json")
KEYS = 2_000
OPS = 1_000
SEED = 7
BATCH_SIZES = (1, 64)
ENGINE_SPECS = ("ALEX", "PGM", "BTree")


def _stream(spec):
    updatable = spec.build().capabilities().updatable
    keys = sorted(ycsb_keys(KEYS, seed=SEED))
    workload = YCSB_A if updatable else YCSB_C
    return keys, generate_operations(workload, OPS, keys, seed=SEED)


def _run(spec, target_kind, batch_size):
    keys, ops = _stream(spec)
    items = [(k, k) for k in keys]
    perf = PerfContext()
    if target_kind == "engine":
        store = ParallelShardedStore(spec, 2, perf=perf, transport="loopback")
        try:
            store.bulk_load(items)
            execute_ops(StoreAdapter(store), ops, perf, batch_size=batch_size)
        finally:
            store.close()
    elif target_kind == "store":
        store = ViperStore(spec.build(perf), perf)
        store.bulk_load(items)
        execute_ops(StoreAdapter(store), ops, perf, batch_size=batch_size)
    else:
        index = spec.build(perf)
        index.bulk_load(items)
        execute_ops(IndexAdapter(index), ops, perf, batch_size=batch_size)
    return perf.counters.as_dict()


def _passes():
    """``(id, spec name, target kind, batch size)`` of every pass."""
    out = []
    for spec in specs():
        for kind in ("index", "store"):
            for bs in BATCH_SIZES:
                out.append((f"{spec.name}/{kind}/b{bs}", spec.name, kind, bs))
    for name in ENGINE_SPECS:
        for bs in BATCH_SIZES:
            out.append((f"{name}/engine/b{bs}", name, "engine", bs))
    return out


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_file_covers_every_pass():
    assert sorted(_golden()) == sorted(pid for pid, *_ in _passes())


@pytest.mark.parametrize(
    "name,kind,batch_size",
    [p[1:] for p in _passes()],
    ids=[p[0] for p in _passes()],
)
def test_ledger_equals_golden(name, kind, batch_size):
    got = _run(resolve(name), kind, batch_size)
    assert got == _golden()[f"{name}/{kind}/b{batch_size}"]


def _default_batch_specs():
    """Specs whose ``get_many`` and ``upsert_many`` are the per-key
    ``Index`` loops, so their batch calls have no path of their own."""
    out = []
    for spec in specs():
        cls = type(spec.build())
        if (cls.get_many, cls.upsert_many) == (
            Index.get_many, Index.upsert_many
        ):
            out.append(spec.name)
    return out


def test_default_batch_specs_are_the_known_ones():
    assert sorted(_default_batch_specs()) == sorted(
        ("RMI", "Skiplist", "Masstree", "Bwtree", "Wormhole", "CCEH",
         "LIPP", "APEX")
    )


@pytest.mark.parametrize("name", _default_batch_specs())
def test_batch_call_equals_its_loop_without_a_native_path(name):
    """Without a native batch path, a batch of 64 bills what the loop of
    scalar calls bills, on the bare index and through the store."""
    golden = _golden()
    for kind in ("index", "store"):
        assert golden[f"{name}/{kind}/b64"] == golden[f"{name}/{kind}/b1"]


#: Events only the store charges: record reads and writes, and slot pages.
_DEVICE_EVENTS = ("nvm_read", "nvm_write", "alloc")
#: Specs whose store write is the index's write: every updatable spec but
#: PGM, whose put probes and then updates in place or stages, while its
#: insert stages without a probe.
_ONE_WRITE_SPECS = [
    s.name for s in specs()
    if s.build().capabilities().updatable and s.name != "PGM"
]


def _index_share(name, kind, batch_size):
    """The golden ledger of a pass without the device's events."""
    ledger = _golden()[f"{name}/{kind}/b{batch_size}"]
    return {e: n for e, n in ledger.items() if e not in _DEVICE_EVENTS}


@pytest.mark.parametrize("name", _ONE_WRITE_SPECS)
def test_put_bills_the_index_write(name):
    """A put is one ``upsert``, one descent: it bills what the index's
    insert bills, plus device events."""
    assert _index_share(name, "store", 1) == _index_share(name, "index", 1)


@pytest.mark.parametrize("name", _ONE_WRITE_SPECS)
def test_batch_put_bills_the_index_batch_write(name):
    """``put_many`` is one ``upsert_many``: a batch of 64 puts bills the
    index's batch write plus device events."""
    assert _index_share(name, "store", 64) == _index_share(name, "index", 64)


def _moves(old, new):
    """One ``id field old -> new`` line per entry and field that differs
    (a missing entry or field reads ``None``)."""
    out = []
    for pid in sorted(set(old) | set(new)):
        was, now = old.get(pid, {}), new.get(pid, {})
        for field in sorted(set(was) | set(now)):
            a, b = was.get(field), now.get(field)
            if a != b:
                out.append(f"{pid} {field} {a} -> {b}")
    return out


def test_write_reports_each_moved_count():
    old = {"A/index/b1": {"alloc": 5, "hash": 1}, "B/index/b1": {"alloc": 1}}
    new = {"A/index/b1": {"alloc": 4, "hash": 1}, "C/index/b1": {"alloc": 2}}
    assert _moves(old, new) == [
        "A/index/b1 alloc 5 -> 4",
        "B/index/b1 alloc 1 -> None",
        "C/index/b1 alloc None -> 2",
    ]


def _write():
    """Regenerate the golden file and print what moved."""
    old = _golden() if os.path.exists(GOLDEN) else {}
    ledgers = {
        pid: _run(resolve(name), kind, bs) for pid, name, kind, bs in _passes()
    }
    lines = [f" {json.dumps(pid)}: {json.dumps(c)}" for pid, c in ledgers.items()]
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    moves = _moves(old, ledgers)
    for line in moves:
        print(line)
    entries = {line.split()[0] for line in moves}
    print(f"{len(moves)} count(s) moved in {len(entries)} entries")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_ledger_golden.py --write")
    _write()
