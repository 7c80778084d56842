"""Exhaustive sweep: ``GappedLeaf``'s one-loop rank search against the
per-probe chain it replaced.

``tests/oracles/gapped_list.py`` keeps the original search — a chain of
helper calls, each probe a ``_find_le``/``_find_ge`` scan that charges as
it goes.  Over every occupancy map of 1 to ``MAX_SLOTS`` slots and every
predicted slot the model could return, ``_rank_slot`` must give the
chain's answer and leave the full ``Counters`` equal, for a probe below
the first key, at each key, between each pair of keys and above the last.
The slot scans themselves are held equal the same way, looking for an
occupied slot and for a gap, from every start in ``[-1, slots]``.

A scan bills ``1 + distance // _SCAN_STRIDE`` sequential reads.  On at
most 8 slots every distance is below the production stride of 16, so
each sweep also runs with strides 1 and 3, under which every distance
and its rounding reach the ledger.
"""

import itertools

import numpy as np
import pytest

from repro.core.approximation.base import LinearModel
from repro.core.insertion import gapped
from repro.core.insertion.gapped import GappedLeaf
from repro.perf.context import PerfContext
from tests.oracles.gapped_list import ListGappedLeaf

MAX_SLOTS = 8
STRIDES = (1, 3, gapped._SCAN_STRIDE)
#: Key stored in slot ``i`` is ``KEY_STEP * (i + 1)``, leaving room for a
#: probe strictly between any two keys and below the first.
KEY_STEP = 10


class _Layout:
    """A hand-placed slot array in the shape of a ``GappedSegment``."""

    def __init__(self, bits):
        self.slot_keys = [
            KEY_STEP * (i + 1) if b else None for i, b in enumerate(bits)
        ]
        keys = [k for k in self.slot_keys if k is not None]
        self.slots = len(bits)
        self.n = len(keys)
        self.first_key = keys[0] if keys else 0
        self.model = LinearModel(0.0, 0.0)
        self.slot_pos = np.flatnonzero(bits)
        self.keys_u64 = np.array(keys, dtype=np.uint64)


@pytest.fixture(params=STRIDES, ids=lambda s: f"stride{s}")
def stride(request, monkeypatch):
    """Both leaves bill scans through ``gapped._SCAN_STRIDE``."""
    monkeypatch.setattr(gapped, "_SCAN_STRIDE", request.param)
    return request.param


def _pair(bits):
    """The byte-map leaf and the list oracle over one occupancy map."""
    layout = _Layout(bits)
    built = []
    for cls in (GappedLeaf, ListGappedLeaf):
        perf = PerfContext()
        leaf = cls(layout, [None] * layout.n, perf, upper_density=1.0)
        built.append((leaf, perf))
    return built, [k for k in layout.slot_keys if k is not None]


def _probes(keys):
    if not keys:
        return [KEY_STEP]
    return [keys[0] - 1, *keys, *(k + 1 for k in keys[:-1]), keys[-1] + 1]


def _bitmaps(slots):
    return itertools.product((False, True), repeat=slots)


@pytest.mark.parametrize("slots", range(1, MAX_SLOTS + 1))
def test_rank_slot_equals_the_per_probe_chain(slots, stride):
    for bits in _bitmaps(slots):
        ((leaf, perf), (oracle, perf_o)), keys = _pair(bits)
        for p in range(slots):
            leaf.model = oracle.model = LinearModel(0.0, float(p))
            for key in _probes(keys):
                got = leaf._rank_slot(key)
                want = oracle._rank_slot(key)
                where = f"map {bits}, predicted slot {p}, key {key}"
                assert got == want, where
                assert perf.counters == perf_o.counters, where


@pytest.mark.parametrize("slots", range(1, MAX_SLOTS + 1))
def test_slot_scans_equal_the_list_walks(slots, stride):
    for bits in _bitmaps(slots):
        ((leaf, perf), (oracle, perf_o)), _ = _pair(bits)
        for start in range(-1, slots + 1):
            for occupied in (True, False):
                for scan in ("_find_le", "_find_ge"):
                    got = getattr(leaf, scan)(start, occupied)
                    want = getattr(oracle, scan)(start, occupied)
                    where = f"{scan}({start}, {occupied}) on map {bits}"
                    assert got == want, where
                    assert perf.counters == perf_o.counters, where
