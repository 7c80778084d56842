"""Tests for internal structures (paper dimension #2)."""

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.structures import (
    ATSStructure,
    BTreeStructure,
    LRSStructure,
    RadixTableStructure,
    RMIStructure,
    exponential_search,
)
from repro.core.structures.base import InternalStructure
from repro.core.structures.hot_ats import HotATSStructure
from repro.errors import EmptyIndexError, InvalidConfigurationError
from repro.perf import PerfContext

ALL_STRUCTURES = [
    lambda perf: RMIStructure(branching=64, perf=perf),
    lambda perf: BTreeStructure(fanout=16, perf=perf),
    lambda perf: LRSStructure(eps=4, perf=perf),
    lambda perf: ATSStructure(max_node_fences=16, perf=perf),
    lambda perf: RadixTableStructure(r_bits=10, perf=perf),
]

fences_strategy = st.lists(
    st.integers(min_value=0, max_value=2**48),
    min_size=1,
    max_size=400,
    unique=True,
).map(sorted)


def ground_truth(fences, key):
    return max(0, bisect_right(fences, key) - 1)


def probe_keys(fences, rng):
    """Fences themselves, midpoints, extremes, and random keys."""
    probes = list(fences)
    probes += [f + 1 for f in fences]
    probes += [max(0, f - 1) for f in fences]
    probes += [0, 2**48 + 5]
    probes += [rng.randrange(0, 2**48) for _ in range(50)]
    return probes


class TestRoutingCorrectness:
    @pytest.mark.parametrize("make", ALL_STRUCTURES)
    def test_lookup_matches_bisect(self, make):
        rng = random.Random(42)
        fences = sorted(rng.sample(range(2**48), 500))
        structure = make(PerfContext())
        structure.build(fences)
        for key in probe_keys(fences, rng):
            assert structure.lookup(key) == ground_truth(fences, key), (
                f"{structure.name} misroutes key {key}"
            )

    @pytest.mark.parametrize("make", ALL_STRUCTURES)
    @given(fences=fences_strategy)
    @settings(max_examples=25, deadline=None)
    def test_lookup_matches_bisect_property(self, make, fences):
        structure = make(PerfContext())
        structure.build(fences)
        rng = random.Random(0)
        for key in probe_keys(fences, rng)[:200]:
            assert structure.lookup(key) == ground_truth(fences, key)

    @pytest.mark.parametrize("make", ALL_STRUCTURES)
    def test_single_fence(self, make):
        structure = make(PerfContext())
        structure.build([1000])
        assert structure.lookup(0) == 0
        assert structure.lookup(1000) == 0
        assert structure.lookup(10**12) == 0

    @pytest.mark.parametrize("make", ALL_STRUCTURES)
    def test_empty_build_rejected(self, make):
        structure = make(PerfContext())
        with pytest.raises(EmptyIndexError):
            structure.build([])

    @pytest.mark.parametrize("make", ALL_STRUCTURES)
    def test_lookup_before_build_rejected(self, make):
        structure = make(PerfContext())
        with pytest.raises(EmptyIndexError):
            structure.lookup(1)


class TestExponentialSearch:
    @given(fences_strategy, st.integers(min_value=0, max_value=2**48))
    @settings(max_examples=100, deadline=None)
    def test_matches_bisect_from_any_guess(self, fences, key):
        rng = random.Random(key)
        perf = PerfContext()
        for guess in (0, len(fences) - 1, rng.randrange(len(fences)), -5, 10**6):
            assert exponential_search(fences, key, guess, perf) == ground_truth(
                fences, key
            )

    def test_good_guess_is_cheaper(self):
        fences = list(range(0, 100_000, 10))
        perf_good = PerfContext()
        truth = ground_truth(fences, 50_000)
        exponential_search(fences, 50_000, truth, perf_good)
        perf_bad = PerfContext()
        exponential_search(fences, 50_000, 0, perf_bad)
        assert perf_good.elapsed_ns() < perf_bad.elapsed_ns()


class TestStructureProperties:
    def test_rmi_depth_is_two(self):
        s = RMIStructure(branching=32, perf=PerfContext())
        s.build(list(range(0, 10_000, 3)))
        assert s.avg_depth() == 2.0

    def test_btree_height_grows_with_leaves(self):
        small = BTreeStructure(fanout=8, perf=PerfContext())
        small.build(list(range(8)))
        big = BTreeStructure(fanout=8, perf=PerfContext())
        big.build(list(range(10_000)))
        assert big.max_depth() > small.max_depth()

    def test_ats_is_asymmetric_on_skewed_fences(self):
        # Half the fences are linear (cheap to model), half are random
        # (hard): ATS should terminate early on the easy half.
        rng = random.Random(9)
        easy = list(range(0, 2**20, 2**10))
        hard = sorted(rng.sample(range(2**40, 2**48), 4096))
        s = ATSStructure(max_node_fences=16, error_threshold=4, perf=PerfContext())
        s.build(easy + hard)
        assert s.max_depth() > 1
        assert s.avg_depth() < s.max_depth()

    def test_lrs_collapses_on_linear_fences(self):
        s = LRSStructure(eps=8, perf=PerfContext())
        s.build(list(range(0, 64_000, 8)))
        assert s.max_depth() == 1

    def test_radix_bucket_sizes_reflect_skew(self):
        # FACE-like: almost everything tiny, one giant outlier.
        skewed = list(range(5000)) + [2**60]
        s = RadixTableStructure(r_bits=10, perf=PerfContext())
        s.build(skewed)
        sizes = s.bucket_sizes()
        assert max(sizes) >= 5000  # everything collapses into one bucket

    @pytest.mark.parametrize(
        "fences",
        [
            list(range(5000)) + [2**60],
            sorted(random.Random(3).sample(range(2**48), 500)),
        ],
        ids=["skewed", "uniform"],
    )
    def test_radix_bounds_hold_the_answer(self, fences):
        """The window ``bounds`` returns (which RS's batch scan replays)
        holds the rightmost fence <= key, for every probe class."""
        s = RadixTableStructure(r_bits=10, perf=PerfContext())
        s.build(fences)
        for key in probe_keys(fences, random.Random(5)):
            lo, hi = s.bounds(key)
            assert lo <= ground_truth(fences, key) <= hi, key

    @pytest.mark.parametrize("key", [3.5, -0.5, 2.0, 1.5e19])
    def test_radix_lookup_of_non_integer_key(self, key):
        """A float key buckets by its floor, so it finds the rightmost
        fence <= key (0 below the first fence); an integral float pays
        what the equal integer key pays."""
        fences = list(range(0, 3000, 3))
        perf = PerfContext()
        s = RadixTableStructure(r_bits=10, perf=perf)
        s.build(fences)
        mark = perf.begin()
        assert s.lookup(key) == ground_truth(fences, key)
        paid = perf.end(mark).counters
        if key == int(key) and 0 <= key <= fences[-1]:
            mark = perf.begin()
            s.lookup(int(key))
            assert perf.end(mark).counters == paid

    def test_structures_report_positive_size(self):
        fences = list(range(0, 100_000, 7))
        for make in ALL_STRUCTURES:
            s = make(PerfContext())
            s.build(fences)
            assert s.size_bytes() > 0

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            RMIStructure(branching=0)
        with pytest.raises(InvalidConfigurationError):
            BTreeStructure(fanout=1)
        with pytest.raises(InvalidConfigurationError):
            LRSStructure(eps=0)
        with pytest.raises(InvalidConfigurationError):
            ATSStructure(max_fanout=1)
        with pytest.raises(InvalidConfigurationError):
            RadixTableStructure(r_bits=0)


class TestStructureCosts:
    """The cost relationships §IV-B reports."""

    def _cost_per_lookup(self, structure, fences, keys):
        structure.build(fences)
        perf = structure.perf
        mark = perf.begin()
        for key in keys:
            structure.lookup(key)
        op = perf.end(mark)
        return op.time_ns / len(keys)

    def test_lrs_beats_btree_at_high_leaf_count(self):
        rng = random.Random(21)
        fences = sorted(rng.sample(range(2**44), 60_000))
        keys = rng.sample(range(2**44), 2000)
        lrs = self._cost_per_lookup(LRSStructure(eps=4, perf=PerfContext()), fences, keys)
        btree = self._cost_per_lookup(
            BTreeStructure(fanout=16, perf=PerfContext()), fences, keys
        )
        assert lrs < btree

    def test_fewer_leaves_is_cheaper_for_every_structure(self):
        rng = random.Random(22)
        many = sorted(rng.sample(range(2**44), 40_000))
        few = many[::40]
        keys = rng.sample(range(2**44), 1000)
        for make in ALL_STRUCTURES:
            cost_many = self._cost_per_lookup(make(PerfContext()), many, keys)
            cost_few = self._cost_per_lookup(make(PerfContext()), few, keys)
            assert cost_few < cost_many, f"{make(PerfContext()).name}"


# -- batch routing: lookup_many equals the loop of lookup --------------------

BATCH_STRUCTURES = {
    "RMI": lambda perf: RMIStructure(branching=64, perf=perf),
    "BTREE": lambda perf: BTreeStructure(fanout=4, perf=perf),
    "LRS": lambda perf: LRSStructure(eps=2, perf=perf),
    "ATS": lambda perf: ATSStructure(
        max_node_fences=4, max_fanout=4, error_threshold=0, perf=perf
    ),
    "HotATS": lambda perf: HotATSStructure(max_node_fences=8, perf=perf),
    "RadixTable": lambda perf: RadixTableStructure(r_bits=6, perf=perf),
}


def _subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def test_batch_structures_cover_every_structure():
    """Every structure is held to the batch contract below, and none
    overrides ``lookup_many`` itself: the base method is the one batch
    entry, which perfbench's layer tracer wraps."""
    built = {type(make(PerfContext())) for make in BATCH_STRUCTURES.values()}
    shipped = {c for c in _subclasses(InternalStructure)
               if c.__module__.startswith("repro.")}
    assert built == shipped
    for cls in built:
        assert "lookup_many" not in vars(cls), cls.__name__


def _fence_sets():
    rng = random.Random(808)
    return {
        "one": [1000],
        "few": [7, 50, 51, 900],
        "dense": list(range(100, 5100, 5)),
        "random": sorted(rng.sample(range(1, 2**48), 2000)),
        "across-2^63": sorted(rng.sample(range(2**63 - 10**6, 2**63 + 10**6),
                                         700)),
        "top": sorted(rng.sample(range(2**64 - 10**5, 2**64), 300)),
        "whole-range": sorted({rng.randrange(2**64) for _ in range(500)}),
    }


@pytest.mark.parametrize("name", sorted(BATCH_STRUCTURES))
@pytest.mark.parametrize("fence_set", sorted(_fence_sets()))
def test_lookup_many_equals_lookup_loop(name, fence_set):
    """Answers and full ledgers, on a shuffled batch of every fence, its
    neighbours, keys below the first fence, 0, 2^63 and 2^64 - 1."""
    fences = _fence_sets()[fence_set]
    rng = random.Random(fence_set)
    batch = [0, 2**63, 2**63 - 1, 2**64 - 1, max(0, fences[0] - 1)]
    for f in fences:
        batch += [f, max(0, f - 1), min(f + 1, 2**64 - 1)]
    rng.shuffle(batch)
    perf_loop, perf_many = PerfContext(), PerfContext()
    loop, many = (BATCH_STRUCTURES[name](p) for p in (perf_loop, perf_many))
    loop.build(fences)
    many.build(fences)
    want = [loop.lookup(k) for k in batch]
    assert many.lookup_many(batch).tolist() == want
    assert perf_many.counters == perf_loop.counters
