"""Fig 18(a) — insertion strategies vs. reserved-space size.

Paper shape: Inplace is the slowest and gets *worse* as the reserve
grows (longer shifts); Buffer also degrades with reserve size; ALEX-gap
is the fastest and its reserved space is "automatically generated".
"""

import random

from _common import SMALL_N, dataset
from repro.bench import claim, format_table, run_bench, tightest
from repro.core.approximation.lsa_gap import GappedSegment
from repro.core.insertion import BufferedLeaf, GappedLeaf, InplaceLeaf, InsertResult
from repro.core.insertion.strategies import fit_dense_model
from repro.perf import PerfContext

RESERVES = (128, 256, 512, 1024)
BASE_KEYS = 4096


def _measure_inserts(leaf, perf, insert_keys):
    """Average simulated ns per insert until the leaf fills."""
    count = 0
    mark = perf.begin()
    for key in insert_keys:
        if leaf.insert(key, key) is InsertResult.FULL:
            break
        count += 1
    if count == 0:
        raise RuntimeError("leaf rejected the first insert")
    return perf.end(mark).time_ns / count, count


def run():
    all_keys = list(dataset("ycsb", SMALL_N))
    rng = random.Random(20)
    base = sorted(rng.sample(all_keys, BASE_KEYS))
    base_set = set(base)
    pool = [k for k in all_keys if k not in base_set]
    rng.shuffle(pool)
    values = list(base)

    rows = []
    series = {"Inplace": [], "Buffer": []}
    for reserve in RESERVES:
        model, max_err = fit_dense_model(base)
        perf = PerfContext()
        leaf = InplaceLeaf(base, values, model, max_err, reserve, perf)
        cost, absorbed = _measure_inserts(leaf, perf, pool)
        series["Inplace"].append(cost)
        rows.append(["Inplace", reserve, f"{cost:.0f}", absorbed])

        perf = PerfContext()
        leaf = BufferedLeaf(base, values, model, max_err, reserve, perf)
        cost, absorbed = _measure_inserts(leaf, perf, pool)
        series["Buffer"].append(cost)
        rows.append(["Buffer", reserve, f"{cost:.0f}", absorbed])

    perf = PerfContext()
    segment = GappedSegment(base[0], 0, base, density=0.7)
    gap_leaf = GappedLeaf(segment, values, perf, upper_density=0.8)
    cost, absorbed = _measure_inserts(gap_leaf, perf, pool)
    series["ALEX-gap"] = [cost]
    rows.append(["ALEX-gap", "auto", f"{cost:.0f}", absorbed])

    table = format_table(
        ["strategy", "reserve", "insert (sim ns)", "inserts absorbed"],
        rows,
        title="Fig 18(a) — insertion strategy cost vs reserved space",
    )
    return {"fig18a_insertion": table}, series


def claims(series):
    inplace, buffer = series["Inplace"], series["Buffer"]
    return [
        claim("fig18a.gap-cheapest", series["ALEX-gap"][0], "<",
              min(inplace + buffer)),
        tightest("fig18a.inplace-worst",
                 ((inp, ">", buf) for inp, buf in zip(inplace, buffer))),
        claim("fig18a.inplace-worse-with-reserve", inplace[-1], ">",
              inplace[0]),
        claim("fig18a.buffer-worse-with-reserve", buffer[-1], ">", buffer[0]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
