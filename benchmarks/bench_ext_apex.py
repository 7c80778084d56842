"""Extension — APEX: what changes when the index itself lives in PM?

The paper's evaluation keeps every index in DRAM (Viper's architecture)
and measures recovery as a full rebuild from an NVM scan (Fig 16).  APEX
— cited as [6] but not evaluated — inverts the design: data nodes are
persistent, so recovery only rebuilds DRAM fingerprints.  This bench
quantifies the trade on our simulated hardware: reads pay Optane latency
on the data-node probe; recovery collapses from a per-key rebuild to a
metadata pass.
"""

import random

from _common import N_OPS, SMALL_N, dataset
from repro import ALEXIndex, APEXIndex, PerfContext
from repro.bench import claim, format_table, run_bench
from repro.registry import resolve
from repro.workloads.ycsb import split_load_and_inserts


def run():
    keys = dataset("ycsb", SMALL_N)
    load, inserts = split_load_and_inserts(keys, 0.5, seed=41)
    rng = random.Random(41)
    probes = rng.sample(load, min(N_OPS, len(load)))

    rows = []
    results = {}
    for name, factory in (
        ("ALEX (DRAM index)", resolve("alex")),
        ("APEX (PM index)", resolve("apex")),
    ):
        perf = PerfContext()
        index = factory(perf)
        index.bulk_load([(k, k) for k in load])

        mark = perf.begin()
        for k in probes:
            index.get(k)
        read_ns = perf.end(mark).time_ns / len(probes)

        mark = perf.begin()
        for k in inserts:
            index.insert(k, k)
        insert_ns = perf.end(mark).time_ns / len(inserts)

        # Recovery: APEX rebuilds metadata only; ALEX must be rebuilt
        # from scratch (as in Fig 16, minus the NVM record scan both
        # would share).
        if isinstance(index, APEXIndex):
            recover_ns = index.recover_metadata()
        else:
            mark = perf.begin()
            fresh = ALEXIndex(perf=perf)
            fresh.bulk_load(sorted(index.range(0, 2**64)))
            recover_ns = perf.end(mark).time_ns

        results[name] = {
            "read_ns": read_ns,
            "insert_ns": insert_ns,
            "recover_ns": recover_ns,
        }
        rows.append(
            [
                name,
                f"{read_ns:.0f}",
                f"{insert_ns:.0f}",
                f"{recover_ns / 1e6:.3f}",
            ]
        )
    table = format_table(
        ["index", "read (sim ns)", "insert (sim ns)", "recovery (sim ms)"],
        rows,
        title="Extension — DRAM-resident ALEX vs PM-resident APEX",
    )
    return {"ext_apex": table}, results


def claims(results):
    alex = results["ALEX (DRAM index)"]
    apex = results["APEX (PM index)"]
    return [
        claim("ext-apex.pm-reads-cost-more", apex["read_ns"], ">",
              alex["read_ns"]),
        claim("ext-apex.recovery-below-tenth", apex["recover_ns"], "<",
              alex["recover_ns"] / 10),
        claim("ext-apex.reads-within-3x", apex["read_ns"], "<",
              alex["read_ns"] * 3),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
