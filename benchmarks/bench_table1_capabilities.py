"""Table I — technology comparison of learned indexes.

Regenerated directly from each implementation's ``capabilities()``, so the
matrix can never drift from the code.
"""

from repro import (
    ALEXIndex,
    DynamicPGMIndex,
    FITingTree,
    RMIIndex,
    RadixSplineIndex,
    XIndexIndex,
)
from repro.bench import fact, format_table, run_bench

ROW_ORDER = [
    ("RMI", RMIIndex),
    ("RS", RadixSplineIndex),
    ("FITing-tree", FITingTree),
    ("PGM-Index", DynamicPGMIndex),
    ("ALEX", ALEXIndex),
    ("XIndex", XIndexIndex),
]


def run():
    rows = []
    caps = {}
    for name, cls in ROW_ORDER:
        c = cls.capabilities()
        caps[name] = c
        rows.append(
            [
                name,
                c.inner_node,
                c.leaf_node,
                "Maximum" if c.bounded_error else "Unfixed",
                c.approximation,
                c.insertion,
                c.retraining,
                "yes" if c.concurrent_write else "no",
            ]
        )
    table = format_table(
        [
            "index",
            "inner node",
            "leaf node",
            "error",
            "approximation",
            "insertion",
            "retraining",
            "conc. write",
        ],
        rows,
        title="Table I — technology comparison of learned indexes",
    )
    return {"table1_capabilities": table}, caps


def claims(caps):
    conc = [n for n, c in caps.items() if c.concurrent_write]
    return [
        fact("table1.rmi-rs-read-only",
             not caps["RMI"].updatable and not caps["RS"].updatable),
        fact("table1.fiting-bounded-error", caps["FITing-tree"].bounded_error),
        fact("table1.pgm-bounded-error", caps["PGM-Index"].bounded_error),
        fact("table1.alex-unfixed-error", not caps["ALEX"].bounded_error),
        fact("table1.xindex-unfixed-error", not caps["XIndex"].bounded_error),
        fact("table1.rmi-unfixed-error", not caps["RMI"].bounded_error),
        fact("table1.only-xindex-concurrent-write", conc == ["XIndex"]),
    ]


if __name__ == "__main__":
    raise SystemExit(run_bench(__name__))
