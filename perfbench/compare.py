#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or describe one set.

Each set is a directory of captured standard-output files of
``perfbench/run.py`` runs (one file per run, any name); the ``detail``
line of each file supplies the workload, the seed, and every metric with
its raw (un-normalised) twin.  Runs with ``--trace 1`` are skipped.

Usage::

    python3 perfbench/compare.py SET_A [SET_B]

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints each set's median and quartiles, the spread (Q3 - Q1) / median of
the normalised and of the raw values, and — given two sets — how much
worse set B's median is than set A's.  A metric agrees when every spread
(except that of ``setup_s``) and the median shift stay within the
metric's bound.  Exit status 1 when any metric disagrees.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_set(directory: str) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """workload -> metric -> [(normalised, raw), ...] over the set's runs."""
    out: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            details = [l[len("detail "):] for l in fh if l.startswith("detail ")]
        if not details:
            print(f"warning: no detail line in {path}", file=sys.stderr)
            continue
        detail = json.loads(details[-1])
        if detail.get("trace"):
            continue
        per = out.setdefault(detail["workload"], {})
        for metric, m in detail["metrics"].items():
            per.setdefault(metric, []).append(
                (float(m["value"]), float(m.get("raw", m["value"])))
            )
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(a: float, b: float, better: str) -> float:
    """Share by which ``b`` is worse than ``a`` (negative: better)."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv: List[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    sets = [load_set(d) for d in argv]
    ok = True
    header = (
        f"{'workload':10s} {'metric':18s} {'set':3s} {'n':>3s} {'median':>12s} "
        f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'raw sprd':>8s} "
        f"{'bound':>6s} {'worse':>7s}  verdict"
    )
    print(header)
    for wl in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            verdicts = []
            for label, s in zip("AB", sets):
                vals = s.get(wl, {}).get(name)
                if not vals:
                    verdicts.append(False)
                    print(f"{wl:10s} {name:18s} {label:3s}   0  (no runs)")
                    continue
                norm = [v for v, _ in vals]
                raw = [r for _, r in vals]
                q1, q2, q3 = quartiles(norm)
                sp, rsp = spread(norm), spread(raw)
                medians.append(q2)
                good = name == "setup_s" or sp <= bound
                verdicts.append(good)
                worse = ""
                if label == "B" and len(medians) == 2:
                    w = worse_by(medians[0], medians[1], m["better"])
                    worse = f"{w:+7.3f}"
                    good = good and w <= bound
                    verdicts[-1] = good
                print(
                    f"{wl:10s} {name:18s} {label:3s} {len(vals):3d} {q2:12.6g} "
                    f"{q1:12.6g} {q3:12.6g} {sp:7.3f} {rsp:8.3f} "
                    f"{bound:6.3f} {worse:>7s}  {'ok' if good else 'DISAGREE'}"
                )
            ok = ok and all(verdicts)
    print("all metrics agree" if ok else "some metrics disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
