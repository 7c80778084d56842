#!/usr/bin/env python3
"""Run every deterministic benchmark module: write all paper tables and
claims files, and exit non-zero if any claim fails.

Usage:  python benchmarks/run_all.py [--only fig10,fig17a,...] [--jobs N]

Each module runs through :func:`repro.bench.run_bench`, the driver its
own ``__main__`` calls, so its tables and ``results/<stem>_claims.txt``
are the same whichever way it ran.

``--jobs N`` fans the modules out over N worker processes.
Processes, not threads: the experiments are pure CPython, so the GIL
would serialise a thread pool — see the ``Mops/s (proc)`` and
``Mops/s (GIL thr)`` columns of Figs 12 and 14.
Output order stays deterministic (module list order) regardless of which
worker finishes first.
"""

import argparse
import contextlib
import glob
import io
import os
import sys
import time
from functools import partial

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Wall-clock benches: they keep their own mains and ``--check`` gates.
WALL_CLOCK = ("bench_micro", "bench_parallel", "bench_recovery", "bench_scan")

#: Every other ``bench_*.py`` module, so a new figure is run and gated.
MODULES = sorted(
    name
    for name in (
        os.path.basename(path)[:-3]
        for path in glob.glob(os.path.join(BENCH_DIR, "bench_*.py"))
    )
    if name not in WALL_CLOCK
)


def run_module(module_name: str, capture: bool = False):
    """Run one module through the driver: ``(captured output, exit code)``.

    Top-level (picklable) and self-sufficient: it repairs ``sys.path``
    because a spawned worker does not inherit the parent's insert.
    Worker processes capture their output so modules never interleave.
    """
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    from repro.bench import run_bench

    start = time.time()
    out = io.StringIO() if capture else sys.stdout
    with contextlib.redirect_stdout(out):
        print(f"\n##### {module_name} " + "#" * 20)
        code = run_bench(module_name, [])
        print(f"[{module_name}: {time.time() - start:.1f}s wall]")
    return out.getvalue() if capture else "", code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--only",
        default="",
        help="comma-separated experiment substrings (e.g. fig10,ext)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to fan the modules out over (1 = in-process)",
    )
    args = parser.parse_args()
    wanted = [w for w in args.only.split(",") if w]
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    sys.path.insert(0, BENCH_DIR)
    from _common import pool_map

    selected = [
        m for m in MODULES if not wanted or any(w in m for w in wanted)
    ]
    if not selected:
        parser.error(f"--only {args.only!r} matches no module")
    t0 = time.time()
    outcomes = pool_map(
        partial(run_module, capture=args.jobs > 1), selected, args.jobs
    )
    failed = []
    for name, (output, code) in zip(selected, outcomes):
        sys.stdout.write(output)
        if code:
            failed.append(name)
    print(
        f"\n{len(selected)} modules in {time.time() - t0:.0f}s wall clock; "
        + (f"claims FAIL in: {', '.join(failed)}" if failed else
           "every claim holds.")
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
