#!/usr/bin/env python3
"""Run every benchmark module standalone and print all paper tables.

Equivalent to ``pytest benchmarks/ --benchmark-only`` minus the assertion
layer — useful for eyeballing all results in one stream.

Usage:  python benchmarks/run_all.py [--only fig10,fig17a,...] [--jobs N]

``--jobs N`` fans the experiment modules out over N worker processes.
Processes, not threads: the experiments are pure CPython, so the GIL
would serialise a thread pool — see the ``Mops/s (proc)`` and
``Mops/s (GIL thr)`` columns of Figs 12 and 14.
Output order stays deterministic (module list order) regardless of which
worker finishes first.
"""

import argparse
import contextlib
import importlib
import io
import os
import sys
import time

MODULES = [
    "bench_table1_capabilities",
    "bench_table2_depth",
    "bench_table3_space",
    "bench_fig10_readonly",
    "bench_fig11_face",
    "bench_fig12_multithread_read",
    "bench_fig13_writeonly",
    "bench_fig14_multithread_write",
    "bench_concurrency",
    "bench_parallel",
    "bench_fig15_mixed",
    "bench_fig16_recovery",
    "bench_fig17a_approximation",
    "bench_fig17b_error_vs_leaves",
    "bench_fig17c_structures",
    "bench_fig17d_leaf_vs_structure",
    "bench_fig18a_insertion",
    "bench_fig18b_retraining",
    "bench_fig18c_buffer_sweep",
    "bench_fig18d_total_update",
    "bench_appendix_range",
    "bench_scan",
    "bench_ext_lipp",
    "bench_ext_apex",
    "bench_ext_hot_ats",
    "bench_ablation_approximation",
    "bench_ablation_alex_density",
    "bench_ablation_cost_model",
    "bench_ablation_tuning",
    "bench_ablation_sequential",
]

#: module -> list of (runner attr, result name) pairs; default discovery
#: finds the single ``run_*`` function and ``write_result`` call.


def _execute_module(module_name: str) -> int:
    """Import one module, run its ``run_*`` functions, print the tables."""
    module = importlib.import_module(module_name)
    runners = [
        getattr(module, attr)
        for attr in dir(module)
        if attr.startswith("run_")
        and callable(getattr(module, attr))
        # only runners defined in the module itself (not the shared
        # run_once helper imported from _common).
        and getattr(getattr(module, attr), "__module__", "") == module_name
    ]
    ran = 0
    for runner in runners:
        start = time.time()
        print(f"\n##### {module_name}.{runner.__name__} " + "#" * 20)
        try:
            result = runner()
        except TypeError:
            # runners with a required arg (fig10's dataset) get both.
            for ds in ("ycsb", "osm"):
                table, _ = runner(ds)
                print(table)
            ran += 1
            continue
        if isinstance(result, tuple):
            print(result[0])
        else:
            print(result)
        print(f"[{time.time() - start:.1f}s wall]")
        ran += 1
    return ran


def _execute_module_captured(module_name: str):
    """Worker-process entry: run a module with stdout captured.

    Top-level (picklable) and self-sufficient: it repairs ``sys.path``
    because a spawned worker does not inherit the parent's insert.
    """
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        ran = _execute_module(module_name)
    return module_name, buffer.getvalue(), ran


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

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    selected = [
        m for m in MODULES if not wanted or any(w in m for w in wanted)
    ]
    ran = 0
    t0 = time.time()
    if args.jobs > 1 and len(selected) > 1:
        from _common import pool_map

        for _name, output, count in pool_map(
            _execute_module_captured, selected, args.jobs
        ):
            sys.stdout.write(output)
            ran += count
    else:
        for module_name in selected:
            ran += _execute_module(module_name)
    print(f"\n{ran} experiments in {time.time() - t0:.0f}s wall clock.")
    return 0 if ran else 1


if __name__ == "__main__":
    raise SystemExit(main())
