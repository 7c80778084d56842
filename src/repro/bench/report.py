"""Plain-text table rendering, benchmark result files, and paper claims.

Every deterministic ``benchmarks/bench_*`` module has one run path:
``run()`` returns its tables and raw results, ``claims(results)`` returns
the paper's claims about them, and :func:`run_bench` writes both and
fails when a claim does not hold.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import operator
import os
from typing import List, NamedTuple, Optional, Sequence

#: Where the committed tables live: ``benchmarks/results/``, the files CI
#: diffs against a re-run.  ``REPRO_RESULTS_DIR`` redirects a run.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))), "benchmarks", "results",
)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with a rule under the header."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_bars(
    pairs: Sequence[tuple],
    title: str = "",
    width: int = 48,
    unit: str = "",
) -> str:
    """Horizontal ASCII bar chart — a text-mode stand-in for the paper's
    figures.  ``pairs`` is ``[(label, value), ...]``; bars are scaled to
    the maximum value."""
    if not pairs:
        raise ValueError("nothing to chart")
    labels = [str(label) for label, _ in pairs]
    values = [float(v) for _, v in pairs]
    peak = max(values)
    if peak <= 0:
        raise ValueError("need at least one positive value")
    label_w = max(len(s) for s in labels)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = "#" * max(1, round(value / peak * width))
        lines.append(f"{label.ljust(label_w)}  {bar} {value:g}{unit}")
    return "\n".join(lines)


def write_result(name: str, text: str, data: Optional[dict] = None) -> str:
    """Persist a rendered table under ``benchmarks/results/`` and echo it.

    With ``data``, the raw numbers are also written as ``{name}.json``
    with sorted keys — committed result files must diff byte-identically
    no matter which ``--jobs`` worker finished first, so every dict is
    serialised in key order rather than insertion order.
    """
    out = os.environ.get("REPRO_RESULTS_DIR", RESULTS_DIR)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    if data is not None:
        json_path = os.path.join(out, f"{name}.json")
        with open(json_path, "w") as f:
            json.dump(data, f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"\n{text}\n[saved to {path}]")
    return path


class Claim(NamedTuple):
    """A paper claim evaluated on a run.  ``margin`` is the signed
    relative distance to its flip (negative when it fails), ``None`` for
    a non-numeric fact."""

    id: str
    holds: bool
    margin: Optional[float]


_OPS = {"<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def claim(id: str, lhs: float, op: str, rhs: float) -> Claim:
    """``lhs op rhs``, margin ``(rhs - lhs) / |rhs|`` for ``<``/``<=`` and
    ``(lhs - rhs) / |rhs|`` for ``>``/``>=`` (``None`` when ``rhs`` is 0)."""
    gap = rhs - lhs if op in ("<", "<=") else lhs - rhs
    return Claim(id, bool(_OPS[op](lhs, rhs)), gap / abs(rhs) if rhs else None)


def fact(id: str, holds: bool) -> Claim:
    """A non-numeric claim: a capability, a membership, a monotone list."""
    return Claim(id, bool(holds), None)


def tightest(id: str, cases) -> Claim:
    """A loop of ``(lhs, op, rhs)`` comparisons as one claim: the case
    nearest its flip, a failing case first."""
    found = (claim(id, *case) for case in cases)
    return min(found, key=lambda c: (c.holds, c.margin))


def run_bench(name: str, argv: Optional[Sequence[str]] = None) -> int:
    """Run benchmark module ``name``: write its tables and
    ``<stem>_claims.txt`` (one line per claim: id, ``holds`` or
    ``FAILS``, margin), and return 1 if any claim fails.

    ``--jobs N`` is offered when the module's ``run`` takes ``jobs``, and
    ``--projection measured`` when it has ``run_measured``, which writes
    host-specific wall-clock tables and evaluates no claims.
    """
    module = importlib.import_module(name)
    parser = argparse.ArgumentParser(description=module.__doc__.split("\n")[0])
    takes_jobs = "jobs" in inspect.signature(module.run).parameters
    if takes_jobs:
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the measurements")
    if hasattr(module, "run_measured"):
        parser.add_argument("--projection", choices=("sim", "measured"),
                            default="sim", help="concurrency simulator, or "
                            "real worker processes beside it (measured)")
    args = parser.parse_args(argv)
    kwargs = {"jobs": args.jobs} if takes_jobs else {}
    if getattr(args, "projection", "sim") == "measured":
        tables, claims = module.run_measured(**kwargs), []
    else:
        tables, results = module.run(**kwargs)
        claims = module.claims(results)
    for table_name, table in tables.items():
        text, data = (table, None) if isinstance(table, str) else table
        write_result(table_name, text, data)
    if not claims:
        return 0
    width = max(len(c.id) for c in claims)
    stem = os.path.basename(module.__file__)[:-3].removeprefix("bench_")
    write_result(f"{stem}_claims", "\n".join(
        f"{c.id:<{width}}  {'holds' if c.holds else 'FAILS'}  "
        + ("-" if c.margin is None else f"{c.margin:+.3f}") for c in claims
    ))
    failed = [c.id for c in claims if not c.holds]
    if failed:
        print(f"FAILED claims: {', '.join(failed)}")
    return 1 if failed else 0
