"""The paper's claims: the driver that evaluates them, and the committed
claims files that EXPERIMENTS.md names.

Reads files only — no benchmark runs here.  ``benchmarks/run_all.py``
regenerates the claims files, and CI diffs them exactly.
"""

import glob
import os
import re
import sys
import types

import pytest

from repro.bench import claim, fact, run_bench, tightest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results")

#: A claim id in EXPERIMENTS.md: ``<figure>.<slug>`` in backticks.
CLAIM_ID = re.compile(
    r"`((?:table\d|fig\d+[a-d]?|appendix-range|ext-[a-z-]+|abl-[a-z]+"
    r"|concurrency)\.[a-z0-9-]+)`"
)


def _committed_claims():
    """``{id: (status, margin)}`` over every committed claims file."""
    found = {}
    for path in sorted(glob.glob(os.path.join(RESULTS, "*_claims.txt"))):
        with open(path) as f:
            for line in f:
                cid, status, margin = line.split()
                assert cid not in found, f"{cid} in two claims files"
                found[cid] = (status, margin)
    return found


def _experiments_ids():
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
        return set(CLAIM_ID.findall(f.read()))


class TestCommittedClaims:
    def test_every_module_has_a_claims_file(self):
        # The 28 deterministic modules that run_all.py drives.
        assert len(glob.glob(os.path.join(RESULTS, "*_claims.txt"))) == 28

    def test_experiments_names_only_existing_claims(self):
        missing = _experiments_ids() - set(_committed_claims())
        assert not missing, f"EXPERIMENTS.md names unknown claims: {missing}"

    def test_every_claim_is_named_in_experiments(self):
        unnamed = set(_committed_claims()) - _experiments_ids()
        assert not unnamed, f"claims EXPERIMENTS.md does not name: {unnamed}"

    def test_every_committed_claim_holds(self):
        failing = [
            cid for cid, (status, _) in _committed_claims().items()
            if status != "holds"
        ]
        assert not failing, f"committed claims that fail: {failing}"

    def test_margins_are_signed_or_absent(self):
        for cid, (_, margin) in _committed_claims().items():
            assert margin == "-" or re.fullmatch(r"[+-]\d+\.\d{3}", margin), (
                cid
            )


class TestClaimHelpers:
    @pytest.mark.parametrize(
        "lhs, op, rhs, holds, margin",
        [
            (1.0, "<", 2.0, True, 0.5),
            (3.0, "<=", 2.0, False, -0.5),
            (2.0, "<=", 2.0, True, 0.0),
            (3.0, ">", 2.0, True, 0.5),
            (1.0, ">=", 2.0, False, -0.5),
            (2.0, ">", 2.0, False, 0.0),
            (-1.0, "<", -2.0, False, -0.5),
        ],
    )
    def test_margin_is_signed_distance_to_the_flip(
        self, lhs, op, rhs, holds, margin
    ):
        c = claim("x.y", lhs, op, rhs)
        assert c.holds is holds
        assert c.margin == pytest.approx(margin)

    def test_zero_rhs_has_no_margin(self):
        assert claim("x.y", 0.25, ">", 0.0).margin is None

    def test_tightest_picks_the_case_nearest_its_flip(self):
        c = tightest("x.y", [(1, "<", 10), (9, "<", 10), (2, "<", 10)])
        assert c.holds and c.margin == pytest.approx(0.1)
        c = tightest("x.y", [(1, "<", 10), (11, "<", 10)])
        assert not c.holds and c.margin == pytest.approx(-0.1)

    def test_fact_has_no_margin(self):
        assert fact("x.y", False) == ("x.y", False, None)


def _stub_module(tmp_path, monkeypatch):
    """A figure module the driver imports by name, writing to tmp_path."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    module = types.ModuleType("bench_stub")
    monkeypatch.setitem(sys.modules, "bench_stub", module)
    module.__doc__ = "Stub figure."
    module.__file__ = str(tmp_path / "bench_stub.py")
    module.run = lambda: (
        {"stub_table": "a  b\n-  -\n1  2", "stub_data": ("t", {"k": 1})},
        {"small": 1.0, "large": 3.0},
    )
    module.claims = lambda r: [
        claim("stub.small-below-two", r["small"], "<", 2.0),
        claim("stub.large-below-two", r["large"], "<", 2.0),
        claim("stub.large-above-two", r["large"], ">", 2.0),
        fact("stub.fact", True),
    ]
    return module


class TestDriver:
    def test_failed_claim_fails_the_run_after_writing_every_file(
        self, tmp_path, monkeypatch, capsys
    ):
        _stub_module(tmp_path, monkeypatch)
        assert run_bench("bench_stub", []) == 1
        table = (tmp_path / "stub_table.txt").read_text()
        assert table == "a  b\n-  -\n1  2\n"
        assert (tmp_path / "stub_data.json").exists()
        lines = (tmp_path / "stub_claims.txt").read_text().splitlines()
        assert [line.split() for line in lines] == [
            ["stub.small-below-two", "holds", "+0.500"],
            ["stub.large-below-two", "FAILS", "-0.500"],
            ["stub.large-above-two", "holds", "+0.500"],
            ["stub.fact", "holds", "-"],
        ]
        assert "FAILED claims: stub.large-below-two" in capsys.readouterr().out

    def test_all_claims_holding_exits_zero(self, tmp_path, monkeypatch):
        module = _stub_module(tmp_path, monkeypatch)
        module.claims = lambda r: [claim("stub.ok", r["small"], "<", 2.0)]
        assert run_bench("bench_stub", []) == 0

    def test_jobs_is_offered_only_to_a_run_that_takes_it(
        self, tmp_path, monkeypatch
    ):
        module = _stub_module(tmp_path, monkeypatch)
        with pytest.raises(SystemExit):
            run_bench("bench_stub", ["--jobs", "2"])
        seen = []

        def run(jobs=1):
            seen.append(jobs)
            return {}, {}

        module.run = run
        module.claims = lambda r: [fact("stub.ok", True)]
        assert run_bench("bench_stub", ["--jobs", "2"]) == 0
        assert seen == [2]
