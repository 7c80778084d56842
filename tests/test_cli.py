"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import INDEXES, WORKLOADS, main


class TestInfo:
    def test_lists_every_index(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in INDEXES:
            assert name in out


class TestBench:
    def test_runs_small_benchmark(self, capsys):
        code = main(
            [
                "bench",
                "--index",
                "btree",
                "--workload",
                "read-only",
                "--keys",
                "2000",
                "--ops",
                "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput (sim Mops/s)" in out
        assert "p99.9" in out

    def test_insert_workload(self, capsys):
        code = main(
            [
                "bench",
                "--index",
                "alex",
                "--workload",
                "ycsb-d",
                "--keys",
                "4000",
                "--ops",
                "1000",
            ]
        )
        assert code == 0
        assert "YCSB-D" in capsys.readouterr().out

    def test_unknown_index_rejected(self, capsys):
        assert main(["bench", "--index", "nope"]) == 2
        assert "unknown index" in capsys.readouterr().err

    def test_unknown_workload_rejected(self, capsys):
        assert main(["bench", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_every_registered_workload_parses(self):
        # Workload registry must be consistent with the generator's needs.
        for name, spec in WORKLOADS.items():
            assert abs(
                spec.read + spec.update + spec.insert + spec.scan + spec.rmw
                - 1.0
            ) < 1e-9, name


class TestDatasets:
    def test_summary(self, capsys):
        assert main(["datasets", "--name", "osm", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "keys" in out
        assert "2,000" in out

    def test_dump(self, capsys):
        assert main(["datasets", "--name", "uniform", "--n", "50", "--dump"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 50
        values = [int(x) for x in lines]
        assert values == sorted(values)

    def test_unknown_dataset_rejected(self, capsys):
        assert main(["datasets", "--name", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestReport:
    RUN = [
        "report", "--index", "pgm", "--workload", "ycsb-a",
        "--keys", "2000", "--ops", "500",
    ]

    @pytest.mark.parametrize(
        "engine",
        [["--shards", "2"], ["--workers", "2", "--spans"]],
        ids=["shards", "workers-spans"],
    )
    def test_sharded_engine_report(self, capsys, engine):
        assert main(self.RUN + engine) == 0
        out = capsys.readouterr().out
        assert "Worker balance" in out
        assert "Worker health" in out
        # The profiler counts each workload op once, on either transport.
        assert "\n500 ops, " in out
        if "--spans" in engine:
            assert "Causal spans" in out

    def test_more_shards_than_workers_rejected(self, capsys):
        assert main(self.RUN + ["--shards", "4", "--workers", "2"]) == 2
        assert "exceeds --workers 2" in capsys.readouterr().err

    def test_spans_without_an_engine_rejected(self, capsys):
        assert main(self.RUN + ["--spans"]) == 2
        assert "--spans needs --shards or --workers" in (
            capsys.readouterr().err
        )
