"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

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

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, value)
            for command in ("bench", "report")
            for flag, value in (
                ("--keys", "0"),
                ("--ops", "0"),
                ("--batch-size", "0"),
                ("--shards", "0"),
                ("--workers", "0"),
                ("--restart-budget", "-1"),
                ("--worker-timeout", "0"),
            )
        ]
        + [
            ("report", "--sample", "1.5"),
            ("report", "--span-sample", "2"),
            ("report", "--span-quantile", "1.0"),
            ("report", "--stall-threshold", "-1"),
            ("report", "--stall-threshold", "nan"),
            ("datasets", "--n", "0"),
        ],
    )
    def test_out_of_range_flag_fails_at_parse_time(
        self, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "report"])
    def test_analytic_projection_fails_at_parse_time(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "1,4", "--projection", "analytic"])
        assert exc.value.code == 2
        assert "argument --projection:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--workload", "write-only", "--keys", "40000",
             "--ops", "20000"],
            ["report", "--workload", "write-only", "--keys", "100",
             "--ops", "60"],
            ["bench", "--workload", "ycsb-d", "--keys", "1", "--ops", "10"],
        ],
        ids=["bench", "report", "bench-no-load"],
    )
    def test_too_few_insert_keys_exit_2(self, capsys, argv):
        # Insert workloads hold out half of --keys as insert keys.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "half of --keys" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "engine", [[], ["--shards", "2"]], ids=["flat", "shards"]
    )
    def test_batched_op_counts_are_histogram_counts(self, tmp_path, engine):
        prom = tmp_path / "metrics.prom"
        argv = ["--batch-size", "64", "--prom-out", str(prom)]
        assert main(self.RUN + argv + engine) == 0
        text = prom.read_text()
        counts = re.findall(
            r"^repro_op_latency_ns_count\{[^}]*\} (\d+)$", text, re.M
        )
        assert len(counts) == 2  # read and update
        assert sum(map(int, counts)) == 500  # --ops
        assert "repro_ops_total" not in text


def _table(out: str, title: str):
    """The body rows of the titled table in ``out``, as cell lists."""
    lines = out.split(title + "\n", 1)[1].split("\n\n", 1)[0].splitlines()
    return [re.split(r"\s{2,}", line.strip()) for line in lines[2:]]


def test_bench_and_report_print_the_same_run(capsys):
    """``report`` is the ``bench`` run plus telemetry: the same flags
    give the same op count, build time, throughput and scaling rows."""
    flags = [
        "--index", "xindex", "--workload", "ycsb-a", "--keys", "4000",
        "--ops", "1000", "--threads", "1,4",
    ]
    assert main(["bench"] + flags) == 0
    bench = capsys.readouterr().out
    assert main(["report"] + flags) == 0
    report = capsys.readouterr().out

    def metrics(out, title):
        return {row[0]: row[1] for row in _table(out, title)}

    ran = metrics(bench, "Benchmark result (simulated hardware)")
    reported = metrics(report, "Run (simulated hardware)")
    for name in ("operations", "build (sim ms)", "throughput (sim Mops/s)"):
        assert ran[name] == reported[name], name
    assert ran["operations"] == "1,000"
    scaling = "Thread scaling (sim, fine_grained_latch[64]+retrain-block)"
    rows = _table(bench, scaling)
    assert [row[0] for row in rows] == ["1", "4"]
    assert rows == _table(report, scaling)


class TestReportTelemetry:
    """The report's tables agree with the files it writes."""

    RUN = [
        "report", "--index", "alex", "--workload", "ycsb-a",
        "--keys", "2000", "--ops", "400", "--threads", "1,4",
    ]

    def test_span_table_keeps_sim_spans_on_their_own_rows(
        self, capsys, tmp_path
    ):
        spans = tmp_path / "spans.jsonl"
        argv = ["--shards", "2", "--spans", "--span-out", str(spans)]
        assert main(self.RUN + argv) == 0
        rows = _table(capsys.readouterr().out, "Causal spans")
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        wall_requests = sum(
            1 for r in records if (r["kind"], r["clock"]) == ("request", "wall")
        )
        sim_requests = sum(
            1 for r in records if (r["kind"], r["clock"]) == ("request", "sim")
        )
        assert sim_requests > 0
        (request_row,) = [r for r in rows if r[0] == "request"]
        assert int(request_row[1].replace(",", "")) == wall_requests
        assert not any(r[0].startswith("event:event:") for r in rows)

    @pytest.mark.parametrize(
        "engine", [[], ["--workers", "2"]], ids=["flat", "workers"]
    )
    def test_trace_and_prom_files_match_lifecycle_table(
        self, capsys, tmp_path, engine
    ):
        trace, prom = tmp_path / "trace.jsonl", tmp_path / "metrics.prom"
        argv = [
            "--sample", "0.5", "--trace-out", str(trace),
            "--prom-out", str(prom),
        ]
        assert main(self.RUN + argv + engine) == 0
        rows = _table(capsys.readouterr().out, "Lifecycle events")
        assert rows and rows[0][0] != "(no"
        exported = {
            m.group(1): float(m.group(2))
            for m in re.finditer(
                r'^repro_trace_events_total\{event="([^"]+)"\} (\S+)$',
                prom.read_text(),
                re.M,
            )
        }
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert all(line["kind"] == "event" for line in lines)
        assert set(exported) == {row[0] for row in rows}
        for etype, emitted, sampled, *_ in rows:
            assert exported[etype] == int(emitted.replace(",", ""))
            in_file = sum(1 for line in lines if line["attrs"]["etype"] == etype)
            assert in_file == int(sampled.replace(",", ""))
        # Sampling at 0.5 keeps some events and drops others.
        assert 0 < len(lines) < sum(exported.values())
