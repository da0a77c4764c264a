"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.pathing.kernels import KERNELS


class TestParser:
    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "--dataset", "SJ", "--source", "3", "--category", "T2"]
        )
        assert args.command == "query"
        assert args.k == 10
        assert args.algorithm == "iter-bound-spti"

    def test_bench_args(self):
        args = build_parser().parse_args(["bench", "--figure", "fig9"])
        assert args.command == "bench"
        assert args.queries == 3

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--dataset", "MARS", "--source", "0", "--category", "X"]
            )

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--figure", "fig99"])


class TestCommands:
    def test_datasets_lists_table(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("SJ", "CAL", "USA"):
            assert name in out

    def test_query_prints_paths(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "SJ",
                "--source",
                "10",
                "--category",
                "T2",
                "--k",
                "3",
                "--landmarks",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-3 paths" in out
        assert "length" in out

    def test_query_bad_source(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "SJ",
                "--source",
                "999999",
                "--category",
                "T2",
            ]
        )
        assert code == 2
        assert "source must be" in capsys.readouterr().err

    def test_bench_prints_figure(self, capsys):
        assert main(["bench", "--figure", "fig12b", "--queries", "1"]) == 0
        out = capsys.readouterr().out
        assert "IterBoundI" in out

    def test_compare_verifies_agreement(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "SJ",
                "--source",
                "50",
                "--category",
                "T2",
                "--k",
                "5",
                "--landmarks",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all algorithms agree" in out
        assert "da-spt" in out

    def test_query_json_output(self, capsys):
        import json

        code = main(
            [
                "query",
                "--dataset",
                "SJ",
                "--source",
                "10",
                "--category",
                "T2",
                "--k",
                "2",
                "--landmarks",
                "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "iter-bound-spti"
        assert len(payload["paths"]) == 2
        assert payload["paths"][0]["length"] <= payload["paths"][1]["length"]

    def test_compare_bad_source(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "SJ",
                "--source",
                "-5",
                "--category",
                "T2",
            ]
        )
        assert code == 2


class TestKernelAndStatsFlags:
    def test_query_flat_kernel_with_stats(self, capsys):
        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--kernel", "flat", "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flat kernel" in out
        assert "stats:" in out
        assert "flat_kernel_calls" in out
        assert "prepared_cache_misses" in out

    def test_query_kernels_agree(self, capsys):
        outputs = []
        for kernel in KERNELS:
            assert main(
                [
                    "query", "--dataset", "SJ", "--source", "10",
                    "--category", "T2", "--k", "3", "--landmarks", "4",
                    "--kernel", kernel, "--json",
                ]
            ) == 0
            import json

            payload = json.loads(capsys.readouterr().out)
            outputs.append([p["length"] for p in payload["paths"]])
        assert outputs[0] == outputs[1]

    def test_invalid_kernel_rejected(self):
        for name in ("gpu", "native"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(
                    ["query", "--dataset", "SJ", "--source", "1",
                     "--category", "T2", "--kernel", name]
                )
            assert exc.value.code == 2


class TestBatchCommand:
    def test_batch_explicit_sources(self, capsys):
        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--sources", "3,10,25", "--k", "2", "--landmarks", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 queries" in out
        assert "queries/s" in out

    def test_batch_random_sources_with_workers_and_stats(self, capsys):
        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--random-sources", "6", "--seed", "1", "--workers", "2",
                "--kernel", "flat", "--stats", "--landmarks", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "prepared_cache_hits" in out

    def test_batch_json_payload(self, capsys):
        import json

        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--sources", "3,10", "--k", "2", "--landmarks", "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 1
        assert len(payload["results"]) == 2
        assert payload["results"][0]["source"] == 3
        assert payload["queries_per_s"] > 0

    def test_batch_bad_sources(self, capsys):
        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--sources", "3,abc",
            ]
        )
        assert code == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_batch_out_of_range_source(self, capsys):
        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--sources", "999999",
            ]
        )
        assert code == 2
        assert "must be in" in capsys.readouterr().err

    def test_batch_requires_source_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["batch", "--dataset", "SJ", "--category", "T2"]
            )

class TestMetricsFlags:
    def test_query_metrics_text(self, capsys):
        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--metrics", "text",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "landmark_build" in out
        assert "comp_sp" in out
        assert "elapsed" in out

    def test_query_metrics_json_is_one_document(self, capsys):
        import json

        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--metrics", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["result"]["paths"]) == 2
        assert payload["result"]["elapsed_ms"] > 0
        assert "prepare" in payload["metrics"]["phases"]
        assert payload["metrics"]["counters"]["queries"] == 1

    def test_batch_metrics_json_has_latency_percentiles(self, capsys):
        import json

        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--sources", "1,5,9,13", "--k", "3", "--landmarks", "4",
                "--metrics", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == 4
        lat = payload["latency_ms"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert payload["metrics"]["counters"]["queries"] == 4
        assert "landmark_build" in payload["metrics"]["phases"]

    def test_batch_metrics_text_with_workers(self, capsys):
        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--sources", "1,5,9,13", "--k", "3", "--landmarks", "4",
                "--workers", "2", "--metrics", "text",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "warmup" in out  # the pre-fork phase shows up
        assert "query_latency_ms" in out

    def test_stats_output_skips_zero_counters(self, capsys):
        code = main(
            [
                "query", "--dataset", "SJ", "--source", "10",
                "--category", "T2", "--k", "2", "--landmarks", "4",
                "--kernel", "flat", "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flat_kernel_calls" in out
        assert "dict_kernel_calls" not in out  # zero under the flat kernel


class TestFuzzCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.command == "fuzz"
        assert args.seed == 0
        assert args.cases == 200
        assert args.shrink is True
        assert args.kernels is None
        assert args.corpus_dir == "fuzz/corpus"

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--seed", "7", "--cases", "50", "--time-budget", "1.5",
             "--kernel", "dict", "--kernel", "flat", "--no-shrink"]
        )
        assert args.seed == 7
        assert args.time_budget == 1.5
        assert args.kernels == ["dict", "flat"]
        assert args.shrink is False

    def test_invalid_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--kernel", "gpu"])

    def test_small_run_is_clean(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--seed", "0", "--cases", "15", "--kernel", "dict",
             "--corpus-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all configurations agree" in out
        assert list(tmp_path.iterdir()) == []

    def test_replay_corpus_file(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).parent.parent / "fuzz" / "corpus"
        path = str(sorted(corpus.glob("*.json"))[0])
        assert main(["fuzz", "--replay", path, "--kernel", "dict"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_missing_file(self, capsys):
        code = main(["fuzz", "--replay", "/no/such/repro.json"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestMetricsCommand:
    def workload(self, tmp_path, **overrides):
        import json

        spec = {
            "dataset": "SJ",
            "landmarks": 4,
            "queries": [
                {"source": 1, "category": "T2", "k": 3},
                {"source": 5, "category": "T2", "k": 3},
                {"source": 9, "category": "T1", "k": 2},
            ],
        }
        spec.update(overrides)
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_exposition_parses_cleanly(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prom

        code = main(["metrics", "--workload", self.workload(tmp_path)])
        assert code == 0
        samples = parse_prom(capsys.readouterr().out)
        assert samples[("kpj_queries_total", ())] == 3
        assert ("kpj_phase_seconds_total", (("phase", "comp_sp"),)) in samples
        assert ("kpj_phase_seconds_total", (("phase", "landmark_build"),)) in samples
        # SearchStats counters folded into the same document.
        assert samples[("kpj_nodes_settled_total", ())] > 0

    def test_exposition_with_workers_includes_warmup(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prom

        path = self.workload(tmp_path, workers=2, kernel="flat")
        assert main(["metrics", "--workload", path]) == 0
        samples = parse_prom(capsys.readouterr().out)
        assert ("kpj_phase_seconds_total", (("phase", "warmup"),)) in samples
        assert samples[("kpj_queries_total", ())] == 3

    def test_prefix_flag(self, capsys, tmp_path):
        from repro.obs.metrics import parse_prom

        path = self.workload(tmp_path)
        assert main(["metrics", "--workload", path, "--prefix", "repro"]) == 0
        samples = parse_prom(capsys.readouterr().out)
        assert ("repro_queries_total", ()) in samples

    def test_missing_workload_file(self, capsys):
        assert main(["metrics", "--workload", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_dataset_rejected(self, capsys, tmp_path):
        path = self.workload(tmp_path, dataset="NOPE")
        assert main(["metrics", "--workload", path]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_empty_queries_rejected(self, capsys, tmp_path):
        path = self.workload(tmp_path, queries=[])
        assert main(["metrics", "--workload", path]) == 2
        assert "no queries" in capsys.readouterr().err


class TestObservabilityFlags:
    """--log/--slow-ms/--profile/--memory, trace --folded, kpj report."""

    QUERY = [
        "query", "--dataset", "SJ", "--source", "10", "--category", "T2",
        "--k", "3", "--landmarks", "4",
    ]

    def test_parser_defaults(self):
        for head in (self.QUERY, ["batch", "--dataset", "SJ", "--category",
                                  "T2", "--sources", "1"]):
            args = build_parser().parse_args(head)
            assert args.log is None and args.slow_ms is None
            assert args.profile is None and args.memory is False

    def test_slow_ms_requires_log(self, capsys):
        assert main(self.QUERY + ["--slow-ms", "5"]) == 2
        assert "--slow-ms requires --log" in capsys.readouterr().err

    def test_query_log_round_trips(self, capsys, tmp_path):
        from repro.obs.log import parse_query_log

        log = tmp_path / "q.jsonl"
        assert main(self.QUERY + ["--log", str(log)]) == 0
        (event,) = parse_query_log(log.read_text())
        assert event["kernel"] == "dict"
        assert event["k"] == 3
        assert event["paths"] == 3
        assert "slow" not in event

    def test_slow_dump_written_and_loadable(self, capsys, tmp_path):
        from repro.obs.log import load_slow_query, parse_query_log

        log = tmp_path / "q.jsonl"
        assert main(self.QUERY + ["--log", str(log), "--slow-ms", "0"]) == 0
        (event,) = parse_query_log(log.read_text())
        assert event["slow"] is True
        dump = load_slow_query(event["slow_dump"])
        # --slow-ms implies metrics + tracing for a useful dump.
        assert dump.metrics is not None and dump.trace is not None

    def test_memory_prints_byte_accounting(self, capsys):
        assert main(self.QUERY + ["--memory"]) == 0
        out = capsys.readouterr().out
        assert "memory:" in out
        assert "process_peak_rss_bytes" in out
        assert "mem_search_alloc_bytes" in out

    def test_profile_writes_loadable_pstats(self, capsys, tmp_path):
        import pstats

        prof = tmp_path / "q.prof"
        assert main(self.QUERY + ["--profile", str(prof)]) == 0
        assert "profile ->" in capsys.readouterr().err
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0

    def test_batch_logs_one_event_per_query(self, capsys, tmp_path):
        from repro.obs.log import parse_query_log

        log = tmp_path / "b.jsonl"
        code = main(
            [
                "batch", "--dataset", "SJ", "--category", "T2",
                "--sources", "1,5,9", "--k", "3", "--landmarks", "4",
                "--workers", "2", "--log", str(log),
            ]
        )
        assert code == 0
        events = parse_query_log(log.read_text())
        assert len(events) == 3
        assert len({e["query_id"] for e in events}) == 3

    def test_trace_folded_output(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        folded = tmp_path / "t.folded"
        code = main(
            [
                "trace", "--dataset", "SJ", "--source", "10", "--category",
                "T2", "--k", "3", "--landmarks", "4",
                "--out", str(out), "--folded", str(folded),
            ]
        )
        assert code == 0
        assert "folded stacks ->" in capsys.readouterr().out
        for line in folded.read_text().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 1


class TestReportCommand:
    def test_renders_committed_trajectory(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Perf trajectory report")
        assert "### Work counters" in out

    def test_renders_committed_histories_with_retired_keys(self, capsys):
        """Committed entries keep counters and kernels no longer produced.

        ``BENCH_loadtest.json`` work blocks still carry the retired
        batch-occupancy counters and ``BENCH_trajectory.json`` still
        holds the retired ``native`` protocol; both must keep rendering.
        """
        results = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
        loadtest = results / "BENCH_loadtest.json"
        assert "batch_rounds" in loadtest.read_text()
        assert main(["report", "--loadtest", str(loadtest)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Load-test trajectory report")
        assert "| batch_rounds |" in out
        trajectory = results / "BENCH_trajectory.json"
        assert '"native"' in trajectory.read_text()
        assert main(["report", "--trajectory", str(trajectory)]) == 0
        assert "`native` kernel" in capsys.readouterr().out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "report.md"
        assert main(["report", "--out", str(dest)]) == 0
        assert "report ->" in capsys.readouterr().out
        assert dest.read_text().startswith("# Perf trajectory report")

    def test_missing_trajectory_file(self, capsys):
        assert main(["report", "--trajectory", "/no/such.json"]) == 2
        assert "nothing to report" in capsys.readouterr().err

    def test_non_list_trajectory_rejected(self, capsys, tmp_path):
        bogus = tmp_path / "t.json"
        bogus.write_text('{"not": "a list"}')
        assert main(["report", "--trajectory", str(bogus)]) == 2
        assert "not a list" in capsys.readouterr().err

    def test_missing_loadtest_trajectory(self, capsys):
        assert main(["report", "--loadtest", "/no/such.json"]) == 2
        err = capsys.readouterr().err
        assert "nothing to report" in err and "loadtest" in err

    def test_empty_loadtest_trajectory_is_clean(self, capsys, tmp_path):
        blank = tmp_path / "lt.json"
        blank.write_text("\n")
        assert main(["report", "--loadtest", str(blank)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_empty_trajectory_file_is_clean(self, capsys, tmp_path):
        blank = tmp_path / "t.json"
        blank.write_text("")
        assert main(["report", "--trajectory", str(blank)]) == 0
        assert "is empty" in capsys.readouterr().out


def _write_tiny_spec(tmp_path, **overrides):
    import json

    data = {
        "name": "cli-tiny",
        "dataset": "SJ",
        "categories": ["T1", "T2"],
        "target_qps": 400.0,
        "queries": 8,
        "workers": 1,
        "seed": 5,
        "kernel": "dict",
        "landmarks": 2,
        "k": {"kind": "fixed", "value": 2},
        "slo": {"p99_ms": 30000.0, "min_qps": 1.0},
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


class TestLoadtestCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadtest", "--spec", "w.json"])
        assert args.command == "loadtest"
        assert args.out is None
        assert args.baseline is None
        assert args.gate is True
        assert args.json is False

    def test_replay_writes_entry_and_passes_gate(self, capsys, tmp_path):
        import json

        spec = _write_tiny_spec(tmp_path)
        out = tmp_path / "BENCH_loadtest.json"
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "slo gate OK" in captured.out
        assert "queue wait" in captured.out
        entries = json.loads(out.read_text())
        assert len(entries) == 1
        assert entries[0]["completed"] == 8

    def test_second_run_gates_against_recorded_baseline(self, capsys, tmp_path):
        spec = _write_tiny_spec(
            tmp_path, slo={"p99_ms": 30000.0, "regression_factor": 100.0}
        )
        out = tmp_path / "BENCH_loadtest.json"
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        assert "slo gate OK vs baseline" in capsys.readouterr().out

    def test_violated_p99_bound_fails_nonzero(self, capsys, tmp_path):
        # No real replay finishes under a microsecond: the declared
        # p99 bound is deliberately impossible, so the gate must fail.
        spec = _write_tiny_spec(tmp_path, slo={"p99_ms": 0.001})
        assert main(["loadtest", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "SLO GATE FAILED" in err
        assert "p99" in err

    def test_no_gate_flag_skips_slo(self, capsys, tmp_path):
        spec = _write_tiny_spec(tmp_path, slo={"p99_ms": 0.001})
        assert main(["loadtest", "--spec", str(spec), "--no-gate"]) == 0
        assert "SLO GATE FAILED" not in capsys.readouterr().err

    def test_json_output_is_the_entry(self, capsys, tmp_path):
        import json

        spec = _write_tiny_spec(tmp_path)
        assert main(["loadtest", "--spec", str(spec), "--json"]) == 0
        entry = json.loads(capsys.readouterr().out.rsplit("slo gate OK")[0])
        assert entry["queries"] == 8
        assert entry["latency_ms"]["p99"] is not None

    def test_bad_spec_exits_two(self, capsys, tmp_path):
        spec = _write_tiny_spec(tmp_path, target_qps=0)
        assert main(["loadtest", "--spec", str(spec)]) == 2
        assert "bad workload spec" in capsys.readouterr().err

    def test_report_renders_loadtest_trajectory(self, capsys, tmp_path):
        spec = _write_tiny_spec(tmp_path)
        out = tmp_path / "BENCH_loadtest.json"
        assert main(["loadtest", "--spec", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--loadtest", str(out)]) == 0
        doc = capsys.readouterr().out
        assert doc.startswith("# Load-test trajectory report")
        assert "cli-tiny" in doc
        assert "Queue wait vs service time" in doc
