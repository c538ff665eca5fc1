"""CLI tests: every subcommand end to end on small inputs."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dataset.io import save_dataset


@pytest.fixture
def saved_testing_dataset(testing_dataset, tmp_path):
    path = tmp_path / "testing.jsonl"
    save_dataset(testing_dataset, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.campaign == "main"
        assert not args.include_na


class TestDatasetCommand:
    def test_summary_printed(self, capsys):
        exit_code = main(["dataset", "--campaign", "testing"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "testing campaign" in out
        assert "displacement" in out

    def test_save_round_trip(self, tmp_path, capsys):
        from repro.dataset.io import load_dataset

        path = tmp_path / "out.jsonl"
        assert main(["dataset", "--campaign", "testing", "--out", str(path)]) == 0
        dataset = load_dataset(path)
        assert len(dataset) > 100

    def test_csv_export(self, tmp_path, capsys):
        from repro.dataset.io import load_features_csv

        path = tmp_path / "features.csv"
        assert main(["dataset", "--campaign", "testing", "--csv", str(path)]) == 0
        X, y, _prov = load_features_csv(path)
        assert X.shape[1] == 7
        assert len(y) == len(X)


class TestTrainCommand:
    def test_train_writes_model(self, saved_testing_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        exit_code = main([
            "train", str(saved_testing_dataset),
            "--model-out", str(model_path), "--trees", "8",
        ])
        assert exit_code == 0
        record = json.loads(model_path.read_text())
        assert record["kind"] == "random-forest"
        assert len(record["trees"]) == 8
        assert "train accuracy" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_heuristics_only(self, saved_testing_dataset, capsys):
        exit_code = main(["evaluate", str(saved_testing_dataset)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "BA First" in out and "RA First" in out
        assert "LiBRA" not in out

    def test_timing_summary_printed(self, saved_testing_dataset, capsys):
        exit_code = main(["evaluate", str(saved_testing_dataset)])
        assert exit_code == 0
        out = capsys.readouterr().out
        timing_lines = [l for l in out.splitlines() if l.startswith("timing:")]
        assert len(timing_lines) == 1
        # No --model: only the load and replay stages run.
        assert "load " in timing_lines[0] and "replay " in timing_lines[0]
        assert timing_lines[0].rstrip().endswith("flows)")

    def test_timing_summary_includes_model_stage(
        self, saved_testing_dataset, tmp_path, capsys
    ):
        model_path = tmp_path / "model.json"
        main([
            "train", str(saved_testing_dataset),
            "--model-out", str(model_path), "--trees", "8",
        ])
        capsys.readouterr()
        exit_code = main([
            "evaluate", str(saved_testing_dataset), "--model", str(model_path),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        timing_lines = [l for l in out.splitlines() if l.startswith("timing:")]
        assert len(timing_lines) == 1
        for stage in ("load", "model", "replay"):
            assert f"{stage} " in timing_lines[0]

    def test_with_model(self, saved_testing_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main([
            "train", str(saved_testing_dataset),
            "--model-out", str(model_path), "--trees", "8",
        ])
        capsys.readouterr()
        exit_code = main([
            "evaluate", str(saved_testing_dataset), "--model", str(model_path),
            "--ba-overhead-ms", "5", "--flow-s", "0.4",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "LiBRA" in out
        assert "matches Oracle-Data" in out


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestErrorExitCodes:
    def test_missing_dataset_exits_2(self, capsys):
        assert main(["evaluate", "/no/such/dataset.jsonl"]) == 2
        assert "cannot load dataset" in capsys.readouterr().err

    def test_missing_model_exits_2(self, saved_testing_dataset, capsys):
        code = main([
            "evaluate", str(saved_testing_dataset), "--model", "/no/such/model.json",
        ])
        assert code == 2
        assert "cannot load model" in capsys.readouterr().err

    def test_malformed_dataset_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        assert main(["evaluate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_dataset_exits_2(self, saved_testing_dataset, tmp_path, capsys):
        lines = saved_testing_dataset.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        assert main(["evaluate", str(truncated)]) == 2

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--ba-overhead-ms", "nan", "ba_overhead_s must be a finite number"),
            ("--ba-overhead-ms", "-1", "ba_overhead_s must be a finite number"),
            ("--fat-ms", "inf", "frame_time_s must be a finite number"),
            ("--fat-ms", "0", "frame_time_s must be a finite number"),
            ("--flow-s", "nan", "--flow-s must be a finite number"),
            ("--flow-s", "inf", "--flow-s must be a finite number"),
            ("--flow-s", "0", "--flow-s must be a finite number"),
        ],
    )
    def test_invalid_evaluate_config_exits_2(
        self, saved_testing_dataset, capsys, flag, value, message
    ):
        assert main(["evaluate", str(saved_testing_dataset), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_train_missing_dataset_exits_2(self, tmp_path, capsys):
        code = main([
            "train", "/no/such.jsonl", "--model-out", str(tmp_path / "m.json"),
        ])
        assert code == 2


class TestObservabilityFlags:
    def test_evaluate_trace_one_event_per_flow(
        self, saved_testing_dataset, tmp_path, capsys
    ):
        from repro.dataset.io import load_dataset
        from repro.obs.trace import read_trace

        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "evaluate", str(saved_testing_dataset),
            "--trace", str(trace_path), "--flow-s", "0.2",
        ])
        assert code == 0
        events = list(read_trace(trace_path))
        flows = [e for e in events if e["type"] == "flow"]
        n = len(load_dataset(saved_testing_dataset).without_na())
        # 1 Oracle-Data + BA First + RA First flow per impairment.
        assert len(flows) == 3 * n
        assert all("repairs" in e and "recovery_delay_s" in e for e in flows)
        # Exactly one aggregate trajectory-cache event, after the flows.
        caches = [e for e in events if e["type"] == "cache"]
        assert len(caches) == 1
        assert caches[0]["cache"] == "trajectory"
        assert caches[0]["misses"] == caches[0]["entries"] == n

    def test_evaluate_trace_worker_invariant(
        self, saved_testing_dataset, tmp_path, capsys
    ):
        traces = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.jsonl"
            code = main([
                "evaluate", str(saved_testing_dataset),
                "--trace", str(path), "--flow-s", "0.2",
                "--workers", str(workers),
            ])
            assert code == 0
            traces[workers] = path.read_bytes()
        assert traces[1] == traces[2]

    def test_evaluate_metrics_report(self, saved_testing_dataset, capsys):
        code = main([
            "evaluate", str(saved_testing_dataset),
            "--metrics", "--flow-s", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sim.flows" in out
        assert "evaluate.replay" in out

    def test_dataset_metrics_report(self, capsys):
        code = main(["dataset", "--campaign", "testing", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dataset.entries" in out
        assert "dataset.displacement" in out

    def test_inspect_renders_summary(self, saved_testing_dataset, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main([
            "evaluate", str(saved_testing_dataset),
            "--trace", str(trace_path), "--flow-s", "0.2",
        ])
        capsys.readouterr()
        assert main(["inspect", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "action mix" in out
        assert "RA First" in out
        assert "recovery delay" in out

    def test_unwritable_trace_path_exits_2(self, saved_testing_dataset, capsys):
        code = main([
            "evaluate", str(saved_testing_dataset),
            "--trace", "/no/such/dir/trace.jsonl",
        ])
        assert code == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_trace_path_is_a_directory_exits_2(
        self, saved_testing_dataset, tmp_path, capsys
    ):
        code = main([
            "evaluate", str(saved_testing_dataset), "--trace", str(tmp_path),
        ])
        assert code == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_inspect_missing_trace_exits_2(self, capsys):
        assert main(["inspect", "/no/such/trace.jsonl"]) == 2

    def test_inspect_malformed_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "flow"\n')
        assert main(["inspect", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err


class TestCotsCommand:
    @pytest.mark.parametrize("scenario", ["static", "mobility"])
    def test_session_summary(self, scenario, capsys):
        exit_code = main(["cots", scenario, "--duration", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "sectors" in out

    def test_no_ba_locks_sector(self, capsys):
        assert main(["cots", "static", "--duration", "5", "--no-ba"]) == 0
        out = capsys.readouterr().out
        assert "locked sector" in out
