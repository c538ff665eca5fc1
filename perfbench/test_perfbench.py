"""Self-tests of the benchmark runner on reduced-size workloads.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each test drives ``perfbench/run.py`` as a subprocess, the way the
benchmark is invoked, at ``--scale smoke``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "smoke", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return process.returncode, process.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [metric["name"] for metric in declared]
    for metric in declared:
        assert metrics[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(metrics[metric["name"]]["value"], float)


def test_spec_names_the_four_workloads():
    assert WORKLOADS == ["campaign", "grid", "replay", "live"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    code, lines = run_bench("--workload", workload, "--trace", "0")
    result = result_of(lines)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    for key in ("commit", "seed", "config_fingerprint", "python", "numpy", "nproc"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    code, lines = run_bench("--workload", workload, "--trace", "1")
    result = result_of(lines)
    assert code == 0 and result["correct"]
    assert_metrics(result, SPEC["per_layer"])


def test_corrupted_golden_counts_as_failure(tmp_path):
    goldens = tmp_path / "goldens.json"
    code, _ = run_bench("--workload", "live", "--goldens", str(goldens), "--pin")
    assert code == 0
    pinned = json.loads(goldens.read_text())
    assert pinned["digests"]["live/smoke"]["0"]

    code, lines = run_bench("--workload", "live", "--goldens", str(goldens))
    assert code == 0 and result_of(lines)["correct"]
    assert json.loads(lines[-2])["record"]["golden"] == "pinned"

    pinned["digests"]["live/smoke"]["0"] = "0" * 64
    goldens.write_text(json.dumps(pinned))
    code, lines = run_bench("--workload", "live", "--goldens", str(goldens))
    result = result_of(lines)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("--workload", "campaign", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
