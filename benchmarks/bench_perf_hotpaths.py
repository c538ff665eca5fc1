"""Hot-path wall-clock benchmark: the repo's perf trajectory seed.

Times the four paths the ROADMAP's "fast as the hardware allows" goal
lives or dies by, and writes them to a JSON artifact (``BENCH_perf.json``)
so successive PRs can compare against a recorded baseline:

* ``dataset_build`` — the full measurement campaign over the main-building
  placement plans (ray tracing, sector sweeps, per-MCS trace capture);
* ``rf_fit``       — fitting the paper's random forest on the campaign;
* ``rf_predict``   — batch inference over a replicated feature matrix;
* ``rf_predict_1row`` — the median of 200 single-row ``predict_proba``
  calls, the per-decision cost of LiBRA's live loop;
* ``grid_point``   — one §8 evaluation-grid operating point end to end.

Run it as a script (``PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py``).
``--scale smoke`` shrinks every workload for CI; ``--baseline PATH``
compares against a previously recorded JSON and records the speedups.

The numbers are best-of-``--repeats`` wall-clock seconds, measured with
``time.perf_counter`` in-process (no subprocess noise).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"


def _best_of(repeats: int, fn) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs; returns (seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_benchmarks(scale: str, repeats: int, workers: int) -> dict:
    from repro.dataset.builder import DatasetBuildConfig, build_dataset
    from repro.env.placement import lobby_plan, main_building_plans
    from repro.ml.forest import RandomForestClassifier
    from repro.sim.sweep import EvaluationGrid, OperatingPoint

    if scale == "smoke":
        plans = [lobby_plan()]
        n_estimators, grid_trees = 10, 6
        predict_rows = 1000
    else:
        plans = main_building_plans()
        n_estimators, grid_trees = 60, 20
        predict_rows = 5000

    config = DatasetBuildConfig(seed=0, include_na=True)

    dataset_build_s, dataset = _best_of(
        repeats, lambda: build_dataset(plans, config, workers=workers)
    )
    X, y = dataset.feature_matrix(), dataset.labels()

    def fit():
        model = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=14, random_state=0
        )
        model.fit(X, y)
        return model

    rf_fit_s, model = _best_of(repeats, fit)

    reps = int(np.ceil(predict_rows / max(len(X), 1)))
    X_big = np.tile(X, (reps, 1))[:predict_rows]
    rf_predict_s, _ = _best_of(repeats, lambda: model.predict_proba(X_big))

    one_row_s = []
    for row in np.resize(np.arange(len(X)), 200):
        start = time.perf_counter()
        model.predict_proba(X[row : row + 1])
        one_row_s.append(time.perf_counter() - start)
    rf_predict_1row_s = float(np.median(one_row_s))

    grid = EvaluationGrid(
        dataset, dataset.without_na(), n_estimators=grid_trees, max_depth=10,
        random_state=0,
    )
    point = OperatingPoint(5e-3, 2e-3, flow_duration_s=0.5)

    def grid_point():
        grid._model_cache.clear()  # time training + replay, not the cache
        return grid.run_point(point)

    grid_point_s, _ = _best_of(repeats, grid_point)

    return {
        "scale": scale,
        "repeats": repeats,
        "workers": workers,
        "dataset_entries": len(dataset),
        "timings_s": {
            "dataset_build": dataset_build_s,
            "rf_fit": rf_fit_s,
            "rf_predict": rf_predict_s,
            "rf_predict_1row": rf_predict_1row_s,
            "grid_point": grid_point_s,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker count handed to the parallel runtime (1 = in-process)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="earlier BENCH_perf.json to compute speedups against",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="exit non-zero unless dataset_build and rf_fit are ≥X faster "
             "than the baseline",
    )
    parser.add_argument(
        "--pinned", type=Path, default=None,
        help="pinned baseline JSON for the regression gate: fail when "
             "grid_point or rf_fit exceeds its pinned timing by more than "
             "--max-regression",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25, metavar="FRAC",
        help="allowed fractional slowdown over the --pinned timings "
             "(default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.scale, args.repeats, args.workers)
    report["python"] = platform.python_version()
    report["numpy"] = np.__version__

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        speedups = {}
        for name, seconds in report["timings_s"].items():
            base = baseline.get("timings_s", {}).get(name)
            if base and seconds > 0:
                speedups[name] = base / seconds
        report["baseline"] = {
            "path": str(args.baseline),
            "timings_s": baseline.get("timings_s", {}),
            "scale": baseline.get("scale"),
        }
        report["speedup_vs_baseline"] = speedups

    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for name, seconds in report["timings_s"].items():
        line = f"{name:>14}: {seconds:8.4f} s"
        speedup = report.get("speedup_vs_baseline", {}).get(name)
        if speedup is not None:
            line += f"  ({speedup:.2f}x vs baseline)"
        print(line)
    print(f"written to {args.out}")

    if args.min_speedup is not None:
        speedups = report.get("speedup_vs_baseline", {})
        for name in ("dataset_build", "rf_fit"):
            got = speedups.get(name, 0.0)
            if got < args.min_speedup:
                print(f"FAIL: {name} speedup {got:.2f}x < {args.min_speedup}x")
                return 1
        print(f"speedup gate OK (≥{args.min_speedup}x on dataset_build and rf_fit)")

    if args.pinned is not None:
        pinned = json.loads(args.pinned.read_text())
        pinned_timings = pinned.get("timings_s", {})
        failed = False
        for name in ("grid_point", "rf_fit"):
            base = pinned_timings.get(name)
            got = report["timings_s"].get(name)
            if not base or got is None:
                print(f"FAIL: no pinned timing for {name} in {args.pinned}")
                failed = True
                continue
            limit = base * (1.0 + args.max_regression)
            if got > limit:
                print(
                    f"FAIL: {name} {got:.4f} s exceeds pinned {base:.4f} s "
                    f"by more than {args.max_regression:.0%} "
                    f"(limit {limit:.4f} s)"
                )
                failed = True
        if failed:
            return 1
        print(
            f"regression gate OK (grid_point and rf_fit within "
            f"{args.max_regression:.0%} of {args.pinned})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
