"""LiBRA benchmark runner: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload live --seed 0 --seconds 20 --trace 0

The runner builds the workload's inputs from ``--seed``, then runs whole
iterations of the workload in a closed loop with one caller until they
add up to ``--seconds`` seconds.  It repeats the set-up between the first
iterations.  ``throughput_per_s`` comes from the median iteration and
``setup_s`` from the median set-up, both scaled to reference host speed
(see :mod:`perfbench.host`).
Every iteration's output digest must equal the pinned golden for this
seed (``perfbench/goldens.json``) or, for a seed without one, the first
iteration's digest.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a provenance record.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced iterations, reports the
per-layer table instead (see :mod:`perfbench.layers`), and writes it with
the full ``repro.obs`` snapshot to ``.perfbench_out/``.

Exit status: 0 when every iteration was correct, 1 when one failed, 2
when the repository sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("campaign", "grid", "replay", "live")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the self-tests")
    parser.add_argument("--goldens", type=Path, default=GOLDENS)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digest as the seed's golden")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" in an
    exported checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    """Content hash of the package sources, so an exported checkout still
    identifies the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _load_goldens(path: Path) -> dict:
    if not path.is_file():
        return {"digests": {}}
    return json.loads(path.read_text())


class Check:
    """Compares each iteration's digest with the golden or the first one."""

    def __init__(self, golden: str | None):
        self.expected = golden
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, iteration, *args):
        """One iteration; returns its outcome, or None when it failed."""
        self.attempted += 1
        try:
            outcome = iteration(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return None
        if self.expected is None:
            self.expected = outcome.digest
        if outcome.digest != self.expected:
            self.failed += 1
            self.errors.append(
                f"digest {outcome.digest} != expected {self.expected}"
            )
            return None
        return outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    # One caller, one core: pin native thread pools before numpy loads.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path[:0] = [str(SRC), str(ROOT)]

    import numpy as np

    import repro
    from perfbench import workloads
    from perfbench.host import REFERENCE_S, HostClock
    from perfbench.layers import LayerTracer, per_layer_metrics, traced
    from repro.obs.metrics import MetricsRegistry

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    key = f"{args.workload}/{args.scale}"
    goldens = _load_goldens(args.goldens)
    golden = None if args.pin else goldens["digests"].get(key, {}).get(str(args.seed))

    host = HostClock()
    setup_wall_s: list[float] = []

    def timed_setup() -> dict:
        start = time.perf_counter()
        inputs = workload.setup(scale, args.seed)
        setup_wall_s.append(time.perf_counter() - start)
        host.sample()
        return inputs

    inputs = timed_setup()

    check = Check(golden)
    plain_s: list[float] = []  # wall seconds per unit, untraced iterations
    traced_s: list[float] = []
    plain_decide_s: list[float] = []
    tracer, registry = LayerTracer(), MetricsRegistry()
    counts: dict[str, int] = {}
    measured_s = 0.0
    while True:
        tracing_now = bool(args.trace) and len(traced_s) < len(plain_s)
        start = time.perf_counter()
        if tracing_now:
            with traced(tracer, registry):
                outcome = check.run(workload.iteration, scale, args.seed, inputs)
        else:
            outcome = check.run(workload.iteration, scale, args.seed, inputs)
        wall_s = time.perf_counter() - start
        measured_s += wall_s
        host.sample()
        if outcome is not None:
            if tracing_now:
                traced_s.append(wall_s / outcome.units)
                for name, value in outcome.counts.items():
                    counts[name] = counts.get(name, 0) + value
            else:
                plain_s.append(wall_s / outcome.units)
                plain_decide_s.extend(outcome.decide_s)
        if len(setup_wall_s) < scale.setups:
            timed_setup()
        done = measured_s >= args.seconds
        if done and (not args.trace or traced_s) or check.failed >= 3:
            break
    while len(setup_wall_s) < scale.setups:
        timed_setup()

    for error in check.errors:
        print(error, file=sys.stderr)
    correct = check.failed == 0 and bool(plain_s)
    if args.trace:
        table = per_layer_metrics(
            tracer, registry, counts, plain_decide_s, len(traced_s)
        )
        overhead = (
            min(traced_s) / min(plain_s) - 1.0 if plain_s and traced_s else 0.0
        )
        table["obs.overhead_ratio"] = (overhead, "ratio")
    else:
        table = {
            "throughput_per_s": (
                1.0 / host.to_reference(statistics.median(plain_s)) if plain_s
                else 0.0,
                "1/s",
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "setup_s": (host.to_reference(statistics.median(setup_wall_s)), "s"),
        }

    record = {
        "workload": args.workload,
        "unit": workload.unit,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "config_fingerprint": workloads.config_fingerprint(args.workload, args.scale),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "golden": "pinned" if golden is not None else "self-consistent",
        "digest": check.expected,
        "reference_s": REFERENCE_S,
        "reference_loop_s": host.reference_s,
        "setup_wall_s": setup_wall_s,
        "iteration_wall_s_per_unit": plain_s,
        "traced_iteration_wall_s_per_unit": traced_s,
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        path.write_text(json.dumps({
            "record": record,
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
            "obs": registry.snapshot(),
        }, indent=2) + "\n")
        for name, (value, unit) in table.items():
            print(f"{name:<44} {value:14.6g} {unit}")
        print(f"per-layer table written to {path.relative_to(ROOT)}")
    if args.pin and correct:
        goldens["digests"].setdefault(key, {})[str(args.seed)] = check.expected
        args.goldens.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
