"""Command-line interface: ``python -m repro <command>``.

Covers the full pipeline without writing any Python:

* ``dataset``  — run the measurement campaign and save/summarise it;
* ``train``    — fit the LiBRA forest on a saved dataset, save the model;
* ``evaluate`` — replay a saved dataset against LiBRA/heuristics/oracle;
* ``cots``     — run one §3 motivation session and print its story;
* ``inspect``  — summarise a ``--trace`` decision-trace JSONL;
* ``lint``     — the AST-based determinism & contract linter
  (see ``docs/static-analysis.md``).

``dataset`` and ``evaluate`` accept ``--trace PATH`` (structured JSONL
events) and ``--metrics`` (a counters/spans report on stderr-free
stdout); see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np


def _package_version() -> str:
    """The installed distribution version, falling back to the source tree."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def _fail(message: str) -> int:
    """One-line error on stderr; exit code 2 (usage/input error)."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _worker_count(value: str) -> int:
    """argparse type for ``--workers``: a positive integer."""
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return workers


def _add_obs_flags(parser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write structured JSONL events (see `repro inspect`)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect and print counters/gauges/timing spans",
    )


def _add_dataset_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "dataset", help="run the measurement campaign and save/summarise it"
    )
    parser.add_argument(
        "--campaign", choices=("main", "testing"), default="main",
        help="which building set to measure (default: main)",
    )
    parser.add_argument("--out", help="write the dataset to this JSONL path")
    parser.add_argument(
        "--csv", help="also write the features+labels CSV (public-artifact shape)"
    )
    parser.add_argument(
        "--include-na", action="store_true",
        help="augment with no-adaptation entries (needed to train LiBRA)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign RNG seed; the default (0) applies to both campaigns",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist one atomic checkpoint per completed placement plan",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="load matching checkpoints from --checkpoint-dir instead of rebuilding",
    )
    parser.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the campaign (1 = in-process); the "
        "dataset is byte-identical at every worker count",
    )
    _add_obs_flags(parser)


def _add_train_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "train", help="fit the LiBRA random forest on a saved dataset"
    )
    parser.add_argument("dataset", help="JSONL dataset from `repro dataset --out`")
    parser.add_argument("--model-out", required=True, help="JSON model output path")
    parser.add_argument("--trees", type=int, default=60)
    parser.add_argument("--max-depth", type=int, default=14)
    parser.add_argument("--seed", type=int, default=0)


def _add_evaluate_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "evaluate", help="replay a saved dataset against the policies"
    )
    parser.add_argument("dataset", help="JSONL dataset to replay")
    parser.add_argument("--model", help="JSON model for LiBRA (from `repro train`)")
    parser.add_argument("--ba-overhead-ms", type=float, default=5.0)
    parser.add_argument("--fat-ms", type=float, default=2.0)
    parser.add_argument("--flow-s", type=float, default=1.0)
    parser.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the replay (1 = in-process); results "
        "are identical at every worker count",
    )
    _add_obs_flags(parser)


def _add_chaos_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "chaos",
        help="run a live session under the full fault-injection plan",
    )
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=0, help="session RNG seed")
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault plan seed (default: --seed)",
    )
    _add_obs_flags(parser)


def _add_inspect_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "inspect",
        help="summarise a decision-trace JSONL (from --trace)",
    )
    parser.add_argument("trace", help="JSONL trace from `--trace PATH`")


def _add_lint_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "lint",
        help="run the determinism & contract linter over python sources",
        description="AST-based static analysis for the repo's reproducibility "
        "contracts (unseeded RNG, wall-clock reads, hash-order leaks, "
        "swallowed faults, untyped trace events, mutable defaults); see "
        "docs/static-analysis.md",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (required unless --explain or "
        "--version)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print one rule's rationale with bad/good examples, then exit",
    )
    parser.add_argument(
        "--version", action="store_true",
        help="print the rule-pack version stamp and rule listing, then exit",
    )


def _add_cots_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "cots", help="run one §3 motivation session (static/blockage/mobility)"
    )
    parser.add_argument(
        "scenario", choices=("static", "blockage", "mobility"),
    )
    parser.add_argument("--duration", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-ba", action="store_true", help="disable BA and lock the best sector"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LiBRA reproduction: datasets, models, and evaluations",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_dataset_parser(subparsers)
    _add_train_parser(subparsers)
    _add_evaluate_parser(subparsers)
    _add_cots_parser(subparsers)
    _add_chaos_parser(subparsers)
    _add_inspect_parser(subparsers)
    _add_lint_parser(subparsers)
    return parser


def _make_obs(args):
    """Build (recorder, registry) from the shared --trace/--metrics flags."""
    from repro.obs import (
        NULL_METRICS,
        NULL_RECORDER,
        JsonlTraceRecorder,
        MetricsRegistry,
    )

    recorder = NULL_RECORDER
    if args.trace:
        open(args.trace, "w").close()  # fail on a bad path before the run, not after
        recorder = JsonlTraceRecorder(args.trace)
    registry = MetricsRegistry() if args.metrics else NULL_METRICS
    return recorder, registry


def _finish_obs(args, recorder, registry) -> None:
    """Flush span events into the trace, close it, print the report."""
    from repro.obs.events import SpanEvent

    if args.trace and registry.enabled:
        for name, seconds, count in registry.slowest_spans(top=1000):
            recorder.record(SpanEvent(name, seconds, count))
    recorder.close()
    if registry.enabled:
        print()
        for line in registry.report():
            print(line)
    if args.trace:
        print(f"trace written to {args.trace} ({recorder.written} events)")


def _cmd_dataset(args) -> int:
    from repro.dataset.builder import (
        DatasetBuildConfig,
        build_main_dataset,
        build_testing_dataset,
    )
    from repro.dataset.io import save_dataset
    from repro.obs.metrics import use_metrics

    if args.resume and not args.checkpoint_dir:
        return _fail("--resume requires --checkpoint-dir")
    try:
        recorder, registry = _make_obs(args)
    except OSError as exc:
        return _fail(f"cannot write trace '{args.trace}': {exc}")
    # One config for every path: --seed (default 0) is the campaign seed
    # regardless of which building set is measured.
    config = DatasetBuildConfig(include_na=args.include_na, seed=args.seed)
    build = build_main_dataset if args.campaign == "main" else build_testing_dataset
    with use_metrics(registry):
        dataset = build(
            config, metrics=registry,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            workers=args.workers,
        )
    print(f"{args.campaign} campaign: {len(dataset)} entries")
    for scenario, row in dataset.summary().items():
        print(
            f"  {scenario:>13}: {row['total']:4d} entries "
            f"({row['BA']} BA / {row['RA']} RA) at {row['positions']} positions"
        )
    if args.out:
        save_dataset(dataset, args.out)
        print(f"saved to {args.out}")
    if args.csv:
        from repro.dataset.io import save_features_csv

        save_features_csv(dataset, args.csv)
        print(f"features CSV saved to {args.csv}")
    _finish_obs(args, recorder, registry)
    return 0


def _cmd_train(args) -> int:
    from repro.dataset.io import load_dataset
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.persistence import save_forest

    try:
        dataset = load_dataset(args.dataset)
    except (OSError, ValueError, KeyError) as error:
        return _fail(f"cannot load dataset {args.dataset!r}: {error}")
    model = RandomForestClassifier(
        n_estimators=args.trees, max_depth=args.max_depth, random_state=args.seed
    )
    X, y = dataset.feature_matrix(), dataset.labels()
    model.fit(X, y)
    accuracy = model.score(X, y)
    save_forest(model, args.model_out)
    print(
        f"trained {args.trees}-tree forest on {len(dataset)} entries "
        f"(classes: {', '.join(model.classes_)}; train accuracy {accuracy:.3f})"
    )
    print(f"model saved to {args.model_out}")
    return 0


def _evaluate_entries(
    entries, metrics, recorder, *, policies, config, flow_s
) -> tuple[dict[str, list[float]], dict]:
    """Replay a contiguous run of entries; returns per-policy byte gaps
    plus the shard's trajectory-cache stats.

    Module-level so the parallel runtime can ship it to worker
    processes; flow replay is deterministic, so sharding the entry list
    cannot change the concatenated gap arrays.  Cache stats come back as
    data (not trace events) so the parent can emit one aggregate event —
    shards partition the dataset, so summed totals are worker-invariant.

    Replays through one shared simulator: one trajectory build per entry
    shared by the oracle's three candidate actions and every policy, and
    one model inference call per policy for the whole shard — with flows
    emitted entry by entry, so traces and metrics are byte-identical to
    per-flow replay.
    """
    from repro.sim.batch import BatchFlowSimulator, batch_decisions
    from repro.sim.oracle import OracleData

    oracle = OracleData(config, flow_s)
    simulator = BatchFlowSimulator(config, metrics=metrics)
    entries = list(entries)
    decisions = {
        name: batch_decisions(policy, simulator, entries, flow_s)
        for name, policy in policies.items()
    }
    gaps: dict[str, list[float]] = {name: [] for name in policies}
    for index, entry in enumerate(entries):
        best = simulator.simulate(oracle, entry, flow_s, recorder, metrics)
        for name, policy in policies.items():
            result = simulator.simulate_with_decision(
                policy, entry, decisions[name][index], flow_s, recorder, metrics
            )
            gaps[name].append((best.bytes_delivered - result.bytes_delivered) / 1e6)
    return gaps, simulator.cache.stats()


def _cmd_evaluate(args) -> int:
    import functools

    from repro.core.libra import LiBRA
    from repro.core.policies import BAFirstPolicy, RAFirstPolicy
    from repro.dataset.io import load_dataset
    from repro.ml.persistence import load_forest
    from repro.obs.metrics import MetricsRegistry, use_metrics
    from repro.runtime import parallel_map, shard_items
    from repro.sim.engine import SimulationConfig

    try:
        config = SimulationConfig(
            ba_overhead_s=args.ba_overhead_ms * 1e-3,
            frame_time_s=args.fat_ms * 1e-3,
        )
    except ValueError as error:
        return _fail(str(error))
    if not (math.isfinite(args.flow_s) and args.flow_s > 0):
        return _fail(f"--flow-s must be a finite number > 0, got {args.flow_s!r}")
    # Always-on stage timing (independent of --metrics): the evaluate
    # run ends with a one-line load/model/replay breakdown.
    stages = MetricsRegistry()
    try:
        with stages.span("load"):
            dataset = load_dataset(args.dataset).without_na()
    except (OSError, ValueError, KeyError) as error:
        return _fail(f"cannot load dataset {args.dataset!r}: {error}")
    policies = {"BA First": BAFirstPolicy(), "RA First": RAFirstPolicy()}
    if args.model:
        try:
            with stages.span("model"):
                policies["LiBRA"] = LiBRA(load_forest(args.model))
        except (OSError, ValueError, KeyError) as error:
            return _fail(f"cannot load model {args.model!r}: {error}")
    try:
        recorder, registry = _make_obs(args)
    except OSError as exc:
        return _fail(f"cannot write trace '{args.trace}': {exc}")
    task = functools.partial(
        _evaluate_entries, policies=policies, config=config, flow_s=args.flow_s
    )
    with use_metrics(registry), registry.span("evaluate.replay"), \
            stages.span("replay"):
        shards = shard_items(list(dataset), max(args.workers, 1))
        outcomes = parallel_map(
            task, shards, workers=args.workers, metrics=registry,
            recorder=recorder,
        )
    gaps = {name: [] for name in policies}
    cache_totals = {"hits": 0, "misses": 0, "entries": 0}
    for partial_gaps, cache_stats in outcomes:
        for name, values in partial_gaps.items():
            gaps[name].extend(values)
        for key in cache_totals:
            cache_totals[key] += cache_stats[key]
    if recorder.enabled:
        from repro.obs.events import CacheEvent

        recorder.record(CacheEvent("trajectory", **cache_totals))
    print(
        f"{len(dataset)} impairments, BA overhead {args.ba_overhead_ms:g} ms, "
        f"FAT {args.fat_ms:g} ms, {args.flow_s:g} s flows:"
    )
    for name, values in gaps.items():
        values = np.array(values)
        print(
            f"  {name:>9}: matches Oracle-Data {np.mean(values <= 1.0):4.0%}, "
            f"mean gap {values.mean():6.1f} MB, worst {values.max():6.1f} MB"
        )
    num_flows = len(dataset) * (len(policies) + 1)  # +1: the oracle reference
    breakdown = " | ".join(
        f"{name} {histogram.total:.2f} s"
        for name, histogram in stages.spans().items()
    )
    print(f"timing: {breakdown} ({num_flows} flows)")
    _finish_obs(args, recorder, registry)
    return 0


def _cmd_inspect(args) -> int:
    from repro.obs.inspect import summarize_trace
    from repro.obs.trace import read_trace

    try:
        lines = summarize_trace(read_trace(args.trace))
    except (OSError, ValueError) as error:
        return _fail(str(error))
    for line in lines:
        print(line)
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis.lint import (
        LintUsageError,
        explain_rule,
        format_json,
        format_text,
        lint_paths,
        rule_pack_lines,
    )

    if args.version:
        for line in rule_pack_lines():
            print(line)
        return 0
    if args.explain:
        try:
            page = explain_rule(args.explain)
        except KeyError:
            return _fail(f"unknown rule {args.explain!r} (try `repro lint "
                         "--version` for the pack listing)")
        print(page)
        return 0
    if not args.paths:
        return _fail("no paths given: name the files or directories to lint")
    try:
        report = lint_paths(args.paths)
    except LintUsageError as error:
        return _fail(str(error))
    for line in format_text(report):
        print(line)
    if args.out:
        try:
            Path(args.out).write_text(format_json(report) + "\n")
        except OSError as error:
            return _fail(f"cannot write report '{args.out}': {error}")
        print(f"json report written to {args.out}")
    return report.exit_code


def _cmd_cots(args) -> int:
    from repro.cots.device import (
        run_blockage_session,
        run_mobility_session,
        run_static_session,
    )
    from repro.viz.ascii import sector_strip

    runners = {
        "static": run_static_session,
        "blockage": run_blockage_session,
        "mobility": run_mobility_session,
    }
    log = runners[args.scenario](
        duration_s=args.duration, ba_enabled=not args.no_ba, seed=args.seed
    )
    print(f"{args.scenario} session, {args.duration:g} s, BA "
          f"{'disabled (locked sector)' if args.no_ba else 'enabled'}:")
    print(f"  sectors:    {sector_strip(log.sectors)}")
    print(f"  BA triggers: {log.ba_count}, distinct sectors: {log.distinct_sectors()}")
    print(f"  throughput:  {log.throughput_mbps:.0f} Mbps")
    return 0


def _cmd_chaos(args) -> int:
    """A live session on a faulty link: the acceptance run for the
    hardened feedback path (see docs/robustness.md)."""
    from repro.core.libra import LiBRA, ThresholdClassifier
    from repro.env.geometry import Point
    from repro.env.placement import RadioPose
    from repro.env.rooms import make_lobby
    from repro.faults import FaultPlan, FaultyClassifier, FaultyLink
    from repro.mac.sls import SWEEP_MIN_VALID_SNR_DB
    from repro.sim.live import LiveSession
    from repro.testbed.x60 import X60Link

    try:
        recorder, registry = _make_obs(args)
    except OSError as exc:
        return _fail(f"cannot write trace '{args.trace}': {exc}")
    fault_seed = args.seed if args.fault_seed is None else args.fault_seed
    plan = FaultPlan.full(fault_seed)
    room = make_lobby()
    link = FaultyLink(
        X60Link(room, RadioPose(Point(2.0, 6.0), 0.0)), plan, recorder
    )
    policy = LiBRA(FaultyClassifier(ThresholdClassifier(), plan, recorder))
    session = LiveSession(
        link,
        policy,
        RadioPose(Point(9.0, 6.0), 180.0),
        seed=args.seed,
        metric_staleness_s=0.2,
        sweep_min_valid_snr_db=SWEEP_MIN_VALID_SNR_DB,
    )
    log = session.run(args.duration, recorder=recorder)
    print(
        f"chaos session survived {args.duration:g} s "
        f"(session seed {args.seed}, fault seed {fault_seed}):"
    )
    print(f"  throughput:         {log.throughput_mbps:7.0f} Mbps")
    print(f"  injected faults:    {plan.log.count():4d} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(plan.log.counts().items()))})")
    print(f"  missing ACKs:       {log.missing_acks:4d} natural")
    print(f"  rejected feedback:  {log.rejected_feedback:4d} by sanitizer, "
          f"{log.stale_rejected} stale")
    print(f"  fallback decisions: {log.fallback_decisions:4d}")
    print(f"  sweeps:             {log.sweeps:4d} ({log.sweep_failures} failed attempts)")
    _finish_obs(args, recorder, registry)
    return 0


_COMMANDS = {
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "cots": _cmd_cots,
    "chaos": _cmd_chaos,
    "inspect": _cmd_inspect,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch to the subcommand; always returns its exit code (0 ok,
    2 usage/input error) so ``__main__`` can hand it to ``sys.exit``."""
    args = build_parser().parse_args(argv)
    return int(_COMMANDS[args.command](args))


if __name__ == "__main__":
    sys.exit(main())
