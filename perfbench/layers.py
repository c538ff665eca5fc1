"""Per-layer tracing for the traced benchmark run.

Every layer is timed from outside: :func:`traced` swaps the public entry
points of each layer for thin timing wrappers and restores them on exit.
A wrapper counts calls, adds its wall time to the layer's busy time and,
because layers nest (``simulate_flow`` calls ``LiBRA.decide``, which calls
``RandomForestClassifier.predict_proba``), subtracts the time spent in
wrapped callees to get the layer's self time.

The traced run also installs a :class:`repro.obs.metrics.MetricsRegistry`
so the spans and counters the program already emits are collected; the
untraced run wraps no layer and keeps ``NULL_METRICS``.  The latency of
``LiBRA.decide`` comes from the untraced iterations, through the
workloads' decide timer.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np


@dataclass
class LayerStats:
    """Totals of one wrapped layer over the traced iterations."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0
    one_row_s: list = field(default_factory=list)
    fallbacks: int = 0


class LayerTracer:
    """Call/busy/self-time accounting for the wrapped layer entry points."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self._child_s: list[float] = []

    def layer(self, name: str) -> LayerStats:
        return self.stats.setdefault(name, LayerStats())

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[LayerStats, tuple, object, float], None]] = None,
    ) -> Callable:
        stats = self.layer(name)
        stack = self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if observe is not None:
                    observe(stats, args, result, elapsed)

        return wrapper


def _observe_predict(stats: LayerStats, args: tuple, result, elapsed: float) -> None:
    rows = len(args[1])
    stats.rows += rows
    if rows == 1:
        stats.one_row_s.append(elapsed)


def _observe_decide(stats: LayerStats, args: tuple, result, elapsed: float) -> None:
    if result is not None and result.fallback:
        stats.fallbacks += 1


def _observe_decide_batch(
    stats: LayerStats, args: tuple, result, elapsed: float
) -> None:
    if result is not None:
        stats.rows += len(result)
        stats.fallbacks += sum(1 for decision in result if decision.fallback)


def _targets() -> list[tuple[str, object, str, Optional[Callable], bool]]:
    """(layer name, owner, attribute, observer, nests) for every wrapped
    entry point; ``nests`` marks layers whose calls contain other layers,
    which report a self time.

    Module-level functions are patched where their caller looks them up:
    ``trace_rays_cached`` in :mod:`repro.testbed.x60`, ``build_dataset``
    in :mod:`repro.dataset.builder` (``build_main_dataset`` and
    ``build_testing_dataset`` call it there), ``batch_decisions`` in
    :mod:`repro.sim.sweep`, and ``simulate_flow`` in
    :mod:`repro.sim.engine`, which the replay workload calls through.
    """
    from repro.core.libra import LiBRA
    from repro.dataset import builder
    from repro.ml.forest import RandomForestClassifier
    from repro.sim import engine, sweep
    from repro.sim.batch import BatchFlowSimulator
    from repro.sim.live import LiveSession
    from repro.testbed import x60

    return [
        ("phy.trace", x60, "trace_rays_cached", None, False),
        ("testbed.channel_state", x60.X60Link, "channel_state", None, True),
        ("testbed.measure", x60.X60Link, "measure", None, False),
        ("testbed.sector_sweep", x60.X60Link, "sector_sweep", None, False),
        ("dataset.build", builder, "build_dataset", None, True),
        ("ml.forest.fit", RandomForestClassifier, "fit", None, False),
        ("ml.forest.predict", RandomForestClassifier, "predict_proba",
         _observe_predict, False),
        ("core.libra.decide", LiBRA, "decide", _observe_decide, True),
        ("core.libra.decide_batch", LiBRA, "decide_batch",
         _observe_decide_batch, True),
        ("sim.engine.simulate_flow", engine, "simulate_flow", None, True),
        ("sim.batch.simulate", BatchFlowSimulator, "simulate", None, True),
        ("sim.batch.simulate_with_decision", BatchFlowSimulator,
         "simulate_with_decision", None, True),
        ("sim.batch.batch_decisions", sweep, "batch_decisions", None, True),
        ("sim.live.loop", LiveSession, "run", None, True),
    ]


def layers() -> list[tuple[str, bool]]:
    """(layer name, nests) for every wrapped layer, in report order."""
    return [(name, nests) for name, _, _, _, nests in _targets()]


@contextlib.contextmanager
def traced(tracer: LayerTracer, registry) -> Iterator[LayerTracer]:
    """Install the layer wrappers and the obs registry; restore both on exit."""
    from repro.obs.metrics import use_metrics

    saved = []
    try:
        for name, owner, attribute, observe, _ in _targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, observe))
        with use_metrics(registry):
            yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _quantile(values: list, q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def per_layer_metrics(
    tracer: LayerTracer, registry, live_counts: dict, decide_s: list,
    iterations: int,
) -> dict[str, tuple[float, str]]:
    """The per-layer table: ``name -> (value, unit)``, per traced iteration.

    ``live_counts`` sums the traced live sessions' log counts.  ``decide_s``
    holds the ``LiBRA.decide`` wall times of the untraced iterations, taken
    by the workload's decide timer, so the latency quantiles carry no
    tracing cost.

    Counts and times are averaged over the traced iterations so runs of
    different lengths compare; ratios and latency quantiles pool every
    call.  A layer the workload does not reach reads 0.
    """
    per = 1.0 / max(iterations, 1)
    out: dict[str, tuple[float, str]] = {}
    for name, nests in layers():
        stats = tracer.layer(name)
        out[f"{name}.calls"] = (stats.calls * per, "count")
        out[f"{name}.s"] = (stats.busy_s * per, "s")
        if nests:
            out[f"{name}.self_s"] = (stats.self_s * per, "s")

    predict = tracer.layer("ml.forest.predict")
    out["ml.forest.predict.rows"] = (predict.rows * per, "count")
    out["ml.forest.predict_1row.p50_us"] = (
        _quantile(predict.one_row_s, 0.50) * 1e6, "us"
    )
    decide = tracer.layer("core.libra.decide")
    batch = tracer.layer("core.libra.decide_batch")
    out["core.libra.decide.p50_us"] = (_quantile(decide_s, 0.50) * 1e6, "us")
    out["core.libra.decide.p99_us"] = (_quantile(decide_s, 0.99) * 1e6, "us")
    decisions = decide.calls + batch.rows
    out["core.libra.fallback_ratio"] = (
        (decide.fallbacks + batch.fallbacks) / decisions if decisions else 0.0,
        "ratio",
    )

    spans = registry.spans()

    def span_s(*names: str) -> float:
        return sum(spans[n].total for n in names if n in spans) * per

    hits = registry.counter("sim.traj_cache.hits").value
    misses = registry.counter("sim.traj_cache.misses").value
    out["sim.trajectory.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )
    out["sim.sweep.run_point.s"] = (span_s("sweep.run_point"), "s")
    out["sim.sweep.train_libra.s"] = (span_s("sweep.train_libra"), "s")
    out["core.ground_truth.relabel.s"] = (
        span_s("sweep.label_scan", "sweep.relabel"), "s"
    )
    out["ml.tree.predict.spans"] = (
        spans["ml.tree.predict"].count * per if "ml.tree.predict" in spans else 0.0,
        "count",
    )
    out["obs.spans"] = (sum(h.count for h in spans.values()) * per, "count")

    live = tracer.layer("sim.live.loop")
    out["dataset.entries"] = (registry.counter("dataset.entries").value * per, "count")
    out["sim.live.frames"] = (live_counts.get("frames", 0) * per, "count")
    out["sim.live.decisions"] = (decide.calls * per if live.calls else 0.0, "count")
    for key in ("sweeps", "ra_repairs", "missing_acks"):
        out[f"sim.live.{key}"] = (live_counts.get(key, 0) * per, "count")
    attempts = live_counts.get("sweeps", 0)
    out["mac.sweep.attempts"] = (attempts * per, "count")
    out["mac.sweep.failed_ratio"] = (
        live_counts.get("sweep_failures", 0) / attempts if attempts else 0.0, "ratio"
    )
    return out
