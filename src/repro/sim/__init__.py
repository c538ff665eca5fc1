"""Trace-based evaluation (§8): the frame-level link simulator, timeline
generators, oracle baselines, result statistics, and the VR application."""

from repro.sim.engine import SimulationConfig, FlowResult, simulate_flow, simulate_timeline
from repro.sim.batch import BatchFlowSimulator, batch_decisions
from repro.sim.trajectory import EntryTrajectories, TrajectoryCache
from repro.sim.timeline import Timeline, Segment, TimelineGenerator, ScenarioType
from repro.sim.oracle import OracleData, OracleDelay
from repro.sim.live import LinkEvent, LiveSession
from repro.sim.sweep import EvaluationGrid, OperatingPoint, PointResult, paper_grid
from repro.sim.report import grid_report
from repro.sim.results import cdf_points, boxplot_stats
from repro.sim.vr import (
    VRConfig,
    VRTrace,
    VRSessionResult,
    BandwidthProfile,
    synthesize_trace,
    simulate_vr_session,
    profile_from_timeline,
)

__all__ = [
    "SimulationConfig",
    "FlowResult",
    "simulate_flow",
    "simulate_timeline",
    "BatchFlowSimulator",
    "batch_decisions",
    "EntryTrajectories",
    "TrajectoryCache",
    "Timeline",
    "Segment",
    "TimelineGenerator",
    "ScenarioType",
    "OracleData",
    "OracleDelay",
    "LinkEvent",
    "LiveSession",
    "EvaluationGrid",
    "OperatingPoint",
    "PointResult",
    "paper_grid",
    "grid_report",
    "cdf_points",
    "boxplot_stats",
    "VRConfig",
    "VRTrace",
    "simulate_vr_session",
    "VRSessionResult",
    "BandwidthProfile",
    "synthesize_trace",
    "profile_from_timeline",
]
