"""The VR application study (§8.4, Table 4).

An 8K / 60 FPS VR stream (~1.2 Gbps) plays over a 60 GHz link whose
bandwidth follows a mobility timeline simulated with each policy.  Frames
must arrive by their playout deadline; a late frame stalls playback until
it lands (rebuffering), after which all later deadlines shift by the stall.

Two details from the paper:

* Throughputs are scaled from the X60 ladder to what COTS 802.11ad
  hardware actually delivers (peak 2.4 Gbps) — at X60's native 4.75 Gbps
  every policy trivially satisfies 1.2 Gbps and the comparison is washed
  out.
* The input is the §8.3 *mobility* timelines only: nobody expects external
  blockage or interference while wearing a headset in a play space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import (
    AD_COTS_PEAK_THROUGHPUT_MBPS,
    VR_FPS,
    VR_MEAN_RATE_MBPS,
    VR_SCENE_DURATION_S,
    X60_MCS_TABLE,
)
from repro.sim.batch import BatchFlowSimulator

COTS_SCALE = AD_COTS_PEAK_THROUGHPUT_MBPS / X60_MCS_TABLE[-1][3]
"""Rate scaling X60 → COTS 802.11ad (≈ 0.505), same modulation/coding."""


@dataclass(frozen=True)
class VRConfig:
    """Scene parameters (defaults = the paper's Viking Village setup)."""

    fps: int = VR_FPS
    mean_rate_mbps: float = VR_MEAN_RATE_MBPS
    duration_s: float = VR_SCENE_DURATION_S
    scene_variation: float = 0.25
    """Frame-size modulation depth along the trajectory (scene complexity
    swings as the player moves through the village)."""

    startup_buffer_frames: int = 3
    """Frames pre-buffered before playout starts (50 ms at 60 FPS)."""


@dataclass
class VRTrace:
    """Per-frame sizes (bytes) of one scene trajectory."""

    frame_bytes: np.ndarray
    fps: int

    @property
    def num_frames(self) -> int:
        return len(self.frame_bytes)

    def deadline_s(self, frame_index: int) -> float:
        return (frame_index + 1) / self.fps


def synthesize_trace(config: VRConfig = VRConfig(), seed: int = 0) -> VRTrace:
    """A deterministic Viking-Village-like frame-size trace.

    Frame sizes follow the mean rate modulated by two slow sinusoids (the
    fixed trajectory through scene complexity) plus small per-frame jitter
    — encoders emit near-CBR output at this bitrate, keyframe structure is
    below the fidelity this study needs.
    """
    rng = np.random.default_rng(seed)
    n = int(config.duration_s * config.fps)
    t = np.arange(n) / config.fps
    mean_frame_bytes = config.mean_rate_mbps * 1e6 / 8.0 / config.fps
    modulation = 1.0 + config.scene_variation * (
        0.6 * np.sin(2 * np.pi * t / 11.0) + 0.4 * np.sin(2 * np.pi * t / 3.7 + 1.0)
    )
    jitter = rng.normal(1.0, 0.03, n)
    sizes = mean_frame_bytes * modulation * np.clip(jitter, 0.7, 1.3)
    return VRTrace(sizes, config.fps)


@dataclass(frozen=True)
class BandwidthProfile:
    """Piecewise-constant link goodput over time (from a policy run).

    ``times_s`` are segment start times (first must be 0); ``rates_mbps``
    the goodput holding until the next start.
    """

    times_s: tuple
    rates_mbps: tuple

    def __post_init__(self) -> None:
        if len(self.times_s) != len(self.rates_mbps) or not self.times_s:
            raise ValueError("times and rates must be equal-length, non-empty")
        if self.times_s[0] != 0.0:
            raise ValueError("profile must start at t=0")

    def bytes_delivered_until(self, t: float) -> float:
        """Cumulative bytes from 0 to ``t`` (rates beyond the profile hold
        the last value)."""
        total = 0.0
        for i, start in enumerate(self.times_s):
            end = self.times_s[i + 1] if i + 1 < len(self.times_s) else float("inf")
            if t <= start:
                break
            span = min(t, end) - start
            total += self.rates_mbps[i] * 1e6 / 8.0 * span
        return total

    def time_to_deliver(self, target_bytes: float) -> float:
        """Earliest t with cumulative bytes ≥ target (inverse of above)."""
        total = 0.0
        for i, start in enumerate(self.times_s):
            end = self.times_s[i + 1] if i + 1 < len(self.times_s) else float("inf")
            rate = self.rates_mbps[i] * 1e6 / 8.0
            span = end - start
            chunk = rate * span if span != float("inf") else float("inf")
            if total + chunk >= target_bytes or end == float("inf"):
                if rate <= 0.0:
                    return float("inf")
                return start + (target_bytes - total) / rate
            total += chunk
        return float("inf")


@dataclass
class VRSessionResult:
    """Table 4's two numbers plus detail."""

    num_stalls: int
    total_stall_s: float
    stall_durations_s: list = field(default_factory=list)

    @property
    def mean_stall_duration_ms(self) -> float:
        if self.num_stalls == 0:
            return 0.0
        return self.total_stall_s / self.num_stalls * 1e3


def profile_from_timeline(
    policy,
    timeline,
    sim_config,
    rate_scale: float = COTS_SCALE,
    simulator=None,
) -> BandwidthProfile:
    """Run a policy over a mobility timeline and extract its goodput profile.

    Each impaired segment contributes a zero-rate recovery interval followed
    by the settled rate; clear segments contribute their steady rate.  All
    rates are scaled to the COTS ladder (§8.4).  The breaks replay through
    ``simulator``, a :class:`repro.sim.batch.BatchFlowSimulator` for the
    same ``sim_config``, or through a fresh one per call when none is
    given — the Table 4 study shares one across 50 timelines over one pool
    of entries.
    """
    if simulator is None:
        simulator = BatchFlowSimulator(sim_config)
    elif simulator.config != sim_config:
        raise ValueError("simulator was built for a different SimulationConfig")
    times = [0.0]
    rates = []
    clock = 0.0
    policy.reset()
    for segment in timeline.segments:
        if segment.entry is None:
            rates.append(segment.clear_rate_mbps * rate_scale)
            clock += segment.duration_s
            times.append(clock)
            continue
        result = simulator.simulate(policy, segment.entry, segment.duration_s)
        delay = min(result.recovery_delay_s, segment.duration_s)
        if delay > 0.0:
            rates.append(0.0)
            clock += delay
            times.append(clock)
        remaining = segment.duration_s - delay
        if remaining > 0.0:
            rate = result.bytes_delivered * 8.0 / 1e6 / remaining
            rates.append(rate * rate_scale)
            clock += remaining
            times.append(clock)
    times.pop()  # the last entry is the end time, not a segment start
    if not rates:
        raise ValueError("timeline produced no segments")
    return BandwidthProfile(tuple(times), tuple(rates))


def simulate_vr_session(
    profile: BandwidthProfile, trace: VRTrace, config: VRConfig = VRConfig()
) -> VRSessionResult:
    """Play the trace over the bandwidth profile; count stalls.

    Playback clock model: frame f's deadline is its playout time plus all
    stall time accumulated so far.  A frame arriving after its (shifted)
    deadline stalls playback until arrival; consecutive late frames whose
    stalls chain together count as a single rebuffering event.
    """
    cumulative = np.cumsum(trace.frame_bytes)
    startup = config.startup_buffer_frames / trace.fps
    stall_total = 0.0
    stalls: list[float] = []
    in_stall = False
    for f in range(trace.num_frames):
        deadline = startup + trace.deadline_s(f) + stall_total
        arrival = profile.time_to_deliver(float(cumulative[f]))
        if arrival > deadline:
            gap = arrival - deadline
            if gap == float("inf"):
                # Link died: one terminal stall to the end of the scene.
                gap = max(0.0, config.duration_s - deadline)
                stall_total += gap
                if in_stall and stalls:
                    stalls[-1] += gap
                else:
                    stalls.append(gap)
                break
            stall_total += gap
            if in_stall and stalls:
                stalls[-1] += gap
            else:
                stalls.append(gap)
            in_stall = True
        else:
            in_stall = False
    return VRSessionResult(len(stalls), stall_total, stalls)
