#!/usr/bin/env python
"""The §7 future-work extension in action: learning a blockage pattern.

A wall-to-wall obstruction crosses a narrow corridor once per second (a
door, a cart, a pacing crowd).  Plain LiBRA eats a missing-ACK recovery on
every hit; LiBRA with the pattern learner predicts the hits after a short
warm-up and pre-drops the rate so the frames survive.

Run:  python examples/pattern_prearm.py
"""

from repro import (
    DatasetBuildConfig,
    LiBRA,
    RandomForestClassifier,
    build_main_dataset,
)
from repro.core.history import BlockagePatternLearner
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_corridor
from repro.phy.blockage import HumanBlocker
from repro.sim.live import LinkEvent, LiveSession
from repro.testbed.x60 import X60Link
from repro.viz.ascii import sector_strip


def obstruction_script(duration_s: float) -> list[LinkEvent]:
    group = tuple(
        HumanBlocker(Point(5.0, y), 0.0, 9.0) for y in (0.2, 0.6, 1.0, 1.4)
    )
    events: list[LinkEvent] = []
    t = 0.8
    while t < duration_s:
        events.append(LinkEvent(at_s=t, blockers=group))
        if t + 0.2 < duration_s:
            events.append(LinkEvent(at_s=t + 0.2, clear_blockers=True))
        t += 1.0
    return events


def run(model, learner, duration_s: float = 10.0):
    room = make_corridor(1.74)
    link = X60Link(room, RadioPose(Point(0.5, 0.6), 0.0))
    session = LiveSession(
        link, LiBRA(model), RadioPose(Point(10.0, 0.6), 180.0),
        seed=0, pattern_learner=learner,
    )
    log = session.run(duration_s, obstruction_script(duration_s))
    return session, log


def main() -> None:
    print("Training LiBRA…")
    dataset = build_main_dataset(DatasetBuildConfig(include_na=True))
    model = RandomForestClassifier(n_estimators=60, max_depth=14, random_state=0)
    model.fit(dataset.feature_matrix(), dataset.labels())

    print("Scenario: corridor link obstructed for 0.2 s out of every 1 s\n")
    _plain_session, plain = run(model, learner=None)
    learner = BlockagePatternLearner(tolerance=0.35)
    smart_session, smart = run(model, learner=learner)

    print("plain LiBRA:")
    print(f"  MCS timeline: {sector_strip(plain.mcs)}")
    print(
        f"  {plain.throughput_mbps:.0f} Mbps, {plain.sweeps} sweeps, "
        f"{plain.ra_repairs} RA repairs"
    )
    print("LiBRA + pattern learner:")
    print(f"  MCS timeline: {sector_strip(smart.mcs)}")
    print(
        f"  {smart.throughput_mbps:.0f} Mbps, {smart.sweeps} sweeps, "
        f"{smart.ra_repairs} RA repairs, {smart_session.prearms} pre-arms"
    )
    period = learner.period_s()
    if period is not None:
        print(f"  learned obstruction period: {period:.2f} s (true: 1.00 s)")
    print(
        "\nAfter the warm-up the learner predicts each hit and the session "
        "pre-drops the rate instead of paying a full missing-ACK recovery."
    )


if __name__ == "__main__":
    main()
