"""Pattern-learner pre-arming in the live session (§7 future work)."""

import pytest

from repro.core.history import BlockagePatternLearner
from repro.core.libra import LiBRA
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.sim.live import LiveSession
from repro.testbed.x60 import X60Link


@pytest.fixture(scope="module")
def forest(main_dataset_with_na):
    from repro.ml.forest import RandomForestClassifier

    model = RandomForestClassifier(n_estimators=40, max_depth=14, random_state=0)
    model.fit(main_dataset_with_na.feature_matrix(), main_dataset_with_na.labels())
    return model


def periodic_obstruction_events(duration_s: float) -> list:
    """A wall-to-wall obstruction (a closing door / crossing group) in the
    narrow corridor: every path — LOS and wall bounces — takes the hit, so
    the break pattern cannot be dodged by a sweep."""
    from repro.phy.blockage import HumanBlocker
    from repro.sim.live import LinkEvent

    group = tuple(
        HumanBlocker(Point(5.0, y), 0.0, 9.0) for y in (0.2, 0.6, 1.0, 1.4)
    )
    events = []
    t = 0.8
    while t < duration_s:
        events.append(LinkEvent(at_s=t, blockers=group))
        if t + 0.2 < duration_s:
            events.append(LinkEvent(at_s=t + 0.2, clear_blockers=True))
        t += 1.0
    return events


def run_periodic_session(forest, learner, duration=8.0, seed=0):
    from repro.env.rooms import make_corridor

    room = make_corridor(1.74)
    link = X60Link(room, RadioPose(Point(0.5, 0.6), 0.0))
    session = LiveSession(
        link, LiBRA(forest), RadioPose(Point(10.0, 0.6), 180.0),
        seed=seed, pattern_learner=learner,
    )
    log = session.run(duration, periodic_obstruction_events(duration))
    return session, log


class TestPatternPrearming:
    def test_learner_locks_onto_the_period(self, forest):
        learner = BlockagePatternLearner(tolerance=0.35)
        run_periodic_session(forest, learner)
        if learner.period_s() is not None:
            assert learner.period_s() == pytest.approx(1.0, abs=0.3)
        assert learner.num_breaks >= 3

    def test_prearms_fire_after_warmup(self, forest):
        learner = BlockagePatternLearner(tolerance=0.35)
        session, _log = run_periodic_session(forest, learner)
        assert session.prearms > 0

    def test_no_learner_means_no_prearms(self, forest):
        session, _log = run_periodic_session(forest, None)
        assert session.prearms == 0

    def test_sessions_complete_with_and_without_learner(self, forest):
        _s1, with_learner = run_periodic_session(
            forest, BlockagePatternLearner(tolerance=0.35)
        )
        _s2, without = run_periodic_session(forest, None)
        assert with_learner.bytes_delivered > 0
        assert without.bytes_delivered > 0
