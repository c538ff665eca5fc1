"""Observation-window tests (the §7 metric pipeline)."""

import math

import numpy as np
import pytest

from repro.core.observation import (
    FrameFeedback,
    MetricRanges,
    MetricWindow,
    WindowSnapshot,
    feedback_rejection,
)
from repro.core.metrics import feature_deltas


def feedback(snr=20.0, noise=-73.0, tof=30.0, cdr=0.95, peak=0) -> FrameFeedback:
    pdp = np.zeros(64)
    pdp[peak] = 0.8
    pdp[peak + 10] = 0.2
    return FrameFeedback(snr, noise, tof, pdp, cdr)


class TestMetricWindow:
    def test_incomplete_window_returns_none(self):
        window = MetricWindow(frames_per_window=2)
        assert window.push(feedback()) is None

    def test_snapshot_on_completion(self):
        window = MetricWindow(frames_per_window=2)
        window.push(feedback(snr=20.0))
        snapshot = window.push(feedback(snr=22.0))
        assert snapshot is not None
        assert snapshot.snr_db == pytest.approx(21.0)
        assert snapshot.frames == 2

    def test_window_resets_after_snapshot(self):
        window = MetricWindow(frames_per_window=2)
        window.push(feedback(snr=10.0))
        window.push(feedback(snr=10.0))
        window.push(feedback(snr=30.0))
        snapshot = window.push(feedback(snr=30.0))
        assert snapshot.snr_db == pytest.approx(30.0)  # old frames gone

    def test_infinite_tof_excluded_from_average(self):
        window = MetricWindow(frames_per_window=2)
        window.push(feedback(tof=30.0))
        snapshot = window.push(feedback(tof=math.inf))
        assert snapshot.tof_ns == pytest.approx(30.0)

    def test_all_infinite_tof_stays_infinite(self):
        window = MetricWindow(frames_per_window=2)
        window.push(feedback(tof=math.inf))
        snapshot = window.push(feedback(tof=math.inf))
        assert math.isinf(snapshot.tof_ns)

    def test_pdp_averaged_elementwise(self):
        window = MetricWindow(frames_per_window=2)
        window.push(feedback(peak=0))
        snapshot = window.push(feedback(peak=4))
        assert snapshot.pdp[0] == pytest.approx(0.4)
        assert snapshot.pdp[4] == pytest.approx(0.4)

    def test_manual_reset(self):
        window = MetricWindow(frames_per_window=2)
        window.push(feedback(snr=5.0))
        window.reset()
        window.push(feedback(snr=20.0))
        snapshot = window.push(feedback(snr=20.0))
        assert snapshot.snr_db == pytest.approx(20.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            MetricWindow(frames_per_window=0)


class TestFeaturesBetween:
    """The live loop's §6.1 features: :func:`feature_deltas` between two
    consecutive windows, with the current window's CDR and the MCS in use."""

    def _snapshot(self, snr=20.0, noise=-73.0, tof=30.0, cdr=0.95, peak=0):
        pdp = np.zeros(64)
        pdp[peak] = 0.8
        pdp[peak + 10] = 0.2
        return WindowSnapshot(snr, noise, tof, pdp, cdr, frames=2)

    def test_stable_link_null_features(self):
        a = self._snapshot()
        current = self._snapshot()
        features = feature_deltas(a, current, current.cdr, 6)
        assert features.snr_diff_db == 0.0
        assert features.tof_diff_ns == 0.0
        assert features.pdp_similarity == pytest.approx(1.0)
        assert features.initial_mcs == 6

    def test_degradation_signs(self):
        previous = self._snapshot(snr=25.0, noise=-74.0, tof=30.0)
        current = self._snapshot(snr=15.0, noise=-70.0, tof=36.0, cdr=0.2)
        features = feature_deltas(previous, current, current.cdr, 5)
        assert features.snr_diff_db == pytest.approx(10.0)
        assert features.noise_diff_db == pytest.approx(4.0)
        assert features.tof_diff_ns == pytest.approx(-6.0)
        assert features.cdr == pytest.approx(0.2)

    def test_infinite_current_tof_maps_to_sentinel(self):
        from repro.core.metrics import TOF_INF_SENTINEL_NS

        previous = self._snapshot(tof=30.0)
        current = self._snapshot(tof=math.inf)
        features = feature_deltas(previous, current, current.cdr, 4)
        assert features.tof_diff_ns == TOF_INF_SENTINEL_NS


class TestFeedbackRejection:
    """The sanitizer between Block ACKs and the classifier."""

    def test_clean_feedback_passes(self):
        assert feedback_rejection(feedback()) is None

    def test_infinite_tof_is_the_legitimate_sentinel(self):
        assert feedback_rejection(feedback(tof=math.inf)) is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(snr=math.nan), "non-finite SNR"),
            (dict(snr=500.0), "SNR .* outside"),
            (dict(snr=-80.0), "SNR .* outside"),
            (dict(noise=math.inf), "non-finite noise"),
            (dict(noise=0.0), "noise .* outside"),
            (dict(cdr=math.nan), "non-finite CDR"),
            (dict(cdr=37.5), "CDR .* outside"),
            (dict(cdr=-0.1), "CDR .* outside"),
            (dict(tof=math.nan), "invalid ToF"),
            (dict(tof=-7.0), "invalid ToF"),
        ],
    )
    def test_each_rejection_reason(self, kwargs, match):
        import re

        reason = feedback_rejection(feedback(**kwargs))
        assert reason is not None
        assert re.search(match, reason), reason

    def test_empty_pdp_rejected(self):
        bad = FrameFeedback(20.0, -73.0, 30.0, np.array([]), 0.95)
        assert feedback_rejection(bad) == "empty PDP"

    def test_non_finite_pdp_rejected(self):
        pdp = np.zeros(64)
        pdp[3] = math.nan
        bad = FrameFeedback(20.0, -73.0, 30.0, pdp, 0.95)
        assert "non-finite" in feedback_rejection(bad)

    def test_negative_pdp_rejected(self):
        pdp = np.zeros(64)
        pdp[3] = -0.5
        bad = FrameFeedback(20.0, -73.0, 30.0, pdp, 0.95)
        assert "negative" in feedback_rejection(bad)

    def test_custom_ranges(self):
        tight = MetricRanges(snr_db=(0.0, 25.0))
        assert feedback_rejection(feedback(snr=28.0), tight) is not None
        assert feedback_rejection(feedback(snr=28.0)) is None


def stamped(timestamp_s: float, snr=20.0) -> FrameFeedback:
    pdp = np.zeros(64)
    pdp[0] = 1.0
    return FrameFeedback(snr, -73.0, 30.0, pdp, 0.95, timestamp_s=timestamp_s)


class TestStaleness:
    """The metric-age window guarding against replayed/delayed reports."""

    def test_stale_push_rejected_on_entry(self):
        window = MetricWindow(frames_per_window=2, max_age_s=0.1)
        assert window.push(stamped(0.0), now_s=1.0) is None
        assert window.stale_rejected == 1

    def test_fresh_push_accepted(self):
        window = MetricWindow(frames_per_window=2, max_age_s=0.1)
        window.push(stamped(0.95), now_s=1.0)
        snapshot = window.push(stamped(1.0), now_s=1.0)
        assert snapshot is not None
        assert window.stale_rejected == 0

    def test_buffered_samples_age_out(self):
        """A sample that was fresh on entry must not survive into a much
        later window — the window never mixes fresh and expired metrics."""
        window = MetricWindow(frames_per_window=2, max_age_s=0.1)
        window.push(stamped(0.0, snr=5.0), now_s=0.0)
        snapshot = window.push(stamped(1.0, snr=20.0), now_s=1.0)
        assert snapshot is None  # the old sample was evicted, window incomplete
        assert window.stale_rejected == 1
        snapshot = window.push(stamped(1.0, snr=20.0), now_s=1.0)
        assert snapshot.snr_db == pytest.approx(20.0)

    def test_nan_timestamp_never_expires(self):
        """Legacy feedback without timestamps is exempt: staleness is an
        opt-in check, not a reason to drop healthy feedback."""
        window = MetricWindow(frames_per_window=2, max_age_s=0.1)
        window.push(feedback(), now_s=100.0)
        assert window.push(feedback(), now_s=100.0) is not None
        assert window.stale_rejected == 0

    def test_no_clock_means_no_staleness_check(self):
        window = MetricWindow(frames_per_window=2, max_age_s=0.1)
        window.push(stamped(0.0))
        assert window.push(stamped(0.0)) is not None

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="staleness"):
            MetricWindow(frames_per_window=2, max_age_s=0.0)
