"""Threshold-study and separability tests (§6.1 machinery)."""

import numpy as np
import pytest

from repro.analysis.separability import class_overlap, ks_distance, separability_report
from repro.analysis.thresholds import best_threshold, threshold_study
from repro.dataset.entry import ImpairmentKind


class TestBestThreshold:
    def test_perfectly_separable(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        labels = np.array(["RA"] * 3 + ["BA"] * 3)
        rule = best_threshold(values, labels, "snr_diff_db")
        assert rule.accuracy == 1.0
        assert rule.ba_above
        assert 3.0 < rule.threshold < 10.0
        assert rule.ba_recall == 1.0 and rule.ra_recall == 1.0

    def test_inverted_orientation_found(self):
        values = np.array([1.0, 2.0, 10.0, 11.0])
        labels = np.array(["BA", "BA", "RA", "RA"])
        rule = best_threshold(values, labels, "cdr")
        assert not rule.ba_above
        assert rule.accuracy == 1.0

    def test_interleaved_is_near_chance(self):
        values = np.array([1.0, 2.0, 3.0, 4.0] * 10)
        labels = np.array(["BA", "RA", "BA", "RA"] * 10)
        rule = best_threshold(values, labels, "noise_diff_db")
        assert rule.accuracy <= 0.75

    def test_lone_minority_row_falls_back_to_majority(self):
        # One BA row in the middle of twelve: every interior cut misclassifies
        # at least two rows (10/12), the all-RA rule only one (11/12).
        values = np.arange(12.0)
        labels = np.array(["RA"] * 5 + ["BA"] + ["RA"] * 6)
        rule = best_threshold(values, labels, "x")
        assert rule.accuracy == pytest.approx(11 / 12)
        assert (rule.ba_recall, rule.ra_recall) == (0.0, 1.0)

    def test_constant_feature_can_predict_ba(self):
        labels = np.array(["BA"] * 9 + ["RA"])
        rule = best_threshold(np.full(10, 8.0), labels, "initial_mcs")
        assert rule.accuracy == pytest.approx(0.9)
        assert (rule.ba_recall, rule.ra_recall) == (1.0, 0.0)
        assert rule.describe().startswith("BA if initial_mcs > -inf")

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            best_threshold(np.ones(4), np.array(["BA"] * 4), "x")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_threshold(np.array([]), np.array([]), "x")

    def test_describe_is_readable(self):
        values = np.array([1.0, 2.0, 10.0, 11.0])
        labels = np.array(["RA", "RA", "BA", "BA"])
        text = best_threshold(values, labels, "snr_diff_db").describe()
        assert "snr_diff_db" in text and "accuracy" in text


class TestThresholdStudy:
    def test_covers_every_metric(self, main_dataset):
        study = threshold_study(main_dataset)
        assert len(study) == 7
        for rule in study.values():
            assert 0.5 <= rule.accuracy <= 1.0

    def test_no_single_metric_is_near_perfect(self, main_dataset):
        """The §6.1 headline: even the *best possible* single-metric
        threshold is far from the learned model's accuracy."""
        study = threshold_study(main_dataset)
        assert max(rule.accuracy for rule in study.values()) < 0.93

    def test_per_scenario_views(self, main_dataset):
        displacement = threshold_study(main_dataset, ImpairmentKind.DISPLACEMENT)
        assert displacement["snr_diff_db"].accuracy > 0.6


class TestKsDistance:
    def test_identical_samples(self):
        a = np.arange(100.0)
        assert ks_distance(a, a) == 0.0

    def test_disjoint_samples(self):
        assert ks_distance([0.0, 1.0], [10.0, 11.0]) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=50), rng.normal(1.0, 1.0, size=60)
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])


class TestClassOverlap:
    def test_identical_distributions(self):
        a = np.arange(200.0)
        assert class_overlap(a, a) == pytest.approx(1.0)

    def test_disjoint_distributions(self):
        assert class_overlap([0.0, 0.5], [10.0, 10.5]) == pytest.approx(0.0)

    def test_constant_samples(self):
        assert class_overlap([3.0, 3.0], [3.0]) == 1.0

    def test_bounded(self):
        rng = np.random.default_rng(1)
        value = class_overlap(rng.normal(size=80), rng.normal(0.5, 1, size=80))
        assert 0.0 <= value <= 1.0


class TestSeparabilityReport:
    def test_report_structure(self, main_dataset):
        report = separability_report(main_dataset)
        assert set(report) == {
            "snr_diff_db", "tof_diff_ns", "noise_diff_db", "pdp_similarity",
            "csi_similarity", "cdr", "initial_mcs",
        }
        for stats in report.values():
            assert 0.0 <= stats["ks"] <= 1.0
            assert 0.0 <= stats["overlap"] <= 1.0

    def test_every_metric_overlaps(self, main_dataset):
        """Figs. 4-9: no metric's class distributions are disjoint."""
        report = separability_report(main_dataset)
        for name, stats in report.items():
            assert stats["overlap"] > 0.05, name
            assert stats["ks"] < 0.99, name
