"""Second property-based suite: persistence, classifiers, geometry,
analysis, and the live metric pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.separability import class_overlap, ks_distance
from repro.analysis.thresholds import best_threshold
from repro.core.observation import FrameFeedback, MetricWindow
from repro.env.geometry import Point, Segment, mirror_point, segment_intersection
from repro.ml.persistence import tree_from_dict, tree_to_dict
from repro.ml.tree import DecisionTreeClassifier
from repro.viz.ascii import ascii_cdf, ascii_histogram

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def labelled_data(draw):
    n = draw(st.integers(min_value=12, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = np.where(X[:, 0] + rng.normal(0, 0.3, n) > 0, "BA", "RA")
    if len(set(y)) < 2:
        y[0] = "BA" if y[0] == "RA" else "RA"
    return X, y


class TestTreeProperties:
    @given(labelled_data())
    @settings(max_examples=25, deadline=None)
    def test_persistence_preserves_predictions(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        again = tree_from_dict(tree_to_dict(tree))
        assert (again.predict(X) == tree.predict(X)).all()

    @given(labelled_data())
    @settings(max_examples=25, deadline=None)
    def test_duplicate_rows_do_not_change_predictions(self, data):
        """Duplicating the training set preserves every split decision."""
        X, y = data
        base = DecisionTreeClassifier(max_depth=4).fit(X, y)
        doubled = DecisionTreeClassifier(max_depth=4).fit(
            np.vstack([X, X]), np.concatenate([y, y])
        )
        assert (doubled.predict(X) == base.predict(X)).all()

    @given(labelled_data(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_feature_scaling_invariance(self, data, scale):
        """CART splits are order statistics: positive per-feature scaling
        cannot change any prediction."""
        X, y = data
        base = DecisionTreeClassifier(max_depth=4).fit(X, y)
        scaled = DecisionTreeClassifier(max_depth=4).fit(X * scale, y)
        assert (scaled.predict(X * scale) == base.predict(X)).all()


class TestAnalysisProperties:
    @given(labelled_data())
    @settings(max_examples=30, deadline=None)
    def test_threshold_accuracy_at_least_majority(self, data):
        X, y = data
        rule = best_threshold(X[:, 0], y, "f0")
        majority = max(np.mean(y == "BA"), np.mean(y == "RA"))
        assert rule.accuracy >= majority - 1e-9

    @given(labelled_data())
    @settings(max_examples=30, deadline=None)
    def test_ks_and_overlap_complementary_bounds(self, data):
        X, y = data
        a, b = X[y == "BA", 0], X[y == "RA", 0]
        ks = ks_distance(a, b)
        overlap = class_overlap(a, b)
        assert 0.0 <= ks <= 1.0
        assert 0.0 <= overlap <= 1.0
        # Perfect separability implies (near-)zero histogram overlap.
        if ks == 1.0:
            assert overlap < 0.5


class TestGeometryProperties:
    @given(coords, coords, coords, coords)
    @settings(max_examples=40, deadline=None)
    def test_intersection_lies_on_both_segments(self, x1, y1, x2, y2):
        p1, p2 = Point(x1, y1), Point(x2, y2)
        q1, q2 = Point(x1, y2), Point(x2, y1)  # the "crossed" quad diagonal
        hit = segment_intersection(p1, p2, q1, q2)
        if hit is not None:
            for a, b in ((p1, p2), (q1, q2)):
                length = a.distance_to(b)
                assert a.distance_to(hit) + hit.distance_to(b) <= length + 1e-6

    @given(coords, coords)
    @settings(max_examples=40, deadline=None)
    def test_image_path_length_equals_reflected_path(self, x, y):
        """The image-method identity: |Tx' Rx| = |Tx H| + |H Rx| for the
        reflection point H — the geometric fact the ray tracer rests on."""
        wall = Segment(Point(-60, 0), Point(60, 0))
        tx = Point(-10.0, 5.0)
        rx = Point(x, abs(y) + 0.5)  # keep Rx strictly above the wall
        image = mirror_point(tx, wall)
        hit = segment_intersection(image, rx, wall.a, wall.b)
        if hit is not None:
            direct = image.distance_to(rx)
            bounced = tx.distance_to(hit) + hit.distance_to(rx)
            assert direct == pytest.approx(bounced, rel=1e-9)


class TestWindowProperties:
    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=40.0), min_size=2, max_size=2
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_average_within_input_range(self, snrs):
        window = MetricWindow(frames_per_window=2)
        snapshot = None
        for snr in snrs:
            snapshot = window.push(
                FrameFeedback(snr, -73.0, 30.0, np.ones(8) / 8.0, 0.9)
            )
        assert snapshot is not None
        assert min(snrs) - 1e-9 <= snapshot.snr_db <= max(snrs) + 1e-9


class TestVizProperties:
    @given(st.lists(small_floats, min_size=2, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_renderers_never_crash_on_finite_input(self, values):
        assert ascii_cdf({"s": values})
        assert ascii_histogram(values)
