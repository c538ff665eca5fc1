"""Decision tree tests."""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier


def axis_aligned_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where(X[:, 0] > 0.2, "right", "left")
    return X, y


def xor_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where((X[:, 0] > 0) ^ (X[:, 1] > 0), "A", "B")
    return X, y


class TestFitting:
    def test_axis_aligned_split_learned_exactly(self):
        X, y = axis_aligned_data()
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert tree.score(X, y) > 0.98
        assert tree.root_.feature == 0
        assert abs(tree.root_.threshold - 0.2) < 0.1

    def test_xor_needs_depth_two(self):
        X, y = xor_data()
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert shallow.score(X, y) < 0.75
        assert deep.score(X, y) > 0.95

    def test_pure_node_stops_growth(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array(["a", "a", "a"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf
        assert tree.depth() == 0

    def test_max_depth_respected(self):
        X, y = xor_data(500)
        for depth in (1, 2, 3, 5):
            tree = DecisionTreeClassifier(max_depth=depth).fit(X, y)
            assert tree.depth() <= depth

    def test_min_samples_leaf(self):
        X, y = axis_aligned_data(50)
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)

        def smallest_leaf(node):
            if node.is_leaf:
                return node.class_counts.sum()
            return min(smallest_leaf(node.left), smallest_leaf(node.right))

        assert smallest_leaf(tree.root_) >= 10

    def test_entropy_criterion_works(self):
        X, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=4, criterion="entropy").fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_duplicate_feature_values_handled(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array(["a", "a", "a", "b"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0


class TestPrediction:
    def test_predict_proba_rows_sum_to_one(self):
        X, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X[:20])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_three_class_problem(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 2))
        y = np.array(["x", "y", "z"])[np.argmax(np.abs(X @ rng.normal(size=(2, 3))), axis=1)]
        tree = DecisionTreeClassifier(max_depth=8).fit(X, y)
        assert set(tree.predict(X)) <= {"x", "y", "z"}
        assert tree.score(X, y) > 0.8

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))


class TestImportances:
    def test_importances_sum_to_one(self):
        X, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_irrelevant_feature_scores_low(self):
        rng = np.random.default_rng(2)
        X, y = axis_aligned_data(400)
        X = np.hstack([X, rng.normal(size=(400, 1))])  # add pure noise
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.feature_importances_[0] > 0.8
        assert tree.feature_importances_[2] < 0.1


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="misclassification")
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_bad_inputs_rejected(self):
        tree = DecisionTreeClassifier()
        with pytest.raises(ValueError):
            tree.fit(np.zeros((0, 2)), np.array([]))
        with pytest.raises(ValueError):
            tree.fit(np.array([[np.nan]]), np.array(["a"]))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((3, 2)), np.array(["a", "b"]))
