"""Random forest tests."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


def moons_like(n=400, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, np.pi, n)
    upper = np.stack([np.cos(t), np.sin(t)], axis=1) + rng.normal(0, 0.15, (n, 2))
    lower = np.stack([1 - np.cos(t), -np.sin(t) + 0.3], axis=1) + rng.normal(
        0, 0.15, (n, 2)
    )
    X = np.vstack([upper, lower])
    y = np.array(["up"] * n + ["down"] * n)
    return X, y


class TestAccuracy:
    def test_beats_a_stump_on_moons(self):
        X, y = moons_like()
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        forest = RandomForestClassifier(
            n_estimators=30, max_depth=8, random_state=0
        ).fit(X, y)
        assert forest.score(X, y) > stump.score(X, y)
        assert forest.score(X, y) > 0.95

    def test_generalisation_on_held_out(self):
        X, y = moons_like(seed=1)
        X_test, y_test = moons_like(seed=2)
        forest = RandomForestClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert forest.score(X_test, y_test) > 0.9


class TestDeterminism:
    def test_same_seed_same_predictions(self):
        X, y = moons_like(100)
        a = RandomForestClassifier(n_estimators=10, random_state=42).fit(X, y)
        b = RandomForestClassifier(n_estimators=10, random_state=42).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()

    def test_different_seeds_differ_somewhere(self):
        X, y = moons_like(100)
        a = RandomForestClassifier(n_estimators=5, max_depth=3, random_state=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, max_depth=3, random_state=2).fit(X, y)
        assert (a.predict_proba(X) != b.predict_proba(X)).any()


class TestProbabilities:
    def test_rows_sum_to_one(self):
        X, y = moons_like(100)
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        proba = forest.predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_class_order_matches_classes_attr(self):
        X, y = moons_like(100)
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        proba = forest.predict_proba(X)
        predicted = forest.classes_[np.argmax(proba, axis=1)]
        assert (predicted == forest.predict(X)).all()


class TestImportances:
    def test_gini_importance_normalised(self, main_dataset):
        forest = RandomForestClassifier(n_estimators=20, random_state=0)
        forest.fit(main_dataset.feature_matrix(), main_dataset.labels())
        importances = forest.gini_importance()
        assert importances.shape == (7,)
        assert importances.sum() == pytest.approx(1.0)
        assert (importances >= 0).all()

    def test_no_feature_dominates_completely(self, main_dataset):
        """Table 3: 'no metric has a very high value, suggesting that all
        metrics are useful'."""
        forest = RandomForestClassifier(n_estimators=40, random_state=0)
        forest.fit(main_dataset.feature_matrix(), main_dataset.labels())
        assert forest.gini_importance().max() < 0.6


class TestValidation:
    def test_zero_estimators_rejected(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_too_few_features_rejected(self):
        # The fused walk gathers from the flattened rows: a narrower X must
        # raise, not read a neighbouring row's value.
        X, y = moons_like(100)
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            forest.predict(X[:, :1])
        with pytest.raises(ValueError, match="features"):
            forest.trees_[0].predict(X[:, :1])
