"""Dense-network tests."""

import numpy as np
import pytest

from repro.ml.nn import DenseNetworkClassifier


def blobs(n_per=80, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [3, 3]])
    X = np.vstack([c + rng.normal(0, 0.5, (n_per, 2)) for c in centers])
    y = np.repeat(["zero", "one"], n_per)
    return X, y


class TestLearning:
    def test_learns_blobs(self):
        X, y = blobs()
        model = DenseNetworkClassifier(epochs=60, random_state=0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_three_class_softmax(self):
        rng = np.random.default_rng(1)
        centers = np.array([[0, 0], [4, 0], [0, 4]])
        X = np.vstack([c + rng.normal(0, 0.5, (60, 2)) for c in centers])
        y = np.repeat(["a", "b", "c"], 60)
        model = DenseNetworkClassifier(epochs=80, random_state=0).fit(X, y)
        assert model.score(X, y) > 0.93

    def test_xor_with_enough_epochs(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = np.where((X[:, 0] > 0) ^ (X[:, 1] > 0), "A", "B")
        model = DenseNetworkClassifier(
            epochs=200, dropout=0.1, random_state=0
        ).fit(X, y)
        assert model.score(X, y) > 0.9


class TestProbabilities:
    def test_rows_sum_to_one(self):
        X, y = blobs()
        model = DenseNetworkClassifier(epochs=30, random_state=0).fit(X, y)
        proba = model.predict_proba(X[:16])
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_inference_is_deterministic(self):
        """Dropout applies only during training."""
        X, y = blobs()
        model = DenseNetworkClassifier(epochs=20, dropout=0.5, random_state=0).fit(X, y)
        assert np.allclose(model.predict_proba(X), model.predict_proba(X))


class TestReproducibility:
    def test_same_seed_same_weights(self):
        X, y = blobs()
        a = DenseNetworkClassifier(epochs=10, random_state=3).fit(X, y)
        b = DenseNetworkClassifier(epochs=10, random_state=3).fit(X, y)
        for wa, wb in zip(a.weights_, b.weights_):
            assert np.allclose(wa, wb)


class TestValidation:
    def test_exactly_three_hidden_layers(self):
        with pytest.raises(ValueError):
            DenseNetworkClassifier(hidden_sizes=(32, 16))

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            DenseNetworkClassifier(dropout=1.0)
        with pytest.raises(ValueError):
            DenseNetworkClassifier(dropout=-0.1)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DenseNetworkClassifier().predict(np.zeros((1, 2)))
