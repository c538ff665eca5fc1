"""SVM tests."""

import numpy as np
import pytest

from repro.ml.svm import SVMClassifier, rbf_kernel


def linearly_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, "pos", "neg")
    return X, y


def xor_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where((X[:, 0] > 0) ^ (X[:, 1] > 0), "A", "B")
    return X, y


class TestKernels:
    def test_rbf_diagonal_is_one(self):
        A = np.random.default_rng(0).normal(size=(5, 3))
        K = rbf_kernel(A, A, gamma=0.7)
        assert np.allclose(np.diag(K), 1.0)

    def test_rbf_decays_with_distance(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        K = rbf_kernel(a, b, gamma=1.0)[0]
        assert K[0] > K[1] > K[2]

    def test_rbf_symmetric_psd_shape(self):
        A = np.random.default_rng(1).normal(size=(20, 4))
        K = rbf_kernel(A, A, gamma=0.5)
        assert np.allclose(K, K.T)
        assert (np.linalg.eigvalsh(K) > -1e-8).all()


class TestBinary:
    def test_separates_linearly_separable_data(self):
        X, y = linearly_separable()
        model = SVMClassifier(C=1.0).fit(X, y)
        assert model.score(X, y) > 0.97

    def test_rbf_solves_xor(self):
        X, y = xor_data()
        model = SVMClassifier(C=5.0).fit(X, y)
        assert model.score(X, y) > 0.93


class TestMulticlass:
    def test_three_classes_one_vs_rest(self):
        rng = np.random.default_rng(2)
        centers = np.array([[0, 0], [4, 0], [0, 4]])
        X = np.vstack([c + rng.normal(0, 0.6, (60, 2)) for c in centers])
        y = np.repeat(["a", "b", "c"], 60)
        model = SVMClassifier().fit(X, y)
        assert model.score(X, y) > 0.95
        assert model.decision_function(X).shape == (180, 3)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            SVMClassifier().fit(np.zeros((5, 2)), np.array(["a"] * 5))


class TestScaling:
    def test_standardization_helps_mixed_scales(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 2))
        y = np.where(X[:, 0] + X[:, 1] > 0, "p", "n")
        X_scaled_badly = X * np.array([1000.0, 0.001])
        badly = SVMClassifier().fit(X_scaled_badly, y).score(X_scaled_badly, y)
        well = SVMClassifier().fit(X, y).score(X, y)
        assert badly >= well
        assert badly > 0.95

    def test_explicit_gamma(self):
        X, y = xor_data(150)
        model = SVMClassifier(gamma=2.0, C=5.0).fit(X, y)
        assert model._gamma_value == 2.0
        assert model.score(X, y) > 0.85


class TestValidation:
    def test_bad_c_rejected(self):
        with pytest.raises(ValueError):
            SVMClassifier(C=0.0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            SVMClassifier().predict(np.zeros((1, 2)))
