"""Preprocessing tests."""

import numpy as np
from hypothesis import given, strategies as st

from repro.ml.preprocessing import StandardScaler


class TestStandardScaler:
    def test_transformed_stats(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(500, 4))
        Z = StandardScaler().fit(X).transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_untouched(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        Z = StandardScaler().fit(X).transform(X)
        assert np.isfinite(Z).all()
        assert np.allclose(Z[:, 1], 0.0)

    @given(st.integers(min_value=2, max_value=30))
    def test_transform_is_affine(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        scaler = StandardScaler().fit(X)
        a, b = X[0:1], X[1:2]
        mid = (a + b) / 2
        assert np.allclose(
            scaler.transform(mid),
            (scaler.transform(a) + scaler.transform(b)) / 2,
        )
