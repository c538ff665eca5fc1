"""Dense neural network with dropout (the paper's DNN, §6.2).

"A fully connected dense network with 4 dense layers.  Rectified linear
(relu) activation was used in the first 3 layers and sigmoid activation
was used in the last layer … inclusion of Dropout after each layer gave
the best results."

We keep the 3×ReLU(+dropout) body; the output layer generalises from the
paper's binary sigmoid to a softmax so the same model covers the 3-class
(BA/RA/NA) problem of §7 — for two classes the two are equivalent.
Training is mini-batch Adam on cross-entropy, implemented directly in
NumPy with manual backprop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Estimator, check_Xy
from repro.ml.preprocessing import StandardScaler


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class DenseNetworkClassifier(Estimator):
    """Four dense layers (3 hidden ReLU + softmax output) with dropout.

    Args:
        hidden_sizes: Widths of the three hidden layers.
        dropout: Drop probability applied after each hidden layer during
            training (inverted dropout; inference uses the full network).
        epochs / batch_size / learning_rate: Adam training schedule.
        random_state: Seed for init, shuffling and dropout masks.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, int, int] = (64, 32, 16),
        dropout: float = 0.2,
        epochs: int = 150,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        random_state: Optional[int] = None,
    ):
        if len(hidden_sizes) != 3:
            raise ValueError("the paper's DNN has exactly 3 hidden layers")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        self.hidden_sizes = tuple(hidden_sizes)
        self.dropout = dropout
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self.weights_: Optional[list[np.ndarray]] = None
        self.biases_: Optional[list[np.ndarray]] = None
        self._scaler = StandardScaler()

    # -- training ----------------------------------------------------------

    def fit(self, X, y) -> "DenseNetworkClassifier":
        X, y = check_Xy(X, y)
        rng = np.random.default_rng(self.random_state)
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        # The LiBRA features span very different ranges.
        X = self._scaler.fit(X).transform(X)
        sizes = [X.shape[1], *self.hidden_sizes, n_classes]
        self.weights_ = [
            rng.normal(0.0, np.sqrt(2.0 / sizes[i]), (sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        self.biases_ = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

        # Adam state.
        m_w = [np.zeros_like(w) for w in self.weights_]
        v_w = [np.zeros_like(w) for w in self.weights_]
        m_b = [np.zeros_like(b) for b in self.biases_]
        v_b = [np.zeros_like(b) for b in self.biases_]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        one_hot = np.zeros((len(y_idx), n_classes))
        one_hot[np.arange(len(y_idx)), y_idx] = 1.0

        for _ in range(self.epochs):
            order = rng.permutation(len(y_idx))
            for start in range(0, len(order), self.batch_size):
                batch = order[start : start + self.batch_size]
                grads_w, grads_b = self._backprop(X[batch], one_hot[batch], rng)
                step += 1
                for i in range(len(self.weights_)):
                    m_w[i] = beta1 * m_w[i] + (1 - beta1) * grads_w[i]
                    v_w[i] = beta2 * v_w[i] + (1 - beta2) * grads_w[i] ** 2
                    m_b[i] = beta1 * m_b[i] + (1 - beta1) * grads_b[i]
                    v_b[i] = beta2 * v_b[i] + (1 - beta2) * grads_b[i] ** 2
                    m_w_hat = m_w[i] / (1 - beta1**step)
                    v_w_hat = v_w[i] / (1 - beta2**step)
                    m_b_hat = m_b[i] / (1 - beta1**step)
                    v_b_hat = v_b[i] / (1 - beta2**step)
                    self.weights_[i] -= (
                        self.learning_rate * m_w_hat / (np.sqrt(v_w_hat) + eps)
                    )
                    self.biases_[i] -= (
                        self.learning_rate * m_b_hat / (np.sqrt(v_b_hat) + eps)
                    )
        return self

    def _backprop(
        self, X: np.ndarray, targets: np.ndarray, rng: np.random.Generator
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Forward with inverted dropout, then gradients of cross-entropy."""
        activations = [X]
        masks: list[Optional[np.ndarray]] = []
        a = X
        for i in range(3):
            z = a @ self.weights_[i] + self.biases_[i]
            a = _relu(z)
            if self.dropout > 0.0:
                mask = (rng.random(a.shape) >= self.dropout) / (1.0 - self.dropout)
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
            activations.append(a)
        logits = a @ self.weights_[3] + self.biases_[3]
        proba = _softmax(logits)

        batch = X.shape[0]
        delta = (proba - targets) / batch
        grads_w = [np.zeros_like(w) for w in self.weights_]
        grads_b = [np.zeros_like(b) for b in self.biases_]
        grads_w[3] = activations[3].T @ delta
        grads_b[3] = delta.sum(axis=0)
        upstream = delta @ self.weights_[3].T
        for i in range(2, -1, -1):
            if masks[i] is not None:
                upstream = upstream * masks[i]
            upstream = upstream * (activations[i + 1] > 0.0)
            grads_w[i] = activations[i].T @ upstream
            grads_b[i] = upstream.sum(axis=0)
            if i > 0:
                upstream = upstream @ self.weights_[i].T
        return grads_w, grads_b

    # -- inference ---------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted("weights_")
        a = self._scaler.transform(check_Xy(X)[0])
        for i in range(3):
            a = _relu(a @ self.weights_[i] + self.biases_[i])
        return _softmax(a @ self.weights_[3] + self.biases_[3])

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
