"""Feed-forward network for multi-label prediction, trained from scratch.

Architecture: ReLU hidden layers feeding six independent sigmoid outputs.
The loss is binary cross-entropy summed over labels and averaged over the
batch, computed in its logit form for numerical stability. Training is
mini-batch gradient descent with classical momentum and a fixed epoch
budget; all randomness (weight init, epoch shuffling) comes from one seeded
generator, so equal spec, data, and seed reproduce identical weights.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import ClassifierSpec, _sigmoid, check_input_dim, validate_training_data


def _bce_with_logits(z, y) -> float:
    # max(z,0) - z*y + log(1 + exp(-|z|)), summed over labels, mean over rows
    per_entry = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(per_entry.sum(axis=1).mean())


class Mlp:
    def __init__(self, spec: ClassifierSpec | None = None):
        self.spec = spec or ClassifierSpec(kind="mlp")
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self.input_dim = 0
        self.n_labels = 0

    def _init_params(self, d, n_labels, rng):
        hp = self.spec.resolved_hyperparameters()
        sizes = [d] + [int(h) for h in hp["hidden_sizes"]] + [n_labels]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.input_dim = d
        self.n_labels = n_labels

    def _forward(self, x):
        """Returns (hidden activations incl. input, output logits)."""
        activations = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
            activations.append(h)
        logits = h @ self.weights[-1] + self.biases[-1]
        return activations, logits

    def _gradients(self, x, y):
        """Analytic gradients of the batch loss for every weight and bias."""
        activations, logits = self._forward(x)
        n = x.shape[0]
        delta = (_sigmoid(logits) - y) / n
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0)
        return grads_w, grads_b

    def batch_loss(self, x, y) -> float:
        _, logits = self._forward(x)
        return _bce_with_logits(logits, y)

    def fit(self, x, y):
        x, y = validate_training_data(x, y)
        hp = self.spec.resolved_hyperparameters()
        lr = float(hp["learning_rate"])
        momentum = float(hp["momentum"])
        epochs = int(hp["epochs"])
        batch_size = int(hp["batch_size"])
        rng = np.random.default_rng(self.spec.seed)
        self._init_params(x.shape[1], y.shape[1], rng)
        y = y.astype(float)
        vel_w = [np.zeros_like(w) for w in self.weights]
        vel_b = [np.zeros_like(b) for b in self.biases]
        n = x.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                grads_w, grads_b = self._gradients(x[batch], y[batch])
                for i in range(len(self.weights)):
                    vel_w[i] = momentum * vel_w[i] - lr * grads_w[i]
                    vel_b[i] = momentum * vel_b[i] - lr * grads_b[i]
                    self.weights[i] += vel_w[i]
                    self.biases[i] += vel_b[i]
        return self

    def predict_scores(self, x) -> np.ndarray:
        x = check_input_dim(self, x)
        _, logits = self._forward(x)
        return _sigmoid(logits)

    def predict(self, x) -> np.ndarray:
        return (self.predict_scores(x) > 0.5).astype(np.int64)


def gradient_check(
    spec: ClassifierSpec, x, y, epsilon: float = 1e-5
) -> float:
    """Compare analytic gradients against central finite differences.

    Perturbs every parameter of a freshly initialized network individually
    and returns the maximum discrepancy |analytic - numeric| scaled by
    max(1, |analytic| + |numeric|), a floor that keeps near-zero gradients
    from inflating the ratio. Restricted to small problems by contract.
    """
    x, y = validate_training_data(x, y)
    hp = spec.resolved_hyperparameters()
    if sum(int(h) for h in hp["hidden_sizes"]) > 32:
        raise ConfigError("gradient check is limited to at most 32 total hidden units")
    if x.shape[0] > 16:
        raise ConfigError("gradient check is limited to at most 16 samples")
    y = y.astype(float)
    net = Mlp(spec)
    net._init_params(x.shape[1], y.shape[1], np.random.default_rng(spec.seed))
    grads_w, grads_b = net._gradients(x, y)

    worst = 0.0
    params = list(zip(net.weights, grads_w)) + list(zip(net.biases, grads_b))
    for tensor, grad in params:
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            up = net.batch_loss(x, y)
            flat[i] = saved - epsilon
            down = net.batch_loss(x, y)
            flat[i] = saved
            numeric = (up - down) / (2.0 * epsilon)
            analytic = gflat[i]
            err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst
