"""Linear SVMs trained one-per-label by subgradient descent.

Each of the six labels gets an independent binary classifier minimizing
L2-regularized hinge loss

    (reg / 2) ||w||^2 + mean_i max(0, 1 - y_i (w x_i + b))

with y in {-1, +1}. Updates are full-batch subgradient steps under the
decaying schedule eta_t = 1 / (reg * (t + t0)), where t0 is chosen so the
first step uses the configured initial learning rate. The bias is updated
with the same steps but never regularized. Training is fully deterministic;
the seed carried by ClassifierSpec has no effect here.
"""

from __future__ import annotations

import numpy as np

from .base import ClassifierSpec, _sigmoid, check_input_dim, validate_training_data


class LinearSvm:
    def __init__(self, spec: ClassifierSpec | None = None):
        self.spec = spec or ClassifierSpec(kind="svm")
        self.w = None  # (n_labels, d)
        self.b = None  # (n_labels,)
        self.input_dim = 0
        self.n_labels = 0

    def fit(self, x, y):
        x, y = validate_training_data(x, y)
        hp = self.spec.resolved_hyperparameters()
        reg = float(hp["reg"])
        epochs = int(hp["epochs"])
        lr0 = float(hp["learning_rate"])
        n, d = x.shape
        labels = y.shape[1]
        y_pm = 2.0 * y - 1.0
        w = np.zeros((labels, d))
        b = np.zeros(labels)
        t0 = 1.0 / (reg * lr0)
        for t in range(1, epochs + 1):
            eta = 1.0 / (reg * (t + t0))
            margins = y_pm * (x @ w.T + b)
            viol = (margins < 1.0).astype(float) * y_pm  # (n, labels)
            grad_w = reg * w - (viol.T @ x) / n
            grad_b = -viol.mean(axis=0)
            w -= eta * grad_w
            b -= eta * grad_b
        self.w = w
        self.b = b
        self.input_dim = d
        self.n_labels = labels
        return self

    def decision_values(self, x) -> np.ndarray:
        x = check_input_dim(self, x)
        return x @ self.w.T + self.b

    def predict(self, x) -> np.ndarray:
        return (self.decision_values(x) > 0).astype(np.int64)

    def predict_scores(self, x) -> np.ndarray:
        # logistic squash keeps scores in (0, 1) while preserving the sign rule:
        # score > 0.5 exactly when the margin is positive
        return _sigmoid(self.decision_values(x))
