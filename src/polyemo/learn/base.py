"""Classifier specs, shared validation, and the fit/predict dispatch."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError, ShapeError
from ..sparse_features import SparseRows

CLASSIFIER_KINDS = ("dt", "knn", "rf", "svm", "voting", "mlp")

DEFAULT_HYPERPARAMETERS = {
    "dt": {"max_depth": None, "min_samples_split": 2, "max_features": None},
    "knn": {"k": 5},
    "rf": {
        "n_estimators": 100,
        "bootstrap": True,
        "max_features": "sqrt",
        "min_samples_split": 2,
        "max_depth": None,
    },
    "svm": {"reg": 1e-4, "epochs": 1000, "learning_rate": 0.1},
    "mlp": {
        "hidden_sizes": (100,),
        "learning_rate": 1e-3,
        "momentum": 0.9,
        "epochs": 200,
        "batch_size": 32,
    },
    "voting": {},
}


@dataclass(frozen=True)
class ClassifierSpec:
    """What to train: a kind, its hyperparameters, and a seed.

    Voting specs carry an ordered tuple of member specs; other kinds must
    leave ``members`` empty.
    """

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0
    members: tuple = ()

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        if self.kind == "voting" and not self.members:
            raise ConfigError("voting spec requires at least one member spec")
        if self.kind != "voting" and self.members:
            raise ConfigError(f"{self.kind} spec does not accept members")
        unknown = set(self.hyperparameters) - set(DEFAULT_HYPERPARAMETERS[self.kind])
        if unknown:
            raise ConfigError(
                f"unknown hyperparameters for {self.kind}: {sorted(unknown)}"
            )

    def resolved_hyperparameters(self) -> dict:
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        merged.update(self.hyperparameters)
        return merged


def default_voting_spec(seed: int = 0) -> ClassifierSpec:
    """The stock ensemble: knn, dt, and rf trained on the same data."""
    members = (
        ClassifierSpec(kind="knn", seed=seed),
        ClassifierSpec(kind="dt", seed=seed),
        ClassifierSpec(kind="rf", seed=seed),
    )
    return ClassifierSpec(kind="voting", seed=seed, members=members)


def _sigmoid(z):
    """Logistic function, evaluated without overflow for large |z|."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def as_dense(x) -> np.ndarray:
    if isinstance(x, SparseRows):
        return x.toarray()
    return np.asarray(x, dtype=float)


def validate_training_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = as_dense(x)
    y = np.asarray(y)
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError(f"expected 2-D x and y, got shapes {x.shape} and {y.shape}")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if x.shape[0] == 0:
        raise DataError("cannot fit on an empty training set")
    if not np.isin(y, (0, 1)).all():
        raise DataError("label matrix must contain only 0 and 1")
    if not np.isfinite(x).all():
        # a split threshold between a finite value and inf is inf, which never
        # separates the rows: tree growth would not terminate
        raise DataError("feature matrix contains nan or inf")
    return x, y.astype(np.int64)


def check_input_dim(model, x) -> np.ndarray:
    x = as_dense(x)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"matrix has shape {x.shape} but the model expects {model.input_dim} columns"
        )
    return x


def fit(spec: ClassifierSpec, x, y):
    """Train the classifier described by ``spec``; deterministic given the seed."""
    from . import CLASSIFIER_CLASSES  # the package, whose learner modules import this one

    model = CLASSIFIER_CLASSES[spec.kind](spec)
    model.fit(x, y)
    return model
