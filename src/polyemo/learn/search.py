"""Exhaustive hyperparameter search scored by dev-set macro F1."""

from __future__ import annotations

import itertools

from ..errors import ConfigError
from ..evaluate import f1_macro
from .base import ClassifierSpec, fit as fit_classifier

DEFAULT_MLP_GRID = {
    "hidden_sizes": [(50,), (100,)],
    "learning_rate": [1e-2, 1e-3],
    "batch_size": [16, 32],
}


def enumerate_grid(grid: dict) -> list[dict]:
    """All combinations, lexicographic over the grid's declaration order."""
    if not grid or any(not values for values in grid.values()):
        raise ConfigError("hyperparameter grid must have at least one value per axis")
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*grid.values())]


def grid_search_mlp(grid, train, dev, seed: int = 0, evaluate_fn=None):
    """Train one MLP per grid point and return the dev F1-macro argmax.

    ``train`` and ``dev`` are (x, y) pairs. Returns the winner's spec, its
    dev score and its fitted model, so the caller need not fit it again;
    ties go to the earliest grid point in enumeration order.
    ``evaluate_fn`` maps a ClassifierSpec to a score and exists so tests can
    stub out training; with it the returned model is None.
    """
    x_train, y_train = train
    x_dev, y_dev = dev
    best = (None, -1.0, None)
    for point in enumerate_grid(grid):
        spec = ClassifierSpec(kind="mlp", hyperparameters=point, seed=seed)
        if evaluate_fn is None:
            model = fit_classifier(spec, x_train, y_train)
            score = f1_macro(y_dev, model.predict(x_dev))
        else:
            model, score = None, evaluate_fn(spec)
        if score > best[1]:
            best = (spec, score, model)
    return best
