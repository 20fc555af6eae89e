"""k-nearest-neighbors multi-label classifier."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import ClassifierSpec, check_input_dim, validate_training_data


def neighbor_count(spec: ClassifierSpec) -> int:
    """The ``k`` of a knn spec; ConfigError naming it unless it is an int >= 1, not a bool."""
    k = spec.resolved_hyperparameters()["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ConfigError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return k


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """The mask of each row's k nearest columns: the first k of a stable sort of the row.

    ``np.partition`` selects each row's k-th smallest distance, NaN last;
    in O(n) per row where a sort takes O(n log n). A row's neighbours are
    then its distances up to that one, unless they are not k: more columns
    tie at the k-th distance than it needs, or it has fewer than k
    distances that are not NaN, so its k-th is NaN. Only such rows are
    fixed up, to every column below the k-th (every one that is not NaN)
    plus the lowest-index columns equal to it (the lowest NaN ones).
    """
    kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    near = d2 <= kth
    fix = np.flatnonzero(np.count_nonzero(near, axis=1) != k)
    if fix.size:
        d2, kth = d2[fix], kth[fix]
        missing = np.isnan(kth)
        below = np.where(missing, ~np.isnan(d2), d2 < kth)
        tied = np.where(missing, np.isnan(d2), d2 == kth)
        need = k - np.count_nonzero(below, axis=1)
        near[fix] = below | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))
    return near


class KNearestNeighbors:
    """Euclidean kNN with per-label majority voting among the k neighbors.

    The neighbours are chosen by selection, not by sorting every distance
    (see ``_nearest``): a distance tie goes to the lowest training-row
    index, and NaN distances come last. A tied label vote (possible when k
    is even) goes to 0.
    """

    def __init__(self, spec: ClassifierSpec | None = None):
        self.spec = spec or ClassifierSpec(kind="knn")
        self.x = None
        self.y = None
        self.input_dim = 0
        self.n_labels = 0

    def fit(self, x, y):
        x, y = validate_training_data(x, y)
        neighbor_count(self.spec)
        self.x = x
        self.y = y
        self.input_dim = x.shape[1]
        self.n_labels = y.shape[1]
        return self

    def predict(self, x) -> np.ndarray:
        x = check_input_dim(self, x)
        k = min(neighbor_count(self.spec), self.x.shape[0])
        out = np.zeros((x.shape[0], self.n_labels), dtype=np.int64)
        # blockwise pairwise distances keep memory bounded for large queries
        block = max(1, int(2**22 // max(1, self.x.shape[0])))
        sq_train = (self.x**2).sum(axis=1)
        # a count of 0/1 labels is exact as a float matrix product
        labels = self.y.astype(np.float64)
        for start in range(0, x.shape[0], block):
            q = x[start : start + block]
            # sq_q - 2 q x^T + sq_train in that order, without a temporary per step
            d2 = (2.0 * q) @ self.x.T
            np.subtract((q**2).sum(axis=1)[:, None], d2, out=d2)
            d2 += sq_train
            out[start : start + q.shape[0]] = 2 * (_nearest(d2, k) @ labels) > k
        return out
