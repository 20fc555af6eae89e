"""Unit-norm row scaling and PCA projection.

PCA is computed from the SVD of the mean-centered data matrix rather than an
eigendecomposition of the covariance, which is better conditioned when there
are far fewer samples than feature columns. Component signs are canonicalized
so each component's largest-magnitude entry is non-negative, making repeated
fits byte-identical. Sparse input is densified first; centering would destroy
sparsity anyway. Fitting warns of the memory cost when the dense copy takes at
least ``DENSIFY_WARN_MB``; transforming a batch densifies it silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .learn.base import as_dense
from .sparse_features import SparseRows, normalize_rows_sparse

# fit_pca warns when densifying sparse input allocates at least this much
DENSIFY_WARN_MB = 100


@dataclass(frozen=True)
class ReductionConfig:
    """``components`` is "all", a fixed integer k, or a variance fraction in (0,1)."""

    components: object = "all"


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (k, d); rows are principal axes
    explained_variance: np.ndarray
    explained_variance_ratio: np.ndarray
    n_samples: int

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def normalize_rows(m):
    """Scale every nonzero row to unit L2 norm; zero rows pass through."""
    if isinstance(m, SparseRows):
        return normalize_rows_sparse(m)
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    scale = np.where(norms > 0, norms, 1.0)
    return m / scale


def fit_pca(m, cfg: ReductionConfig = ReductionConfig()) -> PcaModel:
    """Fit PCA on the rows of ``m`` and keep components per ``cfg``.

    explained_variance is s_i^2 / (n - 1); ratios are against the total
    variance of the centered data. In variance-fraction mode the smallest k
    whose cumulative ratio reaches the fraction is kept.
    """
    if isinstance(m, SparseRows) and m.shape[0] * m.shape[1] * 8 / 1e6 >= DENSIFY_WARN_MB:
        warnings.warn(
            f"densifying a sparse {m.shape[0]}x{m.shape[1]} matrix for PCA; "
            f"this allocates roughly {m.shape[0] * m.shape[1] * 8 / 1e6:.0f} MB",
            stacklevel=2,
        )
    x = as_dense(m)
    n, d = x.shape
    if n < 2:
        raise ConfigError(f"PCA requires at least 2 samples, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = (s**2) / (n - 1)
    total = variances.sum()
    ratios = variances / total if total > 0 else np.zeros_like(variances)

    max_k = min(n, d)
    c = cfg.components
    if c == "all":
        k = max_k
    elif isinstance(c, int) and not isinstance(c, bool):
        if not 1 <= c <= max_k:
            raise ConfigError(f"components={c} out of range 1..{max_k}")
        k = c
    elif isinstance(c, float):
        if not 0.0 < c < 1.0:
            raise ConfigError(f"variance fraction must be in (0, 1), got {c}")
        k = int(np.searchsorted(np.cumsum(ratios), c - 1e-12) + 1)
        k = min(k, max_k)
    else:
        raise ConfigError(f"invalid components setting {c!r}")

    components = vt[:k].copy()
    # canonical sign: largest-|entry| of each axis is non-negative
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=variances[:k].copy(),
        explained_variance_ratio=ratios[:k].copy(),
        n_samples=n,
    )


def transform_pca(m, model: PcaModel) -> np.ndarray:
    x = as_dense(m)
    if x.shape[1] != model.input_dim:
        raise ShapeError(
            f"matrix has {x.shape[1]} columns but the PCA model expects {model.input_dim}"
        )
    return (x - model.mean) @ model.components.T


def inverse_transform_pca(z, model: PcaModel) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[1] != model.n_components:
        raise ShapeError(
            f"matrix has {z.shape[1]} columns but the model keeps {model.n_components} components"
        )
    return z @ model.components + model.mean
