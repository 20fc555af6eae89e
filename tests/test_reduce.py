"""Row normalization and PCA, checked against a covariance eigendecomposition."""

import warnings

import numpy as np
import pytest

from polyemo import reduce
from polyemo.errors import ConfigError, ShapeError
from polyemo.reduce import (
    PcaModel,
    ReductionConfig,
    fit_pca,
    inverse_transform_pca,
    normalize_rows,
    transform_pca,
)
from polyemo.sparse_features import SparseRows

from conftest import sparse_rows


def eig_oracle(x):
    """PCA the slow way: eigendecompose the sample covariance matrix."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order].T  # rows are axes, variance-descending


def full_rank_sample(rng, max_n=12, max_d=8):
    d = int(rng.integers(2, max_d + 1))
    n = int(rng.integers(d + 2, max_n + 1)) if d + 2 <= max_n else d + 2
    return rng.normal(size=(n, d))


FOUR_POINTS = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_zero_row_passes_through(self):
        out = normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_sparse_input(self):
        out = normalize_rows(sparse_rows([[3.0, 4.0]]))
        assert isinstance(out, SparseRows)
        np.testing.assert_allclose(out.toarray(), [[0.6, 0.8]], atol=1e-12)

    def test_random_rows_unit_norm(self, rng):
        m = rng.normal(size=(10, 5))
        norms = np.linalg.norm(normalize_rows(m), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestFitPca:
    def test_collinear_points(self):
        # points on the line y = x: single axis along (1,1)/sqrt(2)
        m = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = fit_pca(m)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(model.components[0], [r, r], atol=1e-9)
        np.testing.assert_allclose(model.explained_variance_ratio[0], 1.0, atol=1e-9)
        np.testing.assert_allclose(model.explained_variance[1], 0.0, atol=1e-12)

    def test_axis_aligned_cross(self):
        model = fit_pca(FOUR_POINTS)
        np.testing.assert_allclose(model.explained_variance, [8.0 / 3.0, 2.0 / 3.0], atol=1e-9)
        np.testing.assert_allclose(model.explained_variance_ratio, [0.8, 0.2], atol=1e-9)
        np.testing.assert_allclose(model.components[0], [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(model.components[1], [0.0, 1.0], atol=1e-9)

    def test_matches_eigendecomposition(self, rng):
        for _ in range(50):
            x = full_rank_sample(rng)
            model = fit_pca(x)
            evals, evecs = eig_oracle(x)
            np.testing.assert_allclose(model.explained_variance, evals, atol=1e-8)
            for got, want in zip(model.components, evecs):
                same = np.allclose(got, want, atol=1e-6)
                flipped = np.allclose(got, -want, atol=1e-6)
                assert same or flipped

    def test_components_orthonormal(self, rng):
        for _ in range(20):
            x = full_rank_sample(rng)
            c = fit_pca(x).components
            np.testing.assert_allclose(c @ c.T, np.eye(c.shape[0]), atol=1e-8)

    def test_variance_non_increasing(self, rng):
        for _ in range(20):
            v = fit_pca(full_rank_sample(rng)).explained_variance
            assert np.all(np.diff(v) <= 1e-12)

    def test_ratios_sum_to_at_most_one(self, rng):
        for _ in range(20):
            r = fit_pca(full_rank_sample(rng)).explained_variance_ratio
            assert r.sum() <= 1.0 + 1e-9
            assert np.all(r >= 0)

    def test_projection_variance_matches_reported(self, rng):
        """Per-axis sample variance of the projected data equals explained_variance."""
        for _ in range(10):
            x = full_rank_sample(rng)
            model = fit_pca(x)
            z = transform_pca(x, model)
            got = z.var(axis=0, ddof=1)
            np.testing.assert_allclose(got, model.explained_variance, atol=1e-6)

    def test_sign_canonical_and_deterministic(self, rng):
        x = rng.normal(size=(9, 4))
        a, b = fit_pca(x), fit_pca(x)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] >= 0

    def test_single_sample_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            fit_pca(np.ones((1, 3)))

    def test_sparse_input_warns_then_works(self, monkeypatch):
        monkeypatch.setattr(reduce, "DENSIFY_WARN_MB", 0)
        m = sparse_rows(FOUR_POINTS)
        with pytest.warns(UserWarning, match="densifying"):
            model = fit_pca(m)
        np.testing.assert_allclose(model.explained_variance_ratio, [0.8, 0.2], atol=1e-9)

    def test_small_sparse_fit_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_pca(sparse_rows(FOUR_POINTS))
        np.testing.assert_array_equal(model.components, fit_pca(FOUR_POINTS).components)

    def test_sparse_transform_is_silent(self):
        model = fit_pca(FOUR_POINTS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a predict batch must not warn
            z = transform_pca(sparse_rows(FOUR_POINTS), model)
        np.testing.assert_array_equal(z, transform_pca(FOUR_POINTS, model))


class TestComponentSelection:
    def test_fixed_k(self):
        model = fit_pca(FOUR_POINTS, ReductionConfig(components=1))
        assert model.n_components == 1
        np.testing.assert_allclose(model.explained_variance_ratio, [0.8], atol=1e-9)

    def test_fixed_k_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            fit_pca(FOUR_POINTS, ReductionConfig(components=3))
        with pytest.raises(ConfigError, match="out of range"):
            fit_pca(FOUR_POINTS, ReductionConfig(components=0))

    def test_variance_fraction_thresholds(self):
        # ratios are exactly (0.8, 0.2): 0.79 and 0.80 need one axis, 0.81 needs two
        assert fit_pca(FOUR_POINTS, ReductionConfig(components=0.79)).n_components == 1
        assert fit_pca(FOUR_POINTS, ReductionConfig(components=0.8)).n_components == 1
        assert fit_pca(FOUR_POINTS, ReductionConfig(components=0.81)).n_components == 2

    def test_variance_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                fit_pca(FOUR_POINTS, ReductionConfig(components=bad))

    def test_invalid_setting(self):
        with pytest.raises(ConfigError, match="invalid components"):
            fit_pca(FOUR_POINTS, ReductionConfig(components=[1]))

    def test_all_keeps_min_n_d(self, rng):
        tall = rng.normal(size=(8, 3))
        wide = rng.normal(size=(3, 8))
        assert fit_pca(tall).n_components == 3
        assert fit_pca(wide).n_components == 3


class TestTransform:
    def test_mean_row_maps_to_origin(self, rng):
        x = rng.normal(size=(7, 4))
        model = fit_pca(x)
        z = transform_pca(x.mean(axis=0, keepdims=True), model)
        np.testing.assert_allclose(z, 0.0, atol=1e-9)

    def test_matches_direct_projection(self, rng):
        x = rng.normal(size=(9, 5))
        model = fit_pca(x)
        held_out = rng.normal(size=(3, 5))
        want = (held_out - model.mean) @ model.components.T
        np.testing.assert_allclose(transform_pca(held_out, model), want, atol=1e-12)

    def test_full_rank_reconstruction(self, rng):
        for _ in range(10):
            x = full_rank_sample(rng)
            model = fit_pca(x)
            back = inverse_transform_pca(transform_pca(x, model), model)
            assert np.max(np.abs(back - x)) < 1e-8

    def test_dimension_mismatch(self, rng):
        model = fit_pca(rng.normal(size=(6, 4)))
        with pytest.raises(ShapeError, match="expects 4"):
            transform_pca(np.ones((2, 5)), model)
        with pytest.raises(ShapeError, match="components"):
            inverse_transform_pca(np.ones((2, 5)), model)
