"""Nearest-neighbor voting and linear SVM subgradient training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from polyemo.errors import ConfigError, ShapeError
from polyemo.learn import ClassifierSpec, KNearestNeighbors, LinearSvm


def knn_spec(k):
    return ClassifierSpec(kind="knn", hyperparameters={"k": k})


def stable_sort_vote(model, q):
    """The reference: the vote of the first k rows of a stable argsort of every distance."""
    x = model.x
    k = min(model.spec.resolved_hyperparameters()["k"], x.shape[0])
    d2 = (q**2).sum(axis=1)[:, None] - 2.0 * q @ x.T + (x**2).sum(axis=1)[None, :]
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return (2 * model.y[neighbors].sum(axis=1) > k).astype(np.int64)


SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 1e200, -1e200)


@st.composite
def knn_cases(draw):
    """Points on a small integer grid, so distances tie and training rows repeat.

    Queries and, as a damaged model file could hold them, training points
    may take the ``SPECIAL`` values.
    """
    n, d, m = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 6))

    def matrix(rows, values, columns=d):
        cells = draw(st.lists(values, min_size=rows * columns, max_size=rows * columns))
        return np.array(cells, dtype=float).reshape(rows, columns)

    grid = st.integers(-2, 2)
    values = st.one_of(grid, st.sampled_from(SPECIAL)) if draw(st.booleans()) else grid
    x = matrix(n, grid)
    damaged = matrix(n, values) if draw(st.booleans()) else x
    y = matrix(n, st.integers(0, 1), columns=2).astype(np.int64)
    return x, damaged, y, matrix(m, values), draw(st.integers(1, n + 2))


class TestKNearestNeighbors:
    def test_k1_recovers_training_labels(self, rng):
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=(12, 6)).astype(np.int64)
        model = KNearestNeighbors(knn_spec(1)).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)

    def test_k3_majority(self):
        # query at origin: neighbors are the three closest points with labels 1,1,0
        x = np.array([[0.1], [0.2], [0.3], [9.0]])
        y = np.array([[1], [1], [0], [0]])
        model = KNearestNeighbors(knn_spec(3)).fit(x, y)
        np.testing.assert_array_equal(model.predict([[0.0]]), [[1]])

    def test_even_k_tie_goes_to_zero(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[1], [0]])
        model = KNearestNeighbors(knn_spec(2)).fit(x, y)
        np.testing.assert_array_equal(model.predict([[0.5]]), [[0]])

    def test_distance_tie_prefers_lower_index(self):
        # both training points sit at distance 1 from the query
        x = np.array([[-1.0], [1.0]])
        y = np.array([[1], [0]])
        model = KNearestNeighbors(knn_spec(1)).fit(x, y)
        np.testing.assert_array_equal(model.predict([[0.0]]), [[1]])
        # with the labels swapped the answer follows row 0 again
        model2 = KNearestNeighbors(knn_spec(1)).fit(x, y[::-1])
        np.testing.assert_array_equal(model2.predict([[0.0]]), [[0]])

    def test_k_capped_at_training_size(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[1], [1]])
        model = KNearestNeighbors(knn_spec(10)).fit(x, y)
        np.testing.assert_array_equal(model.predict([[5.0]]), [[1]])

    def test_k_below_one_rejected(self):
        with pytest.raises(ConfigError):
            KNearestNeighbors(knn_spec(0)).fit(np.zeros((2, 1)), np.zeros((2, 1), dtype=int))

    @pytest.mark.parametrize("k", [2.5, True, "5", None], ids=["float", "bool", "str", "null"])
    def test_k_that_is_not_an_int_rejected(self, k):
        # these once ran as k = 2, 1 and 5, and null failed as a TypeError
        with pytest.raises(ConfigError, match=f"k must be an integer, got {k!r}"):
            KNearestNeighbors(knn_spec(k)).fit(np.zeros((2, 1)), np.zeros((2, 1), dtype=int))

    @settings(max_examples=400, deadline=None)
    @given(case=knn_cases())
    def test_selection_votes_as_a_stable_sort(self, case):
        """Ties at the k-th distance go to the lowest rows and NaN distances
        come last, for every k up to past n."""
        x, damaged, y, q, k = case
        model = KNearestNeighbors(knn_spec(k)).fit(x, y)
        model.x = damaged
        with np.errstate(invalid="ignore", over="ignore"):
            np.testing.assert_array_equal(model.predict(q), stable_sort_vote(model, q))

    def test_matches_cdist_oracle(self, rng):
        """Blockwise distance computation agrees with a direct pairwise oracle."""
        x = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, size=(40, 3)).astype(np.int64)
        q = rng.normal(size=(17, 4))
        k = 5
        model = KNearestNeighbors(knn_spec(k)).fit(x, y)
        d = cdist(q, x)
        neighbors = np.argsort(d, axis=1, kind="stable")[:, :k]
        want = (2 * y[neighbors].sum(axis=1) > k).astype(np.int64)
        np.testing.assert_array_equal(model.predict(q), want)

    def test_batch_and_single_row_agree(self, rng):
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=(50, 2)).astype(np.int64)
        model = KNearestNeighbors(knn_spec(3)).fit(x, y)
        q = rng.normal(size=(33, 3))
        full = model.predict(q)
        per_row = np.vstack([model.predict(q[i : i + 1]) for i in range(q.shape[0])])
        np.testing.assert_array_equal(full, per_row)

    def test_sparse_queries(self, rng):
        import scipy.sparse as sp

        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, size=(10, 2)).astype(np.int64)
        model = KNearestNeighbors(knn_spec(3)).fit(x, y)
        q = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(model.predict(sp.csr_matrix(q)), model.predict(q))


def separable_problem(rng, n=40, d=4, labels=3):
    """Labels are linear threshold functions of the features, with margin."""
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(labels, d))
    scores = x @ w.T
    y = (scores > 0).astype(np.int64)
    # push points away from the boundary to guarantee a margin
    x += 0.5 * np.sign(scores) @ np.linalg.pinv(w.T)
    return x, ((x @ w.T) > 0).astype(np.int64)


class TestLinearSvm:
    def test_first_step_matches_hand_computed_update(self):
        """One epoch from w=0: every margin violates, so the update is
        eta * (y_pm^T x) / n for the weights and eta * mean(y_pm) for the bias."""
        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        y = np.array([[1], [0]])
        reg, lr0 = 1e-4, 0.1
        spec = ClassifierSpec(
            kind="svm", hyperparameters={"reg": reg, "learning_rate": lr0, "epochs": 1}
        )
        model = LinearSvm(spec).fit(x, y)
        y_pm = 2.0 * y - 1.0
        t0 = 1.0 / (reg * lr0)
        eta = 1.0 / (reg * (1.0 + t0))
        want_w = eta * (y_pm.T @ x) / 2.0
        want_b = eta * y_pm.mean()
        np.testing.assert_allclose(model.w, want_w, atol=1e-12)
        np.testing.assert_allclose(model.b, [want_b], atol=1e-12)

    def test_separable_data_fits(self, rng):
        x, y = separable_problem(rng)
        spec = ClassifierSpec(kind="svm", hyperparameters={"epochs": 300})
        model = LinearSvm(spec).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)

    def test_training_reduces_objective(self, rng):
        x, y = separable_problem(rng, n=30)
        model = LinearSvm(ClassifierSpec(kind="svm", hyperparameters={"epochs": 200})).fit(x, y)
        reg = model.spec.resolved_hyperparameters()["reg"]
        y_pm = 2.0 * y - 1.0

        def objective(w, b):
            margins = y_pm * (x @ w.T + b)
            hinge = np.maximum(0.0, 1.0 - margins).mean(axis=0).sum()
            return reg / 2.0 * (w**2).sum() + hinge

        assert objective(model.w, model.b) < objective(np.zeros_like(model.w), np.zeros_like(model.b))

    def test_scores_consistent_with_predictions(self, rng):
        x, y = separable_problem(rng)
        model = LinearSvm().fit(x, y)
        q = rng.normal(size=(25, x.shape[1]))
        scores = model.predict_scores(q)
        assert np.all((scores > 0.0) & (scores < 1.0))
        np.testing.assert_array_equal(model.predict(q), (scores > 0.5).astype(np.int64))

    def test_labels_trained_independently(self, rng):
        """Adding a second label leaves the first label's weights unchanged."""
        x = rng.normal(size=(20, 3))
        y1 = rng.integers(0, 2, size=(20, 1)).astype(np.int64)
        y2 = np.hstack([y1, rng.integers(0, 2, size=(20, 1))])
        spec = ClassifierSpec(kind="svm", hyperparameters={"epochs": 50})
        a = LinearSvm(spec).fit(x, y1)
        b = LinearSvm(spec).fit(x, y2)
        np.testing.assert_allclose(a.w[0], b.w[0], atol=1e-12)
        np.testing.assert_allclose(a.b[0], b.b[0], atol=1e-12)

    def test_deterministic(self, rng):
        x, y = separable_problem(rng)
        a = LinearSvm().fit(x, y)
        b = LinearSvm().fit(x, y)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.b, b.b)

    def test_predict_dim_check(self, rng):
        x, y = separable_problem(rng, n=10, d=3)
        model = LinearSvm(ClassifierSpec(kind="svm", hyperparameters={"epochs": 5})).fit(x, y)
        with pytest.raises(ShapeError):
            model.predict(np.zeros((2, 4)))
