"""Majority voting ensembles and exhaustive hyperparameter search."""

import numpy as np
import pytest

from polyemo.errors import ConfigError
from polyemo.learn import (
    ClassifierSpec,
    DEFAULT_MLP_GRID,
    VotingEnsemble,
    default_voting_spec,
    enumerate_grid,
    fit,
    grid_search_mlp,
)
from polyemo.evaluate import f1_macro


class FixedVoter:
    """Stand-in member that always predicts a constant matrix."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.int64)

    def predict(self, x):
        return np.tile(self.matrix, (np.asarray(x).shape[0], 1))


def assemble(members, n_labels=1):
    ensemble = VotingEnsemble(default_voting_spec())
    ensemble.members = list(members)
    ensemble.input_dim = 1
    ensemble.n_labels = n_labels
    return ensemble


class TestVotingEnsemble:
    def test_two_of_three_majority(self):
        votes = [FixedVoter([[1]]), FixedVoter([[1]]), FixedVoter([[0]])]
        np.testing.assert_array_equal(assemble(votes).predict([[0.0]]), [[1]])

    def test_one_of_three_is_not_majority(self):
        votes = [FixedVoter([[0]]), FixedVoter([[1]]), FixedVoter([[0]])]
        np.testing.assert_array_equal(assemble(votes).predict([[0.0]]), [[0]])

    def test_even_tie_goes_to_zero(self):
        votes = [FixedVoter([[1]]), FixedVoter([[0]])]
        np.testing.assert_array_equal(assemble(votes).predict([[0.0]]), [[0]])

    def test_per_label_voting_is_independent(self):
        votes = [
            FixedVoter([[1, 0, 1]]),
            FixedVoter([[1, 1, 0]]),
            FixedVoter([[0, 0, 0]]),
        ]
        out = assemble(votes, n_labels=3).predict([[0.0]])
        np.testing.assert_array_equal(out, [[1, 0, 0]])

    def test_default_members_and_order(self):
        spec = default_voting_spec(seed=4)
        assert [m.kind for m in spec.members] == ["knn", "dt", "rf"]
        assert all(m.seed == 4 for m in spec.members)

    def test_fitted_ensemble_matches_member_majority(self, rng):
        """The ensemble's output is exactly the majority of its own members."""
        members = (
            ClassifierSpec(kind="knn", hyperparameters={"k": 3}),
            ClassifierSpec(kind="dt"),
            ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 5}),
        )
        spec = ClassifierSpec(kind="voting", members=members)
        for _ in range(10):
            x = rng.normal(size=(15, 3))
            y = rng.integers(0, 2, size=(15, 4)).astype(np.int64)
            model = fit(spec, x, y)
            q = rng.normal(size=(6, 3))
            votes = sum(m.predict(q) for m in model.members)
            want = (2 * votes > len(model.members)).astype(np.int64)
            np.testing.assert_array_equal(model.predict(q), want)

    def test_member_training_data_is_shared(self, rng):
        x = rng.normal(size=(10, 2))
        y = rng.integers(0, 2, size=(10, 2)).astype(np.int64)
        model = fit(default_voting_spec(), x, y)
        assert len(model.members) == 3
        # the knn member memorizes exactly the shared training matrix
        np.testing.assert_array_equal(model.members[0].x, x)


class TestEnumerateGrid:
    def test_lexicographic_order(self):
        grid = {"a": [1, 2], "b": ["x", "y"]}
        got = enumerate_grid(grid)
        assert got == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_single_point(self):
        assert enumerate_grid({"a": [5]}) == [{"a": 5}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            enumerate_grid({"a": []})
        with pytest.raises(ConfigError):
            enumerate_grid({})

    def test_default_grid_enumerates_eight_points(self):
        assert len(enumerate_grid(DEFAULT_MLP_GRID)) == 8


class TestGridSearch:
    def test_stub_scores_pick_argmax(self):
        grid = {"hidden_sizes": [(50,), (100,)]}
        scores = {(50,): 0.7, (100,): 0.6}

        def stub(spec):
            return scores[spec.hyperparameters["hidden_sizes"]]

        best, score, _ = grid_search_mlp(grid, (None, None), (None, None), evaluate_fn=stub)
        assert best.hyperparameters["hidden_sizes"] == (50,)
        assert score == 0.7

    def test_tie_goes_to_earliest_point(self):
        grid = {"hidden_sizes": [(50,), (100,)]}
        best, _, _ = grid_search_mlp(
            grid, (None, None), (None, None), evaluate_fn=lambda spec: 0.5
        )
        assert best.hyperparameters["hidden_sizes"] == (50,)

    def test_seed_propagates(self):
        grid = {"hidden_sizes": [(50,)]}
        best, _, _ = grid_search_mlp(
            grid, (None, None), (None, None), seed=9, evaluate_fn=lambda spec: 1.0
        )
        assert best.seed == 9

    def test_real_search_result_verifies_by_rescoring(self, rng):
        """Refitting every candidate reproduces the winner's reported score."""
        half = 20
        x = np.vstack([rng.normal(-2, 1, (half, 2)), rng.normal(2, 1, (half, 2))])
        y = np.vstack(
            [np.tile([1, 0], (half, 1)), np.tile([0, 1], (half, 1))]
        ).astype(np.int64)
        x_dev, y_dev = x[::3], y[::3]
        grid = {"hidden_sizes": [(4,), (8,)], "epochs": [30], "batch_size": [8]}
        best, best_score, _ = grid_search_mlp(grid, (x, y), (x_dev, y_dev), seed=1)
        rescored = {}
        for point in enumerate_grid(grid):
            spec = ClassifierSpec(kind="mlp", hyperparameters=point, seed=1)
            model = fit(spec, x, y)
            rescored[point["hidden_sizes"]] = f1_macro(y_dev, model.predict(x_dev))
        assert best_score == max(rescored.values())
        assert rescored[best.hyperparameters["hidden_sizes"]] == best_score

    def test_returns_the_fitted_winner(self, rng):
        """The returned model is the winner's fit: a refit of its spec is identical."""
        x = rng.normal(size=(40, 3))
        y = (x[:, :2] > 0).astype(np.int64)
        grid = {"hidden_sizes": [(4,), (8,)], "epochs": [20], "batch_size": [8]}
        best, _, model = grid_search_mlp(grid, (x, y), (x[::3], y[::3]), seed=4)
        assert model.spec == best
        refit = fit(best, x, y)
        for a, b in zip(model.weights + model.biases, refit.weights + refit.biases):
            np.testing.assert_array_equal(a, b)

    def test_stub_search_returns_no_model(self):
        _, _, model = grid_search_mlp(
            {"hidden_sizes": [(50,)]}, (None, None), (None, None), evaluate_fn=lambda spec: 1.0
        )
        assert model is None
