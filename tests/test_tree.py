"""Multi-output decision tree and random forest against brute-force splitting."""

import numpy as np
import pytest

from polyemo.errors import ConfigError, DataError, ShapeError
from polyemo.learn import ClassifierSpec, DecisionTree, RandomForest, fit
from polyemo.learn import tree as tree_module
from polyemo.learn.base import as_dense, validate_training_data
from polyemo.learn.tree import trees_of
from polyemo.reduce import ReductionConfig, fit_pca, normalize_rows, transform_pca
from polyemo.sparse_features import TfidfModel, fit_bow, fit_tfidf, transform_tfidf
from polyemo.synthetic import build_corpus
from polyemo.tokenize import Tokenizer, TokenizerSpec, tokenize_split


def joint_gini(y):
    """Sum over labels of 2 p (1-p)."""
    n = y.shape[0]
    p = y.mean(axis=0)
    return float((2.0 * p * (1.0 - p)).sum()) if n else 0.0


def brute_force_best_split(x, y):
    """Enumerate every (feature, midpoint) split; return the winner.

    Ties break toward the lowest feature index, then the lowest threshold,
    mirroring the tree's rule. Returns None when no feature varies.
    """
    best = None
    n = x.shape[0]
    for f in range(x.shape[1]):
        vals = np.unique(x[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            t = (a + b) / 2.0
            mask = x[:, f] <= t
            nl = int(mask.sum())
            score = nl * joint_gini(y[mask]) + (n - nl) * joint_gini(y[~mask])
            key = (score, f, t)
            if best is None or key < best:
                best = key
    return best


def random_problem(rng, n=None, d=None, n_labels=3):
    n = n or int(rng.integers(4, 16))
    d = d or int(rng.integers(1, 5))
    x = rng.normal(size=(n, d)).round(2)  # rounding forces some tied values
    y = rng.integers(0, 2, size=(n, n_labels)).astype(np.int64)
    return x, y


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([[0], [1], [1], [0]])


class TestDecisionTree:
    def test_pure_labels_single_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([[1, 0], [1, 0], [1, 0]])
        model = DecisionTree().fit(x, y)
        assert model.depth() == 0
        np.testing.assert_array_equal(model.predict(x), y)

    def test_xor_solved_at_depth_two(self):
        """The first split has zero gain, yet the tree keeps going to purity."""
        model = DecisionTree().fit(XOR_X, XOR_Y)
        assert model.depth() == 2
        np.testing.assert_array_equal(model.predict(XOR_X), XOR_Y)

    def test_root_split_matches_brute_force(self, rng):
        for _ in range(30):
            x, y = random_problem(rng)
            want = brute_force_best_split(x, y)
            if want is None or joint_gini(y) == 0.0:
                continue
            model = DecisionTree().fit(x, y)
            if model.feature[0] < 0:
                continue
            assert model.feature[0] == want[1]
            assert model.threshold[0] == pytest.approx(want[2], abs=1e-12)

    def test_threshold_is_midpoint(self):
        x = np.array([[1.0], [3.0]])
        y = np.array([[0], [1]])
        model = DecisionTree().fit(x, y)
        assert model.threshold[0] == 2.0

    def test_tie_breaks_to_lowest_feature(self):
        # both features split the labels identically; feature 0 must win
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([[0], [1]])
        model = DecisionTree().fit(x, y)
        assert model.feature[0] == 0

    def test_left_branch_takes_at_most_threshold(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[0], [1]])
        model = DecisionTree().fit(x, y)
        # query exactly at the threshold goes left
        np.testing.assert_array_equal(model.predict([[model.threshold[0]]]), [[0]])
        np.testing.assert_array_equal(model.predict([[model.threshold[0] + 1e-9]]), [[1]])

    def test_leaf_tie_predicts_zero(self):
        # two indistinguishable samples with opposite labels: majority tie -> 0
        x = np.array([[1.0], [1.0]])
        y = np.array([[1], [0]])
        model = DecisionTree().fit(x, y)
        np.testing.assert_array_equal(model.predict([[1.0]]), [[0]])

    def test_max_depth_cap(self):
        spec = ClassifierSpec(kind="dt", hyperparameters={"max_depth": 1})
        model = DecisionTree(spec).fit(XOR_X, XOR_Y)
        assert model.depth() <= 1

    def test_min_samples_split(self):
        spec = ClassifierSpec(kind="dt", hyperparameters={"min_samples_split": 5})
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([[0], [0], [1], [1]])
        model = DecisionTree(spec).fit(x, y)
        assert model.depth() == 0

    def test_overfits_distinct_rows(self, rng):
        """With unlimited depth, distinct feature rows are always separable."""
        for _ in range(10):
            n = int(rng.integers(3, 20))
            x = rng.normal(size=(n, 3))
            y = rng.integers(0, 2, size=(n, 6)).astype(np.int64)
            model = DecisionTree().fit(x, y)
            np.testing.assert_array_equal(model.predict(x), y)

    def test_determinism(self, rng):
        x, y = random_problem(rng, n=30, d=4)
        a = DecisionTree().fit(x, y).predict(x)
        b = DecisionTree().fit(x, y).predict(x)
        np.testing.assert_array_equal(a, b)

    def test_validation_errors(self):
        with pytest.raises(DataError):
            DecisionTree().fit(np.zeros((0, 2)), np.zeros((0, 1)))
        with pytest.raises(DataError):
            DecisionTree().fit(np.zeros((2, 2)), np.array([[2], [0]]))
        with pytest.raises(ShapeError):
            DecisionTree().fit(np.zeros((2, 2)), np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(DataError, match="nan or inf"):
            validate_training_data(np.array([[1.0], [bad]]), np.array([[0], [1]]))

    def test_fit_on_inf_raises_instead_of_looping(self):
        # the midpoint between 1 and inf is inf: every row went left, forever
        with pytest.raises(DataError, match="nan or inf"):
            DecisionTree().fit([[1.0], [np.inf]], [[0], [1]])

    def test_predict_dim_check(self):
        model = DecisionTree().fit(np.zeros((2, 2)), np.array([[0], [1]]))
        with pytest.raises(ShapeError):
            model.predict(np.zeros((1, 3)))

    def test_sparse_input_accepted(self):
        import scipy.sparse as sp

        x = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        y = np.array([[0], [1]])
        model = DecisionTree().fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)


class TestRandomForest:
    def degenerate_spec(self, seed=0):
        return ClassifierSpec(
            kind="rf",
            hyperparameters={"n_estimators": 1, "bootstrap": False, "max_features": None},
            seed=seed,
        )

    def test_single_unbagged_tree_equals_dt(self, rng):
        for seed in (0, 7):
            x, y = random_problem(rng, n=25, d=4)
            forest = RandomForest(self.degenerate_spec(seed)).fit(x, y)
            tree = DecisionTree(ClassifierSpec(kind="dt", seed=seed)).fit(x, y)
            q = rng.normal(size=(10, 4)).round(2)
            np.testing.assert_array_equal(forest.predict(q), tree.predict(q))

    def test_majority_vote_tie_breaks_to_zero(self):
        # two hand-built constant trees that disagree: 1 vote is not a majority of 2
        x = np.array([[0.0], [1.0]])
        ones = DecisionTree().fit(x, np.array([[1], [1]]))
        zeros = DecisionTree().fit(x, np.array([[0], [0]]))
        forest = RandomForest(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 2}))
        forest.input_dim = 1
        forest.n_labels = 1
        forest.trees = [ones, zeros]
        np.testing.assert_array_equal(forest.predict(x), [[0], [0]])

    def test_majority_vote_odd_members(self):
        x = np.array([[0.0]])
        ones = DecisionTree().fit(x, np.array([[1]]))
        zeros = DecisionTree().fit(x, np.array([[0]]))
        forest = RandomForest(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 3}))
        forest.input_dim = 1
        forest.n_labels = 1
        forest.trees = [ones, ones, zeros]
        np.testing.assert_array_equal(forest.predict(x), [[1]])

    def test_deterministic_given_seed(self, rng):
        x, y = random_problem(rng, n=30, d=5)
        spec = ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 10}, seed=3)
        a = RandomForest(spec).fit(x, y).predict(x)
        b = RandomForest(spec).fit(x, y).predict(x)
        np.testing.assert_array_equal(a, b)

    def test_fit_dispatch(self, rng):
        x, y = random_problem(rng, n=12, d=3)
        spec = ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 5})
        model = fit(spec, x, y)
        assert isinstance(model, RandomForest)
        assert len(model.trees) == 5
        assert model.predict(x).shape == y.shape


# ---------------------------------------------------------------------------
# frozen per-feature reference: the node-object tree builder the vectorized
# search replaced, kept verbatim in its arithmetic so any drift in the fitted
# trees (a reordered impurity expression, a different tie-break, a changed
# rng draw order) shows up as an array mismatch


class _RefNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = None  # (n_labels,) 0/1 vector at leaves


def _ref_impurity_weighted(prefix, counts_total, n):
    left_n = np.arange(1, n, dtype=float)
    right_n = n - left_n
    left_pos = prefix[:-1].astype(float)
    right_pos = counts_total.astype(float) - left_pos
    gl = 2.0 * (left_pos * (left_n[:, None] - left_pos) / left_n[:, None]).sum(axis=1) / left_n
    gr = 2.0 * (right_pos * (right_n[:, None] - right_pos) / right_n[:, None]).sum(axis=1) / right_n
    return left_n * gl + right_n * gr


def _ref_best_split_for_feature(values, y, counts_total):
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    vs = values[order]
    distinct = vs[:-1] < vs[1:]
    if not distinct.any():
        return None
    prefix = np.cumsum(y[order], axis=0)
    weighted = _ref_impurity_weighted(prefix, counts_total, n)
    weighted = np.where(distinct, weighted, np.inf)
    best = int(np.argmin(weighted))
    return weighted[best], (vs[best] + vs[best + 1]) / 2.0


def _ref_grow_tree(x, y, max_features, rng):
    """Reference growth with min_samples_split 2 and no depth limit."""
    n_features = x.shape[1]
    n_candidates = n_features if max_features is None else max(1, int(np.sqrt(n_features)))
    root = _RefNode()
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        n = idx.shape[0]
        counts = ys.sum(axis=0)
        if np.all((counts == 0) | (counts == n)) or n < 2:
            node.value = (2 * ys.sum(axis=0) > n).astype(np.int64)
            continue
        if n_candidates < n_features:
            features = np.sort(rng.choice(n_features, size=n_candidates, replace=False))
        else:
            features = np.arange(n_features)
        best = None
        for f in features:
            found = _ref_best_split_for_feature(x[idx, f], ys, counts)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], f, found[1])
        if best is None:
            node.value = (2 * ys.sum(axis=0) > n).astype(np.int64)
            continue
        _, feature, threshold = best
        mask = x[idx, feature] <= threshold
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = _RefNode()
        node.right = _RefNode()
        stack.append((node.right, idx[~mask]))
        stack.append((node.left, idx[mask]))
    return root


def _ref_tree_arrays(root, n_labels):
    """Preorder (feature, threshold, left, right, value) arrays of a reference tree."""
    order, index, stack = [], {}, [root]
    while stack:
        node = stack.pop()
        index[id(node)] = len(order)
        order.append(node)
        if node.value is None:
            stack.append(node.right)
            stack.append(node.left)
    leaf = [node.value is not None for node in order]
    return (
        np.array([-1 if lf else node.feature for node, lf in zip(order, leaf)], dtype=np.int64),
        np.array([0.0 if lf else node.threshold for node, lf in zip(order, leaf)], dtype=float),
        np.array([-1 if lf else index[id(node.left)] for node, lf in zip(order, leaf)], dtype=np.int64),
        np.array([-1 if lf else index[id(node.right)] for node, lf in zip(order, leaf)], dtype=np.int64),
        np.vstack([node.value if lf else np.zeros(n_labels, dtype=np.int64) for node, lf in zip(order, leaf)]),
    )


def _ref_forest_arrays(x, y, n_estimators, seed):
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    trees = []
    for _ in range(n_estimators):
        idx = rng.integers(0, n, size=n)
        trees.append(_ref_tree_arrays(_ref_grow_tree(x[idx], y[idx], "sqrt", rng), y.shape[1]))
    return trees


def assert_same_tree(tree, want):
    for name, a in zip(("feature", "threshold", "left", "right", "value"), want):
        got = getattr(tree, name)
        assert got.dtype == a.dtype, name
        np.testing.assert_array_equal(got, a, err_msg=name)


@pytest.fixture(scope="module")
def synthetic_features():
    """bow and tf-idf train features of the synthetic corpus, as the runner builds them."""
    splits = build_corpus(seed=0, n_documents=600)
    seqs = tokenize_split(splits["train"], Tokenizer(TokenizerSpec()))
    vocab = fit_bow(seqs)
    models = {
        "bow": TfidfModel(vocabulary=vocab, idf=np.ones(len(vocab)), row_normalize=False),
        "tfidf": fit_tfidf(seqs),
    }
    features = {}
    for name, model in models.items():
        x = normalize_rows(transform_tfidf(seqs, model))
        features[f"{name}-pca-off"] = as_dense(x)
        features[f"{name}-pca-on"] = transform_pca(x, fit_pca(x, ReductionConfig(normalize=False)))
    return features, splits["train"].label_matrix()


FEATURE_SETS = ("bow-pca-off", "bow-pca-on", "tfidf-pca-off", "tfidf-pca-on")


class TestBitExactAgainstReference:
    """Fitted trees equal the per-feature reference array for array."""

    @pytest.mark.parametrize("features", FEATURE_SETS)
    def test_decision_tree(self, synthetic_features, features):
        xs, y = synthetic_features
        x = xs[features]
        tree = DecisionTree(ClassifierSpec(kind="dt", seed=5)).fit(x, y)
        assert_same_tree(tree, _ref_tree_arrays(_ref_grow_tree(x, y, None, None), y.shape[1]))

    @pytest.mark.parametrize("features", FEATURE_SETS)
    def test_random_forest(self, synthetic_features, features):
        xs, y = synthetic_features
        x = xs[features]
        spec = ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 30}, seed=11)
        forest = RandomForest(spec).fit(x, y)
        want = _ref_forest_arrays(x, y, 30, 11)
        assert len(forest.trees) == len(want)
        for tree, arrays in zip(forest.trees, want):
            assert_same_tree(tree, arrays)

    def test_block_size_does_not_change_trees(self, synthetic_features, monkeypatch):
        xs, y = synthetic_features
        x = xs["tfidf-pca-on"]
        whole = DecisionTree().fit(x, y)
        monkeypatch.setattr(tree_module, "SPLIT_BLOCK_CELLS", 1)  # one feature per block
        blocked = DecisionTree().fit(x, y)
        assert_same_tree(blocked, [whole.feature, whole.threshold, whole.left, whole.right, whole.value])


class TestTreeArrays:
    def test_preorder_layout(self):
        model = DecisionTree().fit(XOR_X, XOR_Y)
        np.testing.assert_array_equal(model.feature, [0, 1, -1, -1, 1, -1, -1])
        np.testing.assert_array_equal(model.left, [1, 2, -1, -1, 5, -1, -1])
        np.testing.assert_array_equal(model.right, [4, 3, -1, -1, 6, -1, -1])
        np.testing.assert_array_equal(model.value[:, 0], [0, 0, 0, 1, 0, 1, 0])
        assert model.depth() == 2

    def test_trees_of_counts_every_member(self, rng):
        x, y = random_problem(rng, n=30, d=4)
        members = (
            ClassifierSpec(kind="knn"),
            ClassifierSpec(kind="dt"),
            ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 4}),
        )
        voting = fit(ClassifierSpec(kind="voting", members=members), x, y)
        trees = trees_of(voting)
        assert trees[0] is voting.members[1]
        assert trees[1:] == voting.members[2].trees
        assert trees_of(voting.members[0]) == []


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ClassifierSpec(kind="xgboost")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ConfigError, match="unknown hyperparameters"):
            ClassifierSpec(kind="dt", hyperparameters={"max_leaves": 3})

    def test_members_only_for_voting(self):
        inner = ClassifierSpec(kind="dt")
        with pytest.raises(ConfigError, match="members"):
            ClassifierSpec(kind="dt", members=(inner,))
        with pytest.raises(ConfigError, match="member"):
            ClassifierSpec(kind="voting")
