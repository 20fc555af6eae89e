"""Multi-output decision tree and random forest against brute-force splitting."""

import contextlib
import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyemo.dense_features import embed_documents, load_word_vectors
from polyemo.errors import ConfigError, DataError, ShapeError
from polyemo.learn import ClassifierSpec, DecisionTree, RandomForest, fit
from polyemo.learn import tree as tree_module
from polyemo.learn.base import as_dense, validate_training_data
from polyemo.reduce import ReductionConfig, fit_pca, normalize_rows, transform_pca
from polyemo.sparse_features import TfidfModel, fit_bow, fit_tfidf, transform_tfidf
from polyemo.synthetic import build_corpus, write_word_vectors
from polyemo.tokenize import Tokenizer, TokenizerSpec, tokenize_split

from conftest import sparse_rows


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


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize(
        "x",
        [
            [[np.nextafter(1.0, 0.0)], [1.0]],  # the midpoint rounds up to 1.0
            [[1e308], [1.7e308]],  # the midpoint overflows to inf
            [[-1.7e308], [-1e308]],  # ... and to -inf
        ],
        ids=["rounds-to-upper", "overflows-up", "overflows-down"],
    )
    def test_fit_returns_when_the_midpoint_leaves_the_gap(self, x):
        # a threshold outside [lower, upper) sent every row to one child, forever
        with time_limit(5):
            model = DecisionTree().fit(x, [[0], [1]])
        assert model.feature.tolist() == [0, -1, -1]
        assert model.threshold[0] == x[0][0]  # the lower value
        np.testing.assert_array_equal(model.predict(x), [[0], [1]])

    def test_predict_dim_check(self):
        model = DecisionTree().fit(np.zeros((2, 2)), np.array([[0], [1]]))
        with pytest.raises(ShapeError):
            model.predict(np.zeros((1, 3)))

    def test_sparse_input_accepted(self):
        x = sparse_rows([[0.0, 1.0], [1.0, 0.0]])
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
        forest._pack([ones, zeros])
        np.testing.assert_array_equal(forest.predict(x), [[0], [0]])

    def test_majority_vote_odd_members(self):
        x = np.array([[0.0]])
        ones = DecisionTree().fit(x, np.array([[1]]))
        zeros = DecisionTree().fit(x, np.array([[0]]))
        forest = RandomForest(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 3}))
        forest.input_dim = 1
        forest.n_labels = 1
        forest._pack([ones, ones, zeros])
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
        assert model.sizes.size == 5
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


NODE_ARRAYS = ("feature", "threshold", "right", "value")


def tree_arrays(model):
    """Each tree of a DecisionTree or RandomForest as its node arrays, right child ids local to the tree."""
    sizes = model.sizes.tolist() if isinstance(model, RandomForest) else [model.feature.size]
    trees = []
    for root, size in zip(model.roots.tolist(), sizes, strict=True):
        feature, threshold, right, value = (getattr(model, name)[root : root + size] for name in NODE_ARRAYS)
        trees.append((feature, threshold, np.where(right >= 0, right - root, -1), value))
    return trees


def assert_same_arrays(got, want):
    """Two trees' node arrays, in ``NODE_ARRAYS`` order, of equal dtypes and values."""
    for name, a, b in zip(NODE_ARRAYS, got, want, strict=True):
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_same_tree(got, want):
    """``got``'s node arrays equal the reference's ``want``, in whose preorder the left child is node + 1."""
    feature, threshold, left, right, value = want
    inner = feature >= 0
    np.testing.assert_array_equal(left[inner], np.flatnonzero(inner) + 1, err_msg="left")
    assert_same_arrays(got, (feature, threshold, right, value))


@pytest.fixture(scope="module")
def synthetic_features(tmp_path_factory):
    """bow, tf-idf and word-vector train features of the synthetic corpus, as the runner builds them."""
    splits = build_corpus(seed=0, n_documents=600)
    seqs = tokenize_split(splits["train"], Tokenizer(TokenizerSpec()))
    vocab = fit_bow(seqs)
    table = load_word_vectors(write_word_vectors(tmp_path_factory.mktemp("vectors") / "syn.vec", seed=0))
    represented = {
        "bow": transform_tfidf(seqs, TfidfModel(vocabulary=vocab, idf=np.ones(len(vocab)), row_normalize=False)),
        "tfidf": transform_tfidf(seqs, fit_tfidf(seqs)),
        "wv": embed_documents(seqs, table)[0],
    }
    features = {}
    for name, x in represented.items():
        x = normalize_rows(x)
        features[f"{name}-pca-off"] = as_dense(x)
        features[f"{name}-pca-on"] = transform_pca(x, fit_pca(x, ReductionConfig()))
    return features, splits["train"].label_matrix()


FEATURE_SETS = ("bow-pca-off", "bow-pca-on", "tfidf-pca-off", "tfidf-pca-on", "wv-pca-off", "wv-pca-on")

# a few distinct values per column, so most adjacent sorted values tie
TIED_VALUES = st.sampled_from((-2.0, 0.0, 0.1, 0.5, 3.0))


@st.composite
def tied_problems(draw):
    """A small (x, y) drawn from few distinct rows, each repeated, with any labels."""
    d = draw(st.integers(1, 5))
    n_labels = draw(st.integers(1, 9))
    distinct = draw(st.lists(st.lists(TIED_VALUES, min_size=d, max_size=d), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=30))
    bits = st.lists(st.integers(0, 1), min_size=n_labels, max_size=n_labels)
    labels = draw(st.lists(bits, min_size=len(picks), max_size=len(picks)))
    return np.array([distinct[i] for i in picks]), np.array(labels, dtype=np.int64)


class TestBitExactAgainstReference:
    """Fitted trees equal the per-feature reference array for array."""

    @pytest.mark.parametrize("features", FEATURE_SETS)
    def test_decision_tree(self, synthetic_features, features):
        xs, y = synthetic_features
        x = xs[features]
        tree = DecisionTree(ClassifierSpec(kind="dt", seed=5)).fit(x, y)
        assert_same_tree(*tree_arrays(tree), _ref_tree_arrays(_ref_grow_tree(x, y, None, None), y.shape[1]))

    @pytest.mark.parametrize("features", FEATURE_SETS)
    def test_random_forest(self, synthetic_features, features):
        xs, y = synthetic_features
        x = xs[features]
        spec = ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 30}, seed=11)
        forest = RandomForest(spec).fit(x, y)
        for tree, arrays in zip(tree_arrays(forest), _ref_forest_arrays(x, y, 30, 11), strict=True):
            assert_same_tree(tree, arrays)

    @given(problem=tied_problems(), seed=st.integers(0, 2**16))
    def test_ties_and_duplicate_rows(self, problem, seed):
        x, y = problem
        tree = DecisionTree(ClassifierSpec(kind="dt", seed=seed)).fit(x, y)
        assert_same_tree(*tree_arrays(tree), _ref_tree_arrays(_ref_grow_tree(x, y, None, None), y.shape[1]))
        forest = RandomForest(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 5}, seed=seed)).fit(x, y)
        for tree, arrays in zip(tree_arrays(forest), _ref_forest_arrays(x, y, 5, seed), strict=True):
            assert_same_tree(tree, arrays)

    def test_one_column_blocks_keep_the_forest(self, synthetic_features, monkeypatch):
        xs, y = synthetic_features
        x = xs["tfidf-pca-off"]
        monkeypatch.setattr(tree_module, "SPLIT_BLOCK_CELLS", 1)  # one feature per block
        forest = RandomForest(ClassifierSpec(kind="rf", hyperparameters={"n_estimators": 10}, seed=11)).fit(x, y)
        for tree, arrays in zip(tree_arrays(forest), _ref_forest_arrays(x, y, 10, 11), strict=True):
            assert_same_tree(tree, arrays)

    def test_block_size_does_not_change_trees(self, synthetic_features, monkeypatch):
        xs, y = synthetic_features
        x = xs["tfidf-pca-on"]
        whole = DecisionTree().fit(x, y)
        monkeypatch.setattr(tree_module, "SPLIT_BLOCK_CELLS", 1)  # one feature per block
        blocked = DecisionTree().fit(x, y)
        assert_same_arrays(*tree_arrays(blocked), *tree_arrays(whole))


class TestTreeArrays:
    def test_preorder_layout(self):
        model = DecisionTree().fit(XOR_X, XOR_Y)
        np.testing.assert_array_equal(model.feature, [0, 1, -1, -1, 1, -1, -1])
        np.testing.assert_array_equal(model.right, [4, 3, -1, -1, 6, -1, -1])
        np.testing.assert_array_equal(model.value[:, 0], [0, 0, 0, 1, 0, 1, 0])
        assert model.depth() == 2


def _walk_one(tree, row):
    """The leaf value one row reaches in one tree's node arrays, followed node by node; left is node + 1."""
    feature, threshold, right, value = tree
    node = 0
    while feature[node] >= 0:
        node = node + 1 if row[feature[node]] <= threshold[node] else right[node]
    return value[node]


def _depth_one(tree, node=0):
    """Edges on the longest path down from ``node`` of one tree's node arrays."""
    feature, _, right, _ = tree
    if feature[node] < 0:
        return 0
    return 1 + max(_depth_one(tree, node + 1), _depth_one(tree, right[node]))


class TestPackedForest:
    def fitted(self, rng, n_estimators=9):
        x, y = random_problem(rng, n=40, d=5, n_labels=4)
        spec = ClassifierSpec(kind="rf", hyperparameters={"n_estimators": n_estimators}, seed=2)
        return RandomForest(spec).fit(x, y), x, y, np.vstack([x, rng.normal(size=(25, 5)).round(2)])

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_predict_equals_sum_of_per_tree_walks(self, rng, monkeypatch, block):
        forest, x, y, q = self.fitted(rng)
        monkeypatch.setattr(tree_module, "PREDICT_BLOCK_ROWS", block)
        votes = np.array([sum(_walk_one(t, row) for t in tree_arrays(forest)) for row in q])
        np.testing.assert_array_equal(tree_module._votes(forest, q), votes)
        np.testing.assert_array_equal(forest.predict(q), (2 * votes > 9).astype(np.int64))
        for seed in range(3):
            spec = ClassifierSpec(kind="dt", hyperparameters={"max_features": "sqrt"}, seed=seed)
            tree = DecisionTree(spec).fit(x, y)
            np.testing.assert_array_equal(tree.predict(q), [_walk_one(tree_arrays(tree)[0], row) for row in q])

    def test_depth_is_the_deepest_tree(self, rng):
        forest, *_ = self.fitted(rng)
        depths = [_depth_one(tree) for tree in tree_arrays(forest)]
        assert len(set(depths)) > 1
        assert forest.depth() == max(depths)

    def test_packed_layout(self, rng):
        _, x, y, _ = self.fitted(rng)
        trees = [DecisionTree(ClassifierSpec(kind="dt", seed=seed)).fit(x[seed:], y[seed:]) for seed in range(4)]
        forest = RandomForest()
        forest._pack(trees)
        assert forest.sizes.tolist() == [t.feature.size for t in trees]
        assert forest.feature.size == forest.sizes.sum()
        for root, tree in zip(forest.roots, trees):
            nodes = slice(root, root + tree.feature.size)
            inner = tree.feature >= 0  # right child ids are global; leaves keep -1
            np.testing.assert_array_equal(forest.right[nodes][inner], tree.right[inner] + root)
            np.testing.assert_array_equal(forest.right[nodes][~inner], -1)
        # slicing the packed trees back out is the identity
        for tree, arrays in zip(trees, tree_arrays(forest), strict=True):
            assert_same_arrays(arrays, *tree_arrays(tree))


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
