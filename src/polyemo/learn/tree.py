"""Multi-output CART decision tree and bagged random forest.

Node impurity is the sum of per-label binary Gini values, so one tree
predicts all six emotion outputs jointly. Splits are axis-aligned
thresholds at midpoints between adjacent distinct feature values; the best
split minimizes weighted child impurity, with ties broken toward the lowest
feature index and lowest threshold. A node splits as long as it is impure
and a valid split exists, which lets the tree solve XOR-like label patterns
whose first split has zero immediate gain.

Array layout. A fitted tree is four flat arrays indexed by node id, with
nodes numbered in preorder (a node, then its left subtree, then its right
subtree; the root is 0): ``feature`` (int64, -1 at a leaf), ``threshold``
(float64, 0.0 at a leaf), ``right`` (int64 child id, -1 at a leaf) and
``value`` (int64, ``(n_nodes, n_labels)``, the 0/1 prediction at a leaf and
zeros elsewhere). In preorder a node's left child is ``node + 1``, so no
array holds it. Samples with ``x[feature] <= threshold`` go left. A random
forest is the same four arrays with its trees concatenated in fit order,
right child ids made global (a tree's ids are offset by the node count of
the trees before it), plus ``sizes``, the node count of each tree; tree
``t`` has its root at ``sizes[:t].sum()``. The model file stores only what
cannot be derived: the feature, threshold and right child of each internal
node, one node-kind bit per node and the packed leaf values, plus a
forest's ``sizes`` (see ``serialize``); a forest is six arrays whatever its
tree count.

Prediction. One walker serves both models: every (tree, row) pair starts at
its tree's root and all pairs step down one level per iteration until they
sit on leaves, in blocks of ``PREDICT_BLOCK_ROWS`` rows so memory stays
bounded. A decision tree is the walk with one root; a forest sums the leaf
values of its trees, exactly, in integers.

Split search. A fit makes one feature-major (features, rows) copy of ``x``,
so a node gathers its candidate columns as contiguous rows, argsorts each
row and compares neighbouring sorted values. ``np.nonzero`` of that mask
lists the cuts between distinct values in feature-major order (lowest
column, then lowest position), which is the tie order, and only those cuts
are scored: their left label counts are read from an integer cumsum of the
labels in sorted order, and the left and right children are evaluated as
one stacked array. A node's row order does not matter, so the argsort need
not be stable and a child keeps its rows in its parent's sorted order: only
integer label counts at cuts between distinct values enter the expression,
and those do not depend on how tied rows are ordered. The chosen cut's left
counts are passed down, so a child knows its label counts, and a leaf its
value, without reading ``y``. Columns are scored in blocks of at most
``SPLIT_BLOCK_CELLS`` (column x row x label) cells, so memory stays bounded
on wide inputs; an earlier block keeps a tie against a later one. The
threshold is the midpoint of the two values around the cut; where that
midpoint rounds up to the upper value or overflows to infinity, the lower
value is used instead, as scikit-learn does, so every split separates its
rows.

Bit-exactness rule. Fitted trees do not depend on how the search is
vectorized: the weighted child impurity is evaluated with one fixed
elementwise expression and order of operations,
``g = 2 * sum_labels(pos * (n - pos) / n) / n`` per child, then
``n_left * g_left + n_right * g_right``. Bootstrap duplicates produce near-ties
between candidate splits, so an algebraically equal rewrite (for example
``2 * (sum_left / n_left + sum_right / n_right)``) rounds differently and
changes which split wins. Feature subsets are drawn with ``rng.choice`` once
per splittable node, in depth-first (left before right) order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import ClassifierSpec, check_input_dim, validate_training_data

SPLIT_BLOCK_CELLS = 32768
PREDICT_BLOCK_ROWS = 1024


def _best_split(xt, y, idx, features, counts):
    """The best split of the node holding rows ``idx``, or None.

    ``xt`` is the feature-major (features, rows) training matrix, ``y`` the
    0/1 label matrix, ``features`` the node's candidate columns (ascending)
    and ``counts`` its per-label positive totals. Returns (feature,
    threshold, left rows, right rows, left counts).
    """
    n = idx.size
    n_labels = counts.size
    step = max(1, SPLIT_BLOCK_CELLS // (n * n_labels))
    best = None
    for start in range(0, features.size, step):
        block = features[start : start + step, None]
        # the order within ties is free: only counts at distinct cuts are used
        order = xt[block, idx].argsort(axis=1)
        rows = idx[order]  # (b, n): the node's rows in each column's value order
        vs = xt[block, rows]
        # the cuts between distinct values, feature-major: lowest column first
        j, pos = (vs[:, :-1] < vs[:, 1:]).nonzero()
        m = j.size
        if m == 0:
            continue
        left = y.take(rows, axis=0).cumsum(axis=1)[j, pos]  # label counts left of each cut
        # the children stacked (left, right) on the first axis
        size = np.empty((2, m))
        np.add(pos, 1.0, out=size[0])
        np.subtract(n, size[0], out=size[1])
        positives = np.empty((2, m, n_labels))
        positives[0] = left
        np.subtract(counts, left, out=positives[1])
        # g = 2 * sum_labels(pos * (n - pos) / n) / n, then n * g summed over
        # the children; in place, but with the operations of the docstring
        sz = size[:, :, None]
        cells = sz - positives
        cells *= positives
        cells /= sz
        g = np.add.reduce(cells, axis=-1)
        g *= 2.0
        g /= size
        g *= size
        weighted = np.add.reduce(g, axis=0)
        k = int(weighted.argmin())
        if best is None or weighted[k] < best[0]:
            best = (weighted[k], block, rows, j[k], pos[k], left[k])
    if best is None:
        return None
    _, block, rows, c, p, left = best
    f = int(block[c, 0])
    lower, upper = float(xt[f, rows[c, p]]), float(xt[f, rows[c, p + 1]])
    threshold = (lower + upper) / 2.0
    if not lower <= threshold < upper:
        # the midpoint rounded up to ``upper`` or overflowed to inf: every row
        # would go left, so split at the lower value
        threshold = lower
    return f, threshold, rows[c, : p + 1], rows[c, p + 1 :], left


def _grow_tree(x, y, min_samples_split, max_depth, max_features, rng):
    """The four preorder node arrays of a tree fitted to (x, y)."""
    n_features = x.shape[1]
    n_labels = y.shape[1]
    if max_features is None:
        n_candidates = n_features
    elif max_features == "sqrt":
        n_candidates = max(1, int(np.sqrt(n_features)))
    else:
        n_candidates = max(1, min(int(max_features), n_features))
    xt = np.ascontiguousarray(x.T)
    all_features = np.arange(n_features)

    feature, threshold, right = [], [], []
    leaves, leaf_counts, leaf_sizes = [], [], []
    # (sample rows, their label counts, depth, the node whose right child this
    # is or -1 for a left child); popping in stack order visits nodes in
    # preorder, so a node's id is its pop count and a left child's is its
    # parent's plus one
    stack = [(np.arange(x.shape[0]), y.sum(axis=0), 0, -1)]
    while stack:
        idx, counts, depth, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        n = idx.size
        pure = all(c == 0 or c == n for c in counts.tolist())
        best = None
        if not (pure or n < min_samples_split or (max_depth is not None and depth >= max_depth)):
            if n_candidates < n_features:
                features = rng.choice(n_features, size=n_candidates, replace=False)
                features.sort()
            else:
                features = all_features
            best = _best_split(xt, y, idx, features, counts)
        right.append(-1)  # set when the right child is popped
        if best is None:
            feature.append(-1)
            threshold.append(0.0)
            leaves.append(node)
            leaf_counts.append(counts)
            leaf_sizes.append(n)
            continue
        f, split, left_rows, right_rows, left_counts = best
        feature.append(f)
        threshold.append(split)
        # right pushed first so the left branch is grown first (rng order)
        stack.append((right_rows, counts - left_counts, depth + 1, node))
        stack.append((left_rows, left_counts, depth + 1, -1))
    value = np.zeros((len(feature), n_labels), dtype=np.int64)
    # per-label majority at each leaf; an exact tie goes to 0
    value[leaves] = 2 * np.array(leaf_counts) > np.array(leaf_sizes)[:, None]
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=float),
        np.array(right, dtype=np.int64),
        value,
    )


def _votes(model, x) -> np.ndarray:
    """Per-row sum over ``model``'s trees of the leaf value each row reaches.

    Every (tree, row) pair walks down one level per step, all pairs at once,
    over blocks of ``PREDICT_BLOCK_ROWS`` rows.
    """
    roots = model.roots
    votes = np.zeros((x.shape[0], model.value.shape[1]), dtype=np.int64)
    for start in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
        block = x[start : start + PREDICT_BLOCK_ROWS]
        rows = np.tile(np.arange(block.shape[0]), roots.size)  # tree-major pairs
        node = np.repeat(roots, block.shape[0])
        live = np.arange(node.size)
        while live.size:
            at = node[live]
            f = model.feature[at]
            inner = f >= 0
            live, at, f = live[inner], at[inner], f[inner]
            go_left = block[rows[live], f] <= model.threshold[at]
            node[live] = np.where(go_left, at + 1, model.right[at])
        leaves = model.value[node].reshape(roots.size, block.shape[0], -1)
        votes[start : start + block.shape[0]] = leaves.sum(axis=0)
    return votes


def _depth(model) -> int:
    """Edges on the longest root-to-leaf path of any of ``model``'s trees."""
    level, frontier = 0, model.roots
    while True:
        frontier = frontier[model.feature[frontier] >= 0]
        if frontier.size == 0:
            return level
        frontier = np.concatenate([frontier + 1, model.right[frontier]])
        level += 1


class DecisionTree:
    roots = np.zeros(1, dtype=np.int64)  # the forest walk with a single root

    def __init__(self, spec: ClassifierSpec | None = None):
        self.spec = spec or ClassifierSpec(kind="dt")
        # the preorder node arrays; see the module docstring
        self.feature = self.threshold = self.right = self.value = None
        self.input_dim = 0
        self.n_labels = 0

    def fit(self, x, y, rng=None):
        x, y = validate_training_data(x, y)
        self.input_dim = x.shape[1]
        self.n_labels = y.shape[1]
        hp = self.spec.resolved_hyperparameters()
        if rng is None:
            rng = np.random.default_rng(self.spec.seed)
        self.feature, self.threshold, self.right, self.value = _grow_tree(
            x,
            y,
            min_samples_split=hp["min_samples_split"],
            max_depth=hp["max_depth"],
            max_features=hp["max_features"],
            rng=rng,
        )
        return self

    def predict(self, x) -> np.ndarray:
        x = check_input_dim(self, x)
        return _votes(self, x)

    depth = _depth


class RandomForest:
    """Bagging of multi-output trees with per-split feature subsampling, held packed (see the module docstring)."""

    def __init__(self, spec: ClassifierSpec | None = None):
        self.spec = spec or ClassifierSpec(kind="rf")
        self.feature = self.threshold = self.right = self.value = None
        self.sizes = None
        self.input_dim = 0
        self.n_labels = 0

    def fit(self, x, y):
        x, y = validate_training_data(x, y)
        self.input_dim = x.shape[1]
        self.n_labels = y.shape[1]
        hp = self.spec.resolved_hyperparameters()
        rng = np.random.default_rng(self.spec.seed)
        tree_spec = ClassifierSpec(
            kind="dt",
            hyperparameters={name: hp[name] for name in ("max_depth", "min_samples_split", "max_features")},
            seed=self.spec.seed,
        )
        n = x.shape[0]
        trees = []
        for _ in range(int(hp["n_estimators"])):
            idx = rng.integers(0, n, size=n) if hp["bootstrap"] else np.arange(n)
            trees.append(DecisionTree(tree_spec).fit(x[idx], y[idx], rng=rng))
        self._pack(trees)
        return self

    @property
    def roots(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes

    def _pack(self, trees) -> None:
        """Pack fitted ``trees``, in order, into the forest's node arrays."""
        if not trees:
            raise ConfigError("a random forest needs at least one tree")
        self.sizes = np.array([t.feature.size for t in trees], dtype=np.int64)
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        right = np.concatenate([t.right for t in trees])
        self.right = np.where(right >= 0, right + np.repeat(self.roots, self.sizes), -1)
        self.value = np.concatenate([t.value for t in trees])

    def predict(self, x) -> np.ndarray:
        x = check_input_dim(self, x)
        return (2 * _votes(self, x) > self.sizes.size).astype(np.int64)

    depth = _depth
