"""CART decision tree with Gini or entropy impurity (paper §6.2).

A standard binary classification/regression-tree classifier:

* exhaustive split search over (feature, threshold) candidates, where the
  thresholds are midpoints between consecutive sorted unique values;
* Gini index or Shannon entropy impurity, selectable like in the paper
  ("we tried two impurity measures: Gini index and entropy");
* ``max_depth`` and ``min_samples_split``/``min_samples_leaf`` regularisers
  ("we also limited the maximum depth of the trees to reduce overfitting");
* optional per-split feature subsampling (``max_features``) so the same
  tree powers the random forest;
* accumulated impurity decrease per feature → Gini importances (Table 3).

The split search presorts: each feature is sorted once per fit, and the
per-feature sorted row order is kept alive down the tree by partitioning
it at every split.  All candidate thresholds of all candidate features are
scored in a single NumPy pass using one-hot label prefix sums, so a node
costs O(n·k·c) vectorised work instead of a Python loop per candidate.
Ties between equal-gain splits go to the first candidate: the lowest
threshold of the earliest-drawn feature.  The fitted trees pinned in
``tests/ml/tree_goldens.json`` define the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import Estimator, check_Xy
from repro.obs.metrics import get_metrics


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    class_counts: Optional[np.ndarray] = None  # set on leaves

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return -float(np.sum(p * np.log2(p)))


_IMPURITIES = {"gini": _gini, "entropy": _entropy}


@dataclass(frozen=True)
class NodeTable:
    """Flat routing arrays of one or more trees, concatenated.

    Node ``i`` sends a row to ``children[i, 1]`` when
    ``x[feat[i]] <= thr[i]`` and to ``children[i, 0]`` otherwise (NaN
    included), so the boolean test itself indexes the child.  A leaf
    routes to itself on both sides and stores ``feat == 0`` so its gather
    stays in bounds; a walk can therefore take a fixed ``depth`` steps
    without dropping the rows that already reached a leaf.  ``proba[i]``
    is node ``i``'s class distribution, ``roots[t]`` the node where tree
    ``t`` starts, ``depth`` the deepest tree's depth and ``n_features``
    the number of feature columns the walk reads.
    """

    feat: np.ndarray
    thr: np.ndarray
    children: np.ndarray
    proba: np.ndarray
    roots: np.ndarray
    depth: int
    n_features: int


def flatten_tree(root: _Node) -> NodeTable:
    """One tree's :class:`NodeTable`, nodes in breadth-first order."""
    nodes: list[_Node] = [root]
    depths = [0]
    feat: list[int] = []
    thr: list[float] = []
    children: list[tuple[int, int]] = []
    for i, node in enumerate(nodes):  # ``nodes`` grows while we walk it
        if node.is_leaf:
            feat.append(0)
            thr.append(0.0)
            children.append((i, i))
        else:
            feat.append(node.feature)
            thr.append(node.threshold)
            children.append((len(nodes) + 1, len(nodes)))  # (right, left)
            nodes += (node.left, node.right)
            depths += (depths[i] + 1,) * 2
    counts = np.array([node.class_counts for node in nodes])
    # An empty child (possible when a midpoint threshold collides with the
    # next value) has an all-zero histogram and gets a NaN row.
    with np.errstate(invalid="ignore", divide="ignore"):
        proba = counts / counts.sum(axis=1, keepdims=True)
    return NodeTable(
        feat=np.array(feat, dtype=np.intp),
        thr=np.array(thr, dtype=float),
        children=np.array(children, dtype=np.intp),
        proba=proba,
        roots=np.zeros(1, dtype=np.intp),
        depth=max(depths),
        n_features=max(feat) + 1,
    )


def leaf_distributions(table: NodeTable, X: np.ndarray) -> np.ndarray:
    """The leaf class distribution of every (tree, row) pair.

    Returns ``(trees, rows, classes)``.  All pairs advance together, one
    level per step, for exactly ``table.depth`` steps.
    """
    n_rows, n_features = X.shape
    if n_features < table.n_features:
        raise ValueError(
            f"X has {n_features} features but the trees read "
            f"{table.n_features}"
        )
    flat = X.ravel()
    children = table.children.ravel()
    n_trees = len(table.roots)
    row_start = np.tile(np.arange(n_rows) * n_features, n_trees)
    node = np.repeat(table.roots, n_rows)
    for _ in range(table.depth):
        go_left = flat[row_start + table.feat[node]] <= table.thr[node]
        node = children[2 * node + go_left]
    return table.proba[node].reshape(n_trees, n_rows, -1)


class DecisionTreeClassifier(Estimator):
    """CART classifier.

    Args:
        max_depth: Depth cap (``None`` = grow until pure).
        criterion: ``"gini"`` or ``"entropy"``.
        min_samples_split: Nodes smaller than this become leaves.
        min_samples_leaf: Splits leaving fewer samples on a side are
            rejected.
        max_features: Per-split feature subsample size — ``None`` (all),
            an int, or ``"sqrt"``.  Random forests pass ``"sqrt"``.
        random_state: Seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        criterion: str = "gini",
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: Optional[int] = None,
    ):
        if criterion not in _IMPURITIES:
            raise ValueError(f"criterion must be one of {sorted(_IMPURITIES)}")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.criterion = criterion
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self.root_: Optional[_Node] = None
        self.feature_importances_: Optional[np.ndarray] = None
        self._n_features = 0
        self._table: Optional[NodeTable] = None

    # -- fitting -----------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        with get_metrics().span("ml.tree.fit"):
            return self._fit(X, y)

    def _fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self._n_features = X.shape[1]
        self._impurity = _IMPURITIES[self.criterion]
        self._rng = np.random.default_rng(self.random_state)
        self._importance_raw = np.zeros(self._n_features)
        self._table = None
        self._y = y_encoded
        self._n_total = X.shape[0]
        self._n_classes = len(self.classes_)
        onehot = np.zeros((self._n_total, self._n_classes), dtype=np.int64)
        onehot[np.arange(self._n_total), y_encoded] = 1
        self._onehot = onehot
        # One stable sort per feature for the whole fit; children inherit
        # sorted order by partitioning (stable, so ties keep ascending
        # original-row order — exactly what a per-node stable argsort of
        # the subset would produce).
        order = np.argsort(X, axis=0, kind="stable")
        cols = np.ascontiguousarray(order.T)
        vals = np.ascontiguousarray(np.take_along_axis(X, order, axis=0).T)
        try:
            self.root_ = self._grow(cols, vals, depth=0)
        finally:
            del self._y, self._onehot
        total = self._importance_raw.sum()
        self.feature_importances_ = (
            self._importance_raw / total if total > 0 else self._importance_raw.copy()
        )
        return self

    def _features_for_split(self) -> np.ndarray:
        if self.max_features is None:
            return np.arange(self._n_features)
        if self.max_features == "sqrt":
            k = max(1, int(math.isqrt(self._n_features)))
        else:
            k = min(int(self.max_features), self._n_features)
        return self._rng.choice(self._n_features, size=k, replace=False)

    def _grow(self, cols: np.ndarray, vals: np.ndarray, depth: int) -> _Node:
        """Grow a subtree from per-feature sorted row indices/values.

        ``cols[f]`` lists this node's rows (indices into the fit arrays)
        sorted by feature ``f``; ``vals[f]`` is the matching sorted values.
        """
        n_node = cols.shape[1]
        counts = np.bincount(self._y[cols[0]], minlength=self._n_classes)
        node = _Node(class_counts=counts)
        if (
            n_node < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == n_node  # pure node
        ):
            return node
        split = self._best_split(cols, vals, counts)
        if split is None:
            return node
        feature, threshold, gain = split
        self._importance_raw[feature] += gain * n_node
        node.feature = feature
        node.threshold = threshold
        # ``vals[feature]`` is sorted, so the rows with value <= threshold
        # are exactly a prefix of that feature's order.
        j = int(np.searchsorted(vals[feature], threshold, side="right"))
        member = np.zeros(self._n_total, dtype=bool)
        member[cols[feature, :j]] = True
        mask = member[cols]
        n_f = cols.shape[0]
        node.left = self._grow(
            cols[mask].reshape(n_f, j), vals[mask].reshape(n_f, j), depth + 1
        )
        inv = ~mask
        node.right = self._grow(
            cols[inv].reshape(n_f, n_node - j),
            vals[inv].reshape(n_f, n_node - j),
            depth + 1,
        )
        node.class_counts = counts
        return node

    def _best_split(
        self, cols: np.ndarray, vals: np.ndarray, parent_counts: np.ndarray
    ) -> Optional[tuple[int, float, float]]:
        """Vectorised split search: all thresholds of all candidate
        features scored in one pass via one-hot label prefix sums."""
        parent_impurity = self._impurity(parent_counts)
        n = cols.shape[1]
        features = self._features_for_split()
        sub_vals = vals[features]  # (c, n)
        # Prefix class counts: left[c, i] = class histogram of the first
        # i+1 rows in feature c's sorted order (candidate "split after i").
        onehot = self._onehot[cols[features]]  # (c, n, k)
        left = np.cumsum(onehot[:, :-1, :], axis=1)  # (c, n-1, k)
        right = parent_counts[None, None, :] - left
        n_left = np.arange(1, n)
        n_right = n - n_left
        size_ok = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        valid = (sub_vals[:, :-1] != sub_vals[:, 1:]) & size_ok[None, :]
        if not valid.any():
            return None
        il = self._impurity_rows(left, n_left)
        ir = self._impurity_rows(right, n_right)
        gains = parent_impurity - (n_left / n * il + n_right / n * ir)
        gains = np.where(valid, gains, -np.inf)
        # argmax takes the first maximum per feature, and features are
        # compared in draw order with a strict ``>``: the first candidate
        # wins a tie.
        arg = np.argmax(gains, axis=1)
        best: Optional[tuple[int, float, float]] = None
        best_gain = 1e-12  # require strictly positive improvement
        for c in range(len(features)):
            i = int(arg[c])
            gain = float(gains[c, i])
            if gain > best_gain:
                threshold = float((sub_vals[c, i] + sub_vals[c, i + 1]) / 2.0)
                best_gain = gain
                best = (int(features[c]), threshold, gain)
        return best

    def _impurity_rows(self, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """Row-wise impurity of ``counts`` (..., n, k) with ``totals`` (n,).

        Matches :func:`_gini` / :func:`_entropy` arithmetic exactly:
        ``p = counts / total`` first, then the impurity sum over classes.
        """
        denom = totals[:, None]
        if self.criterion == "gini":
            p = counts / denom
            return 1.0 - np.sum(p * p, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / denom
            plogp = np.where(counts > 0, p * np.log2(p), 0.0)
        return -np.sum(plogp, axis=-1)

    # -- inference ---------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        with get_metrics().span("ml.tree.predict"):
            return self._predict_proba(X)

    def _predict_proba(self, X) -> np.ndarray:
        self._require_fitted("root_")
        X, _ = check_Xy(X)
        return leaf_distributions(self.node_table(), X)[0]

    def node_table(self) -> NodeTable:
        """This tree's routing table (cached per fit)."""
        self._require_fitted("root_")
        if self._table is None:
            self._table = flatten_tree(self.root_)
        return self._table

    def depth(self) -> int:
        """Actual depth of the grown tree (0 for a stump/leaf-only tree)."""
        return self.node_table().depth
