"""Random forest: bagged CART trees with per-split feature subsampling.

The paper's best model (98 % 5-fold CV accuracy, 88 % cross-building).
Gini importances — the normalised, tree-averaged impurity decrease each
feature contributes — reproduce Table 3.

Trees are fitted in order: each tree draws its seed and then its
bootstrap indices from the master RNG, and fits from its own seed.

Inference walks one fused :class:`~repro.ml.tree.NodeTable` holding every
tree's nodes, built whenever ``trees_`` is assigned.  Every (row, tree)
pair advances one level per step for the deepest tree's depth, and the
leaf distributions are summed tree by tree, in tree order, so one row and
five thousand rows take the same code path and the same arithmetic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Estimator, check_Xy
from repro.ml.tree import DecisionTreeClassifier, NodeTable, leaf_distributions
from repro.obs.metrics import get_metrics


def fuse_trees(trees: list[DecisionTreeClassifier], classes: np.ndarray) -> NodeTable:
    """Concatenate the trees' node tables into one forest table.

    Each tree's distribution columns move to the forest's ``classes``; a
    class the tree's bootstrap sample missed reads 0 at every node.
    """
    class_index = {c: i for i, c in enumerate(classes)}
    tables = [tree.node_table() for tree in trees]
    roots = np.cumsum([0] + [len(table.feat) for table in tables[:-1]])
    proba = np.zeros((roots[-1] + len(tables[-1].feat), len(classes)))
    for tree, table, root in zip(trees, tables, roots):
        columns = [class_index[c] for c in tree.classes_]
        proba[root : root + len(table.feat), columns] = table.proba
    return NodeTable(
        feat=np.concatenate([table.feat for table in tables]),
        thr=np.concatenate([table.thr for table in tables]),
        children=np.concatenate(
            [table.children + root for table, root in zip(tables, roots)]
        ),
        proba=proba,
        roots=roots.astype(np.intp),
        depth=max(table.depth for table in tables),
        n_features=max(table.n_features for table in tables),
    )


class RandomForestClassifier(Estimator):
    """Bagging ensemble of :class:`DecisionTreeClassifier`.

    Args:
        n_estimators: Number of trees.
        max_depth / criterion / min_samples_leaf: Passed to each tree.
        max_features: Per-split feature subsample (default ``"sqrt"``).
        random_state: Master seed; per-tree seeds and bootstrap samples
            derive from it.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = 12,
        criterion: str = "gini",
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        random_state: Optional[int] = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.criterion = criterion
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.classes_: Optional[np.ndarray] = None
        self.trees_ = None
        self.feature_importances_: Optional[np.ndarray] = None

    @property
    def trees_(self) -> Optional[list[DecisionTreeClassifier]]:
        return self._trees

    @trees_.setter
    def trees_(self, trees: Optional[list[DecisionTreeClassifier]]) -> None:
        # Every assignment rebuilds the fused table (against the current
        # ``classes_``), so a refit or a loaded forest never routes rows
        # through a stale one.
        self._trees = trees
        self._table = None if trees is None else fuse_trees(trees, self.classes_)

    def fit(self, X, y) -> "RandomForestClassifier":
        with get_metrics().span("ml.forest.fit"):
            return self._fit(X, y)

    def _fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(y)
        n = X.shape[0]
        trees = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                criterion=self.criterion,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            indices = rng.integers(0, n, size=n)
            trees.append(tree.fit(X[indices], y[indices]))
        self.trees_ = trees
        importances = np.zeros(X.shape[1])
        for tree in self.trees_:
            # Trees may have seen a label subset; align importance directly
            # (importances are per-feature, label-independent).
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of per-tree leaf distributions, aligned to ``classes_``."""
        with get_metrics().span("ml.forest.predict"):
            return self._predict_proba(X)

    def _predict_proba(self, X) -> np.ndarray:
        self._require_fitted("trees_")
        X, _ = check_Xy(X)
        leaves = leaf_distributions(self._table, X)
        out = np.zeros(leaves.shape[1:])
        for leaf in leaves:  # tree order; a sum over axis 0 may go pairwise
            out += leaf
        out /= len(leaves)
        return out

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def gini_importance(self) -> np.ndarray:
        """Alias matching the paper's Table 3 terminology."""
        self._require_fitted("feature_importances_")
        return self.feature_importances_
