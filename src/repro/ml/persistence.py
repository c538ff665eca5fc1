"""Model persistence: JSON round-trip for the tree-based classifiers.

LiBRA's deployment story (§7) is a vendor training a forest offline and
shipping it in firmware; that requires a portable, dependency-free model
format.  Trees serialise to nested dicts, forests to a list of trees; the
format is versioned.

Only the tree-based models are covered — they are what LiBRA deploys.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _Node

FORMAT_VERSION = 1


def _node_to_dict(node: _Node) -> dict:
    if node.is_leaf:
        return {"counts": [int(c) for c in node.class_counts]}
    return {
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "counts": [int(c) for c in node.class_counts],
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(record: dict) -> _Node:
    counts = np.array(record["counts"], dtype=float)
    if "feature" not in record:
        return _Node(class_counts=counts)
    return _Node(
        feature=int(record["feature"]),
        threshold=float(record["threshold"]),
        class_counts=counts,
        left=_node_from_dict(record["left"]),
        right=_node_from_dict(record["right"]),
    )


def tree_to_dict(tree: DecisionTreeClassifier) -> dict:
    """Serialise a fitted tree (raises ``RuntimeError`` if unfitted)."""
    tree._require_fitted("root_")
    return {
        "classes": [str(c) for c in tree.classes_],
        "root": _node_to_dict(tree.root_),
        "importances": [float(v) for v in tree.feature_importances_],
        "params": {
            "max_depth": tree.max_depth,
            "criterion": tree.criterion,
            "min_samples_split": tree.min_samples_split,
            "min_samples_leaf": tree.min_samples_leaf,
        },
    }


def tree_from_dict(record: dict) -> DecisionTreeClassifier:
    params = record.get("params", {})
    tree = DecisionTreeClassifier(
        max_depth=params.get("max_depth"),
        criterion=params.get("criterion", "gini"),
        min_samples_split=params.get("min_samples_split", 2),
        min_samples_leaf=params.get("min_samples_leaf", 1),
    )
    tree.classes_ = np.array(record["classes"])
    tree.root_ = _node_from_dict(record["root"])
    tree.feature_importances_ = np.array(record["importances"])
    return tree


def forest_to_dict(forest: RandomForestClassifier) -> dict:
    forest._require_fitted("trees_")
    return {
        "version": FORMAT_VERSION,
        "kind": "random-forest",
        "classes": [str(c) for c in forest.classes_],
        "importances": [float(v) for v in forest.feature_importances_],
        "trees": [tree_to_dict(tree) for tree in forest.trees_],
    }


def forest_from_dict(record: dict) -> RandomForestClassifier:
    version = record.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    if record.get("kind") != "random-forest":
        raise ValueError(f"not a random-forest record: {record.get('kind')!r}")
    forest = RandomForestClassifier(n_estimators=max(1, len(record["trees"])))
    forest.classes_ = np.array(record["classes"])
    forest.feature_importances_ = np.array(record["importances"])
    # Assigning ``trees_`` builds the fused inference table against
    # ``classes_``, so the classes must be in place first.
    forest.trees_ = [tree_from_dict(t) for t in record["trees"]]
    forest.n_estimators = len(forest.trees_)
    return forest


def save_forest(forest: RandomForestClassifier, path: str | Path) -> None:
    """Write a fitted forest as JSON."""
    Path(path).write_text(json.dumps(forest_to_dict(forest)))


def load_forest(path: str | Path) -> RandomForestClassifier:
    """Read a forest written by :func:`save_forest`."""
    return forest_from_dict(json.loads(Path(path).read_text()))
