"""Golden tree tests: the byte-identity contract of the split search.

``tree_goldens.json`` (next to this file) pins what the fixtures below
fitted at the commit recorded in it: the ``tree_to_dict`` dump of every
tree (structure, thresholds, leaf histograms, importances) and, where a
fixture predicts, ``predict_proba`` on held-out rows.  The fixtures cover
both impurities, tie-breaks between equal-gain splits, duplicated feature
values, feature subsampling and the leaf-size limits.  The flat
level-synchronous predict must also match a per-row walk of the tree.

The goldens change only with an intended change of fitting behaviour.
Regenerate them with::

    PYTHONPATH=src python -m tests.ml.test_tree_batch --write COMMIT
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ml.persistence import tree_to_dict
from repro.ml.tree import DecisionTreeClassifier
from tests.goldens import dumps_goldens

GOLDENS_PATH = Path(__file__).with_name("tree_goldens.json")


def make_data(rng, n=120, n_features=6, n_classes=3, quantize=None):
    X = rng.normal(size=(n, n_features))
    if quantize is not None:
        # Coarse grid → many duplicated values and tied candidate splits.
        X = np.round(X * quantize) / quantize
    y = rng.integers(0, n_classes, size=n).astype(object)
    return X, y


def tree_record(tree, X_test=None) -> dict:
    record = {"tree": tree_to_dict(tree)}
    if X_test is not None:
        record["proba"] = tree.predict_proba(X_test).tolist()
    return record


def random_trees(criterion, quantize) -> list:
    rng = np.random.default_rng(11)
    records = []
    for trial in range(8):
        X, y = make_data(rng, quantize=quantize)
        kwargs = dict(max_depth=8, criterion=criterion, random_state=trial)
        tree = DecisionTreeClassifier(**kwargs).fit(X, y)
        records.append(tree_record(tree, rng.normal(size=(50, X.shape[1]))))
    return records


def max_features_trees() -> list:
    X, y = make_data(np.random.default_rng(5), n=200, n_features=8)
    kwargs = dict(max_depth=10, max_features="sqrt", random_state=0)
    return [tree_record(DecisionTreeClassifier(**kwargs).fit(X, y))]


def min_samples_trees() -> list:
    X, y = make_data(np.random.default_rng(9), n=80)
    kwargs = dict(min_samples_split=10, min_samples_leaf=5)
    return [tree_record(DecisionTreeClassifier(**kwargs).fit(X, y))]


def constant_feature_trees() -> list:
    X = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.ones(10)]])
    y = np.array(["a"] * 10 + ["b"] * 10, dtype=object)
    return [tree_record(DecisionTreeClassifier().fit(X, y))]


def fixtures() -> dict:
    """Golden key → function fitting that fixture's trees."""
    cases = {
        f"random/{criterion}/quantize={quantize}":
            lambda c=criterion, q=quantize: random_trees(c, q)
        for criterion in ("gini", "entropy")
        for quantize in (None, 4)
    }
    cases["max_features"] = max_features_trees
    cases["min_samples"] = min_samples_trees
    cases["constant_feature"] = constant_feature_trees
    return cases


def capture() -> dict:
    return {key: fit() for key, fit in fixtures().items()}


def assert_records_equal(got: list, want: list):
    got = json.loads(json.dumps(got))
    assert len(got) == len(want)
    for got_record, want_record in zip(got, want):
        assert got_record["tree"] == want_record["tree"]
        assert ("proba" in got_record) == ("proba" in want_record)
        if "proba" in want_record:
            np.testing.assert_array_equal(got_record["proba"], want_record["proba"])


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())["records"]


class TestSplitterParity:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("quantize", [None, 4])
    def test_identical_trees(self, goldens, criterion, quantize):
        key = f"random/{criterion}/quantize={quantize}"
        assert_records_equal(random_trees(criterion, quantize), goldens[key])

    def test_max_features_uses_same_rng_stream(self, goldens):
        """Feature subsampling draws follow the seeded stream as pinned."""
        assert_records_equal(max_features_trees(), goldens["max_features"])

    def test_min_samples_constraints(self, goldens):
        assert_records_equal(min_samples_trees(), goldens["min_samples"])

    def test_constant_feature_and_pure_node(self, goldens):
        records = constant_feature_trees()
        assert_records_equal(records, goldens["constant_feature"])
        # The only informative feature.
        assert records[0]["tree"]["root"]["feature"] == 1

    def test_every_fixture_is_pinned(self, goldens):
        assert sorted(goldens) == sorted(fixtures())


def leaf_distribution(tree, row) -> np.ndarray:
    """Class distribution of the leaf ``row`` reaches, by walking ``root_``."""
    node = tree.root_
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.class_counts / node.class_counts.sum()


class TestBatchPredict:
    def test_matches_per_row_walk(self):
        rng = np.random.default_rng(21)
        X, y = make_data(rng, n=150)
        tree = DecisionTreeClassifier(max_depth=10, random_state=1).fit(X, y)
        X_test = rng.normal(size=(300, X.shape[1]))
        batch = tree.predict_proba(X_test)
        for i in range(len(X_test)):
            np.testing.assert_array_equal(batch[i], leaf_distribution(tree, X_test[i]))

    def test_single_node_tree(self):
        X = np.zeros((5, 2))
        y = np.array(["a", "a", "b", "a", "b"], dtype=object)
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)  # constant X → stump
        proba = tree.predict_proba(np.zeros((3, 2)))
        np.testing.assert_allclose(proba, [[0.6, 0.4]] * 3)

    def test_flat_table_rebuilt_after_refit(self):
        rng = np.random.default_rng(2)
        X, y = make_data(rng, n=60)
        tree = DecisionTreeClassifier(max_depth=6, random_state=0)
        tree.fit(X, y)
        first = tree.predict_proba(X)
        X2, y2 = make_data(rng, n=60)
        tree.fit(X2, y2)
        second = tree.predict_proba(X2)
        assert first.shape == second.shape
        # Refit on fresh data must not serve the stale flat table.
        for i in range(len(X2)):
            np.testing.assert_array_equal(second[i], leaf_distribution(tree, X2[i]))


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.ml.test_tree_batch --write COMMIT")
    document = {
        "captured_at": sys.argv[2],
        "note": "Tree goldens for tests/ml/test_tree_batch.py: "
                "repro.ml.persistence.tree_to_dict dumps and predict_proba "
                "rows, floats in shortest repr.",
        "records": capture(),
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(document['records'])} records to {GOLDENS_PATH}")
