"""Golden forest tests: the bit-exact contract of forest inference.

``forest_goldens.json`` (next to this file) pins ``predict_proba`` of
forests fitted on the seed-0 main campaign (with NA entries), as
``float.hex`` strings, for one row, 26 rows and every row of the seed-0
main and testing campaigns (the last as a SHA-256 over the hex strings).
The forests cover 1, 8 and 60 trees, both impurities, and a forest whose
bootstrap samples miss a class, so the leaf distributions of some trees
must be aligned to the forest's classes.  A saved-and-loaded forest and a
forest whose ``trees_`` were reassigned must predict bit for bit what the
source forest does.

The goldens change only with an intended change of forest behaviour.
Regenerate them with::

    PYTHONPATH=src python -m tests.ml.test_forest_goldens --write COMMIT
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dataset.builder import (
    DatasetBuildConfig,
    build_main_dataset,
    build_testing_dataset,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.persistence import load_forest, save_forest
from tests.goldens import dumps_goldens

GOLDENS_PATH = Path(__file__).with_name("forest_goldens.json")

FORESTS = {
    f"campaign/{criterion}/trees={trees}": (trees, criterion)
    for trees in (1, 8, 60)
    for criterion in ("gini", "entropy")
}
MISSING_CLASS = "missing_class/gini/trees=8"


def campaigns():
    """The seed-0 main campaign with NA entries and the testing campaign."""
    return (
        build_main_dataset(DatasetBuildConfig(include_na=True)),
        build_testing_dataset(),
    )


def fit_forest(key: str, main) -> RandomForestClassifier:
    if key == MISSING_CLASS:
        # One row of a third class among 40: about a third of the
        # bootstrap samples miss it, and their trees know only two classes.
        X = np.random.default_rng(3).normal(size=(40, 7))
        y = np.array(["RA"] * 20 + ["BA"] * 19 + ["NA"], dtype=object)
        forest = RandomForestClassifier(n_estimators=8, random_state=4)
        return forest.fit(X, y)
    trees, criterion = FORESTS[key]
    forest = RandomForestClassifier(
        n_estimators=trees, criterion=criterion, random_state=0
    )
    return forest.fit(main.feature_matrix(), main.labels())


def row_sets(main, testing) -> dict:
    every = np.vstack([main.feature_matrix(), testing.feature_matrix()])
    return {"1": every[-1:], "26": every[-26:], "all": every}


def hex_rows(proba: np.ndarray) -> list:
    return [[float(p).hex() for p in row] for row in proba]


def records(forest: RandomForestClassifier, rows: dict) -> list:
    out = []
    for name, X in rows.items():
        hexed = hex_rows(forest.predict_proba(X))
        record = {"rows": name, "n": len(X)}
        if name == "all":
            record["sha256"] = hashlib.sha256(
                json.dumps(hexed).encode()
            ).hexdigest()
        else:
            record["proba"] = hexed
        out.append(record)
    return out


def capture() -> dict:
    main, testing = campaigns()
    rows = row_sets(main, testing)
    return {
        key: records(fit_forest(key, main), rows)
        for key in [*FORESTS, MISSING_CLASS]
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())["records"]


@pytest.fixture(scope="module")
def rows(main_dataset_with_na, testing_dataset) -> dict:
    return row_sets(main_dataset_with_na, testing_dataset)


class TestForestGoldens:
    @pytest.mark.parametrize("key", [*FORESTS, MISSING_CLASS])
    def test_predict_proba_bits(self, goldens, rows, main_dataset_with_na, key):
        forest = fit_forest(key, main_dataset_with_na)
        assert records(forest, rows) == goldens[key]

    def test_missing_class_fixture_misses_a_class(self, main_dataset_with_na):
        forest = fit_forest(MISSING_CLASS, main_dataset_with_na)
        assert len(forest.classes_) == 3
        assert any(len(tree.classes_) < 3 for tree in forest.trees_)

    def test_every_fixture_is_pinned(self, goldens):
        assert sorted(goldens) == sorted([*FORESTS, MISSING_CLASS])


class TestTableFreshness:
    @pytest.fixture(scope="class")
    def forest(self, main_dataset_with_na):
        return fit_forest("campaign/gini/trees=8", main_dataset_with_na)

    def test_loaded_forest_predicts_the_same_bits(self, forest, rows, tmp_path):
        path = tmp_path / "forest.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        for X in rows.values():
            np.testing.assert_array_equal(
                loaded.predict_proba(X), forest.predict_proba(X)
            )

    def test_reassigned_trees_never_serve_the_old_table(
        self, forest, rows, main_dataset_with_na
    ):
        other = fit_forest(MISSING_CLASS, main_dataset_with_na)
        target = fit_forest("campaign/gini/trees=1", main_dataset_with_na)
        before = target.predict_proba(rows["all"])
        target.trees_ = forest.trees_
        np.testing.assert_array_equal(
            target.predict_proba(rows["all"]), forest.predict_proba(rows["all"])
        )
        assert not np.array_equal(target.predict_proba(rows["all"]), before)
        # Trees fitted on a two-of-three subset of the same classes are
        # realigned to the receiving forest's classes.
        target.trees_ = other.trees_
        np.testing.assert_array_equal(
            target.predict_proba(rows["all"]), other.predict_proba(rows["all"])
        )


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.ml.test_forest_goldens --write COMMIT")
    document = {
        "captured_at": sys.argv[2],
        "note": "Forest goldens for tests/ml/test_forest_goldens.py: "
                "predict_proba as float.hex for 1, 26 and all rows "
                "(all rows as a SHA-256 of the JSON list of hex rows).",
        "records": capture(),
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(document['records'])} records to {GOLDENS_PATH}")
