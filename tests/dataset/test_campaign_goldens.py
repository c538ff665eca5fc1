"""Golden campaigns: the byte-identity contract of the dataset builders.

``campaign_goldens.json`` (next to this file) pins one SHA-256 per session
dataset fixture (the main campaign, the main campaign with NA entries, and
the testing campaign).  Each entry contributes one line: its key fields,
label, initial MCS, and the ``float.hex`` of its initial throughput, its
features and both per-MCS trace bundles.  The fixtures are built once per
test session anyway, so this check builds no campaign of its own.

The goldens change only with an intended change of the campaigns (the
PHY, the testbed, the plans or the labels).  Regenerate them with::

    PYTHONPATH=src python -m tests.dataset.test_campaign_goldens --write COMMIT
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDENS_PATH = Path(__file__).with_name("campaign_goldens.json")

FIXTURES = ("main_dataset", "main_dataset_with_na", "testing_dataset")


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def entry_line(entry) -> str:
    return "|".join((
        entry.kind.value, entry.room, entry.position_label, entry.detail,
        str(entry.rep), entry.label.value, str(entry.initial_mcs),
        float(entry.initial_throughput_mbps).hex(),
        _hex(entry.features.to_array()),
        _hex(entry.traces_same_pair.cdr),
        _hex(entry.traces_same_pair.throughput_mbps),
        _hex(entry.traces_best_pair.cdr),
        _hex(entry.traces_best_pair.throughput_mbps),
    ))


def campaign_record(dataset) -> list:
    """``[entry count, SHA-256 over the entry lines]``."""
    text = "\n".join(entry_line(entry) for entry in dataset)
    return [len(dataset), hashlib.sha256(text.encode()).hexdigest()]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_campaign_matches_golden(request, fixture):
    goldens = json.loads(GOLDENS_PATH.read_text())["records"]
    assert campaign_record(request.getfixturevalue(fixture)) == goldens[fixture][0]


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.dataset.test_campaign_goldens --write COMMIT")
    from repro.dataset.builder import (
        DatasetBuildConfig,
        build_main_dataset,
        build_testing_dataset,
    )
    from tests.goldens import dumps_goldens

    builds = {
        "main_dataset": build_main_dataset,
        "main_dataset_with_na": lambda: build_main_dataset(
            DatasetBuildConfig(include_na=True)
        ),
        "testing_dataset": build_testing_dataset,
    }
    document = {
        "captured_at": sys.argv[2],
        "note": "Campaign goldens for tests/dataset/test_campaign_goldens.py: "
                "[entry count, SHA-256 of the float.hex entry lines] per "
                "session dataset fixture.",
        "records": {name: [campaign_record(build())] for name, build in builds.items()},
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(builds)} records to {GOLDENS_PATH}")
