"""Golden §5.2 labels: the byte-identity contract of the ground truth.

``label_goldens.json`` (next to this file) pins, at every operating point
of the grid below (α × BA overhead × FAT), the label and both link
recovery delays of five trace pairs: an RA scan that works at once, one
that descends, two that fail and need BA plus a second scan (their frame
counts make the order of the delay sums visible in the last bit), and a
dead link on both pairs.  Delays are stored as ``float.hex``, so the
check is bit for bit.  The campaign builder, ``DatasetEntry.relabel`` and
the evaluation grid all label through ``label_from_inputs``, so these
goldens pin every labelling path.

The goldens change only with an intended change of labelling behaviour.
Regenerate them with::

    PYTHONPATH=src python -m tests.core.test_label_goldens --write COMMIT
"""

import json
import sys
from pathlib import Path

from repro.core.ground_truth import (
    GroundTruthConfig,
    label_from_inputs,
    label_inputs,
    recovery_delays_s,
)
from tests.conftest import make_traces
from tests.goldens import dumps_goldens

GOLDENS_PATH = Path(__file__).with_name("label_goldens.json")

ALPHAS = (0.0, 0.5, 0.7, 1.0)
BA_OVERHEADS_S = (0.5e-3, 5e-3, 250e-3)
FRAME_TIMES_S = (2e-3, 10e-3)


def trace_pairs() -> list:
    """``(same pair, best pair, initial MCS)`` of the five entries."""
    return [
        (make_traces([300, 450, 865, 0, 0]), make_traces([300, 450, 865, 1300]), 4),
        (make_traces([300, 450, 0, 0]), make_traces([300, 450, 865]), 3),
        (make_traces([]), make_traces([300, 450]), 4),  # RA scan fails
        (make_traces([]), make_traces([300, 450, 865, 1300, 1730, 2600]), 7),
        (make_traces([]), make_traces([]), 4),          # both fail
    ]


def point_key(alpha: float, ba_overhead_s: float, frame_time_s: float) -> str:
    return f"alpha={alpha!r}/ba_overhead_s={ba_overhead_s!r}/frame_time_s={frame_time_s!r}"


def label_records(config: GroundTruthConfig) -> list:
    """Label and delays of every trace pair under ``config``."""
    records = []
    for same, best, initial_mcs in trace_pairs():
        inputs = label_inputs(same, best, initial_mcs)
        delay_ra, delay_ba = recovery_delays_s(inputs, config)
        records.append({
            "label": label_from_inputs(inputs, config).value,
            "delay_ra": delay_ra.hex(),
            "delay_ba": delay_ba.hex(),
        })
    return records


def points() -> list:
    return [
        (alpha, ba_overhead_s, frame_time_s)
        for alpha in ALPHAS
        for ba_overhead_s in BA_OVERHEADS_S
        for frame_time_s in FRAME_TIMES_S
    ]


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())["records"]


def capture() -> dict:
    return {
        point_key(*point): label_records(
            GroundTruthConfig(
                alpha=point[0], ba_overhead_s=point[1], frame_time_s=point[2]
            )
        )
        for point in points()
    }


def test_every_point_is_pinned():
    goldens = load_goldens()
    assert sorted(goldens) == sorted(point_key(*point) for point in points())
    assert all(len(records) == len(trace_pairs()) for records in goldens.values())


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.core.test_label_goldens --write COMMIT")
    document = {
        "captured_at": sys.argv[2],
        "note": "Label goldens for tests/core/test_label_goldens.py and "
                "tests/sim/test_trajectory.py::TestLabelFromInputs: the "
                "section 5.2 label and both recovery delays (float.hex) of "
                "five trace pairs at every operating point.",
        "records": capture(),
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(document['records'])} records to {GOLDENS_PATH}")
