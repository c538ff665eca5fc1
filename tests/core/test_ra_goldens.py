"""Golden §7 steady-state rates: the byte-identity contract of RA probing.

``ra_goldens.json`` (next to this file) pins the per-frame throughput of
the first 2,000 frames after RA settles, for every trace shape in
:data:`TRACE_CASES` at the paper's backoff cap, and for the probe-backoff
ablation's link (MCS 0 delivers 2,600 Mbps, MCS 1 is dead) at caps 32 and
1.  The goldens were captured from the per-frame ``RateAdaptation.frames``
generator before it was deleted; the prefix + cycle expansion of
:func:`steady_rate_runs` must reproduce them bit for bit.  Rates are
stored run-length encoded as ``[rate, frames]`` pairs; JSON floats
round-trip exactly.

The goldens change only with an intended change of the probe machine.
Regenerate them with::

    PYTHONPATH=src python -m tests.core.test_ra_goldens --write COMMIT
"""

import json
import sys
from pathlib import Path

import pytest

from repro.constants import PROBE_BACKOFF_CAP
from repro.core.rate_adaptation import steady_rate_runs
from tests.conftest import make_traces
from tests.goldens import dumps_goldens

GOLDENS_PATH = Path(__file__).with_name("ra_goldens.json")

NUM_FRAMES = 2000

# Trace shapes that exercise every steady-state regime: a rising ladder
# (probes succeed), a cliff (probes fail, backoff grows), a plateau
# (equal rates, probes fail), the top MCS (no probe target), and a CDR
# below the ORI threshold (the probe gate never opens).
TRACE_CASES = [
    ("rising", make_traces([300, 450, 865, 1300]), 0),
    ("cliff", make_traces([300, 450, 100]), 1),
    ("plateau", make_traces([300, 300, 300]), 0),
    ("top_mcs", make_traces([100, 200, 300, 400, 500, 600, 700, 800, 900]), 8),
    ("low_cdr", make_traces([300, 450, 865], cdr_value=0.3), 1),
    ("mid_settle", make_traces([300, 450, 865, 1300, 0, 0]), 2),
]


def probe_ablation_traces():
    """MCS 0 always delivers; every probe of MCS 1 delivers nothing."""
    traces = make_traces([2600.0, 0.0], cdr_value=0.99)
    traces.cdr[1] = 0.0
    return traces


def golden_cases() -> list:
    """``(key, traces, settled MCS, backoff cap)`` of every pinned run."""
    cases = [
        (f"{name}/cap={PROBE_BACKOFF_CAP}", traces, settled, PROBE_BACKOFF_CAP)
        for name, traces, settled in TRACE_CASES
    ]
    for cap in (PROBE_BACKOFF_CAP, 1):
        cases.append((f"probe_ablation/cap={cap}", probe_ablation_traces(), 0, cap))
    return cases


def steady_rates(
    traces, settled_mcs: int, num_frames: int, probe_backoff_cap: int = PROBE_BACKOFF_CAP
) -> list:
    """The first ``num_frames`` per-frame rates of the steady-state machine."""
    prefix, cycle = steady_rate_runs(
        traces, settled_mcs, probe_backoff_cap=probe_backoff_cap
    )
    rates = list(prefix)
    while len(rates) < num_frames:
        rates.extend(cycle)
    return rates[:num_frames]


def run_length(rates: list) -> list:
    runs: list = []
    for rate in rates:
        if runs and runs[-1][0] == rate:
            runs[-1][1] += 1
        else:
            runs.append([rate, 1])
    return runs


def expand_runs(runs: list) -> list:
    return [float(rate) for rate, frames in runs for _ in range(frames)]


def capture() -> dict:
    return {
        key: run_length(steady_rates(traces, settled, NUM_FRAMES, cap))
        for key, traces, settled, cap in golden_cases()
    }


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())["records"]


def test_every_case_is_pinned():
    goldens = load_goldens()
    assert sorted(goldens) == sorted(case[0] for case in golden_cases())
    assert all(len(expand_runs(runs)) == NUM_FRAMES for runs in goldens.values())


@pytest.mark.parametrize(
    "key,traces,settled,cap", golden_cases(), ids=[c[0] for c in golden_cases()]
)
def test_steady_rate_runs_matches_goldens(key, traces, settled, cap):
    got = steady_rates(traces, settled, NUM_FRAMES, cap)
    assert got == expand_runs(load_goldens()[key])  # exact float equality


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.core.test_ra_goldens --write COMMIT")
    document = {
        "captured_at": sys.argv[2],
        "note": "RA goldens for tests/core/test_ra_goldens.py and "
                "tests/sim/test_trajectory.py::TestSteadyRateRuns: the "
                "per-frame throughput of the first 2000 steady-state frames "
                "of each trace case, run-length encoded as [rate, frames].",
        "records": capture(),
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(document['records'])} records to {GOLDENS_PATH}")
