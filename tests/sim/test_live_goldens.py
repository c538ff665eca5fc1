"""Golden live sessions: the byte-identity contract of the closed loop.

``live_goldens.json`` (next to this file) pins the :class:`SessionLog` of
sessions that need no trained forest:

* LiBRA on :class:`ThresholdClassifier`, RA First and BA First, each over
  1 s of the lobby script the live benchmark runs (a blocker at ¼, cleared
  at ½, a 60° spin at ¾), at seeds 0 and 1.  RA First reaches Algorithm
  1's failed-RA → BA → second-scan branch on this script;
* the chaos session of ``tests/faults/test_chaos_session.py`` (every fault
  injector on) over 1 s;
* heavy interference killing every Block ACK, with a cheap and an
  expensive sweep, so the §7 missing-ACK rule picks BA and RA first.

Each record holds the per-frame MCS and beam pair, the actions with their
times as ``float.hex``, the delivered bytes as ``float.hex``, every
counter, and SHA-256 digests of the frame times and of the fault-event
stream.  Every ``_measure()`` draws from the session RNG, so any change to
the order of measurements moves these records.

The goldens change only with an intended change of live-loop behaviour.
Regenerate them with::

    PYTHONPATH=src python -m tests.sim.test_live_goldens --write COMMIT
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.libra import LiBRA, ThresholdClassifier
from repro.core.policies import BAFirstPolicy, RAFirstPolicy
from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_lobby
from repro.obs.trace import InMemoryTraceRecorder
from repro.phy.blockage import HumanBlocker
from repro.phy.interference import Interferer
from repro.sim.live import LinkEvent, LiveSession
from repro.testbed.x60 import X60Link
from tests.faults.test_chaos_session import chaos_session
from tests.goldens import dumps_goldens

GOLDENS_PATH = Path(__file__).with_name("live_goldens.json")

DURATION_S = 1.0
POLICIES = {
    "LiBRA-threshold": lambda: LiBRA(ThresholdClassifier()),
    "RA First": RAFirstPolicy,
    "BA First": BAFirstPolicy,
}
COUNTERS = (
    "sweeps", "ra_repairs", "missing_acks", "rejected_feedback",
    "stale_rejected", "fallback_decisions", "sweep_failures",
)


def lobby_session(policy, seed: int, ba_overhead_s: float = 5e-3) -> LiveSession:
    link = X60Link(make_lobby(), RadioPose(Point(2.0, 6.0), 0.0))
    return LiveSession(
        link, policy, RadioPose(Point(9.0, 6.0), 180.0),
        ba_overhead_s=ba_overhead_s, seed=seed,
    )


def lobby_script(duration_s: float) -> list:
    blocker = HumanBlocker(Point(5.5, 6.0), 0.0, 25.0)
    return [
        LinkEvent(at_s=duration_s / 4, blockers=(blocker,)),
        LinkEvent(at_s=duration_s / 2, clear_blockers=True),
        LinkEvent(at_s=duration_s * 3 / 4, rx=RadioPose(Point(9.0, 6.0), 240.0)),
    ]


def _sha256(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def session_record(session: LiveSession, events=(), recorder=None) -> dict:
    recorder = InMemoryTraceRecorder() if recorder is None else recorder
    log = session.run(DURATION_S, events, recorder=recorder)
    return {
        "mcs": list(log.mcs),
        "beam_pairs": [list(pair) for pair in log.beam_pairs],
        "actions": [[at_s.hex(), action.value] for at_s, action in log.actions],
        "bytes_delivered": log.bytes_delivered.hex(),
        "counters": {name: getattr(log, name) for name in COUNTERS},
        "frame_times_sha256": _sha256([t.hex() for t in log.frame_times_s]),
        "fault_events_sha256": _sha256([e.to_dict() for e in recorder.events]),
    }


def scripted(policy_name: str, seed: int) -> dict:
    session = lobby_session(POLICIES[policy_name](), seed)
    return session_record(session, lobby_script(DURATION_S))


def chaos() -> dict:
    session, _plan = chaos_session()
    recorder = InMemoryTraceRecorder()
    session.link.recorder = recorder  # the injected faults join the stream
    session.policy.model.recorder = recorder
    return session_record(session, recorder=recorder)


def heavy_interference(ba_overhead_s: float) -> dict:
    session = lobby_session(LiBRA(ThresholdClassifier()), 1, ba_overhead_s)
    interferer = Interferer(Point(5.5, 6.4), "medium")
    return session_record(
        session, [LinkEvent(at_s=DURATION_S / 2, interferer=interferer)]
    )


def fixtures() -> dict:
    """Golden key → function running that fixture's session."""
    cases = {
        f"script/{name}/seed={seed}": lambda n=name, s=seed: scripted(n, s)
        for name in POLICIES
        for seed in (0, 1)
    }
    cases["chaos/seed=0"] = chaos
    for ba_overhead_s in (0.5e-3, 150e-3):
        cases[f"heavy-interference/ba_overhead_s={ba_overhead_s!r}"] = (
            lambda b=ba_overhead_s: heavy_interference(b)
        )
    return cases


def capture() -> dict:
    return {key: [run()] for key, run in fixtures().items()}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())["records"]


@pytest.mark.parametrize("key", sorted(fixtures()))
def test_session_matches_golden(goldens, key):
    assert [fixtures()[key]()] == goldens[key]


def test_every_fixture_is_pinned(goldens):
    assert sorted(goldens) == sorted(fixtures())


@pytest.mark.parametrize("seed", [0, 1])
def test_ra_first_goldens_pin_the_second_scan(goldens, seed):
    """RA First never answers BA, so every sweep in its log is the
    fallback of a failed RA scan, which the second scan then follows."""
    [record] = goldens[f"script/RA First/seed={seed}"]
    assert record["counters"]["sweeps"] > 0
    assert all(action == "RA" for _, action in record["actions"])


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.sim.test_live_goldens --write COMMIT")
    document = {
        "captured_at": sys.argv[2],
        "note": "Live-session goldens for tests/sim/test_live_goldens.py: "
                "SessionLog MCS/beam-pair series, actions and bytes "
                "(float.hex), counters, and SHA-256 of the frame times and "
                "the fault-event stream.",
        "records": capture(),
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(document['records'])} records to {GOLDENS_PATH}")
