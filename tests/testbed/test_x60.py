"""X60 link emulation tests."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.env.geometry import Point
from repro.env.placement import RadioPose
from repro.env.rooms import make_corridor, make_lobby
from repro.phy.antenna import sibeam_codebook
from repro.phy.blockage import HumanBlocker
from repro.phy.interference import Interferer
from repro.testbed.traces import StateMeasurement
from repro.testbed.x60 import TOF_MIN_SNR_DB, X60Link


@pytest.fixture(scope="module")
def link() -> X60Link:
    return X60Link(make_lobby(), RadioPose(Point(2.0, 6.0), 0.0))


@pytest.fixture(scope="module")
def rx() -> RadioPose:
    return RadioPose(Point(10.0, 6.0), 180.0)


class TestChannelState:
    def test_rays_present(self, link, rx):
        state = link.channel_state(rx)
        assert state.rays
        assert state.rays[0].order == 0  # LOS strongest in a clear lobby

    def test_blockers_raise_loss(self, link, rx):
        rng = np.random.default_rng(0)
        clear = link.channel_state(rx, rng=rng)
        blocker = HumanBlocker(Point(6.0, 6.0), 0.0, 25.0)
        blocked = link.channel_state(rx, blockers=[blocker], rng=rng)
        los_clear = next(r for r in clear.rays if r.order == 0)
        los_blocked = next(r for r in blocked.rays if r.order == 0)
        assert los_blocked.loss_db == pytest.approx(los_clear.loss_db + 25.0)

    def test_interference_field_attached(self, link, rx):
        state = link.channel_state(
            rx, interferer=Interferer(Point(14.0, 7.0), "medium")
        )
        assert state.interference is not None


class TestSectorSweep:
    def test_noiseless_sweep_deterministic(self, link, rx):
        state = link.channel_state(rx)
        first = link.sector_sweep(state, rx, rng=None)
        second = link.sector_sweep(state, rx, rng=None)
        assert first == second

    def test_facing_link_picks_on_axis_beams(self, link, rx):
        state = link.channel_state(rx)
        tx_beam, rx_beam, snr = link.sector_sweep(state, rx, rng=None)
        assert abs(link.codebook[tx_beam].steering_deg) <= 10.0
        assert abs(link.codebook[rx_beam].steering_deg) <= 10.0
        assert snr > 15.0

    def test_sweep_ranks_by_signal_not_sinr(self, link, rx):
        """An interferer must not steer the sweep (preamble-correlation
        SNR is interference-robust)."""
        clear_state = link.channel_state(rx)
        clear_pick = link.sector_sweep(clear_state, rx, rng=None)[:2]
        noisy_state = link.channel_state(
            rx, interferer=Interferer(Point(13.0, 6.5), "high"),
            operating_pair=clear_pick,
        )
        assert link.sector_sweep(noisy_state, rx, rng=None)[:2] == clear_pick

    def test_sweep_noise_changes_picks_sometimes(self, link, rx):
        state = link.channel_state(rx)
        rng = np.random.default_rng(0)
        picks = {
            link.sector_sweep(state, rx, rng, snr_noise_std_db=2.0)[:2]
            for _ in range(30)
        }
        assert len(picks) > 1


class TestMeasure:
    def test_record_fields(self, link, rx):
        rng = np.random.default_rng(0)
        state = link.channel_state(rx, rng=rng)
        t, r, _ = link.sector_sweep(state, rx)
        m = link.measure(state, rx, t, r, rng)
        assert m.room_name == "lobby"
        assert (m.tx_beam, m.rx_beam) == (t, r)
        assert m.pdp.sum() == pytest.approx(1.0)
        assert m.cdr.shape == (9,)
        assert 0.0 <= m.cdr.min() and m.cdr.max() <= 1.0

    def test_snr_jitter_is_small(self, link, rx):
        rng = np.random.default_rng(1)
        state = link.channel_state(rx, rng=rng)
        t, r, _ = link.sector_sweep(state, rx)
        readings = [link.measure(state, rx, t, r, rng).snr_db for _ in range(100)]
        m = link.measure(state, rx, t, r, rng)
        assert np.std(readings) < 1.0
        assert abs(np.mean(readings) - m.true_snr_db) < 0.3

    def test_weak_signal_reports_infinite_tof(self, link):
        far_rx = RadioPose(Point(19.5, 11.5), 90.0)  # corner, facing a wall
        rng = np.random.default_rng(2)
        state = link.channel_state(far_rx, rng=rng)
        # Deliberately measure a badly misaligned pair.
        m = link.measure(state, far_rx, 0, 24, rng)
        if m.true_snr_db < TOF_MIN_SNR_DB:
            assert math.isinf(m.tof_ns)

    def test_throughput_consistent_with_cdr(self, link, rx):
        rng = np.random.default_rng(3)
        state = link.channel_state(rx, rng=rng)
        m = link.measure(state, rx, 12, 12, rng)
        from repro.phy.error_model import phy_rate_mbps

        for mcs in range(9):
            assert m.throughput_mbps[mcs] == pytest.approx(
                phy_rate_mbps(mcs) * m.cdr[mcs], rel=1e-6
            )


def _bits(m: StateMeasurement) -> tuple:
    """Every field of a record, each float spelled exactly by float.hex."""

    def exact(value):
        if isinstance(value, np.ndarray):
            return tuple(float(x).hex() for x in value)
        if isinstance(value, float):
            return value.hex()
        return value

    return tuple(exact(getattr(m, f.name)) for f in dataclasses.fields(m))


PINNED_SWEEP_BETWEEN_MEASURES = (
    "5b957d71e6d07efe86478614e8a8095d73a1ce8b4a5a13a57b87e4a7cf587683"
)


class TestMeasurementMemo:
    """``measure`` memoises its rng-free link budget on the state; each
    record must equal, bit for bit, the one a state with no memo gives."""

    @pytest.mark.parametrize("swept", [False, True])
    @pytest.mark.parametrize(
        "interferer", [None, Interferer(Point(14.0, 7.0), "medium")]
    )
    def test_repeated_measures_match_fresh_states(self, link, rx, swept, interferer):
        def fresh():
            state = link.channel_state(
                rx, interferer=interferer, rng=np.random.default_rng(5)
            )
            if swept:
                link.sector_sweep(state, rx)
            return state

        state = fresh()
        t, r, _ = link.sector_sweep(fresh(), rx)
        memo_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        memoised = [_bits(link.measure(state, rx, t, r, memo_rng)) for _ in range(6)]
        reference = [_bits(link.measure(fresh(), rx, t, r, ref_rng)) for _ in range(6)]
        assert memoised == reference

    def test_sweep_between_measures_reads_the_swept_rows(self, link):
        # At this pose the sweep's cached gain rows move the pair's true SNR
        # in the last ulp, so a memo that ignored its gain source would
        # return the unswept budget after the sweep.
        rx = RadioPose(Point(8.0, 4.0), 135.0)
        state = link.channel_state(rx, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        before = link.measure(state, rx, 9, 18, rng)
        link.sector_sweep(state, rx)
        after = link.measure(state, rx, 9, 18, rng)
        assert before.true_snr_db != after.true_snr_db

        ref_rng = np.random.default_rng(1)
        unswept = link.channel_state(rx, rng=np.random.default_rng(0))
        swept = link.channel_state(rx, rng=np.random.default_rng(0))
        link.sector_sweep(swept, rx)
        reference = [
            _bits(link.measure(unswept, rx, 9, 18, ref_rng)),
            _bits(link.measure(swept, rx, 9, 18, ref_rng)),
        ]
        assert [_bits(before), _bits(after)] == reference
        # Captured at 33cc5be, before measure() had a memo.
        digest = hashlib.sha256(repr(reference).encode()).hexdigest()
        assert digest == PINNED_SWEEP_BETWEEN_MEASURES

    @pytest.mark.parametrize(
        "variant",
        [
            {"tx_power_dbm": 10.0},
            {"tx": RadioPose(Point(2.0, 6.0), 20.0)},
            {"codebook": sibeam_codebook(seed=61)},
            {"rx_orientation_deg": 200.0},
        ],
        ids=["tx_power", "tx_orientation", "codebook", "rx_orientation"],
    )
    def test_each_link_and_rx_pose_keeps_its_own_record(self, link, rx, variant):
        # A second link (or Rx heading) alternates with the first on one state.
        variant = dict(variant)
        heading = variant.pop("rx_orientation_deg", rx.orientation_deg)
        other = dataclasses.replace(link, **variant)
        other_rx = RadioPose(rx.position, heading)
        state = link.channel_state(rx, rng=np.random.default_rng(0))
        memo_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        memoised, reference = [], []
        for current, pose in ((link, rx), (other, other_rx)) * 2:
            memoised.append(_bits(current.measure(state, pose, 12, 12, memo_rng)))
            fresh = link.channel_state(rx, rng=np.random.default_rng(0))
            reference.append(_bits(current.measure(fresh, pose, 12, 12, ref_rng)))
        assert memoised == reference
        assert memoised[0][4] != memoised[1][4]  # true_snr_db

    def test_mutating_a_record_cannot_reach_the_next(self, link, rx):
        state = link.channel_state(rx, rng=np.random.default_rng(0))
        memo_rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        first = link.measure(state, rx, 12, 12, memo_rng)
        for array in (first.pdp, first.cdr, first.throughput_mbps):
            array[:] = -1.0
        second = link.measure(state, rx, 12, 12, memo_rng)

        def fresh():
            return link.channel_state(rx, rng=np.random.default_rng(0))

        link.measure(fresh(), rx, 12, 12, ref_rng)
        assert _bits(second) == _bits(link.measure(fresh(), rx, 12, 12, ref_rng))


class TestLinkBudgetShape:
    def test_snr_decays_with_distance(self):
        corridor = make_corridor(3.2, length=30.0)
        link = X60Link(corridor, RadioPose(Point(0.5, 1.6), 0.0))
        snrs = []
        for x in (3.0, 10.0, 20.0, 28.0):
            rx = RadioPose(Point(x, 1.6), 180.0)
            rng = np.random.default_rng(0)
            state = link.channel_state(rx, rng=rng)
            tx_beam, rx_beam, _ = link.sector_sweep(state, rx)
            snrs.append(link.measure(state, rx, tx_beam, rx_beam, rng).true_snr_db)
        assert snrs == sorted(snrs, reverse=True)
        assert snrs[0] > 25.0  # top MCS up close
        assert snrs[-1] < snrs[0] - 10.0
