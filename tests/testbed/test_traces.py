"""Measurement record tests."""

import numpy as np
import pytest

from repro.testbed.traces import (
    McsTraces,
    StateMeasurement,
    best_working_mcs,
    best_working_throughput,
)
from tests.conftest import make_traces


class TestBestWorkingMcs:
    def test_picks_highest_throughput(self):
        traces = make_traces([300, 450, 865, 1300])
        assert best_working_mcs(traces.cdr, traces.throughput_mbps) == 3

    def test_respects_cap(self):
        traces = make_traces([300, 450, 865, 1300])
        assert best_working_mcs(traces.cdr, traces.throughput_mbps, max_mcs=1) == 1

    def test_cdr_floor_enforced(self):
        cdr = np.full(9, 0.05)  # below the 10 % floor
        tput = np.full(9, 1000.0)
        assert best_working_mcs(cdr, tput) is None

    def test_throughput_floor_enforced(self):
        cdr = np.ones(9)
        tput = np.full(9, 149.0)  # below 150 Mbps
        assert best_working_mcs(cdr, tput) is None

    def test_best_is_not_always_highest_working(self):
        # MCS 3 works but delivers less than MCS 2 (partial CDR).
        cdr = np.array([1.0, 1.0, 1.0, 0.4, 0, 0, 0, 0, 0.0])
        tput = np.array([300, 450, 865, 520, 0, 0, 0, 0, 0.0])
        assert best_working_mcs(cdr, tput) == 2

    def test_throughput_helper(self):
        traces = make_traces([300, 450])
        assert best_working_throughput(traces.cdr, traces.throughput_mbps) == 450.0
        assert best_working_throughput(np.zeros(9), np.zeros(9)) == 0.0


class TestMcsTraces:
    def test_methods_delegate(self):
        traces = make_traces([300, 450, 865])
        assert traces.best_mcs() == 2
        assert traces.best_throughput() == 865.0


class TestStateMeasurement:
    def _measurement(self, tof=25.0):
        cdr = np.zeros(9)
        cdr[:3] = 1.0
        tput = np.zeros(9)
        tput[:3] = [300, 450, 865]
        return StateMeasurement(
            "room", 1, 2, 20.0, 20.0, -73.0, tof, np.zeros(256), cdr, tput
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StateMeasurement(
                "room", 0, 0, 0, 0, 0, 0, np.zeros(256), np.zeros(4), np.zeros(9)
            )

    def test_best_mcs_and_throughput(self):
        m = self._measurement()
        assert m.best_mcs() == 2
        assert m.best_throughput() == 865.0
        assert m.best_mcs(max_mcs=0) == 0

    def test_trace_accessor(self):
        trace = self._measurement().trace(1)
        assert trace.mcs == 1
        assert trace.throughput_mbps == 450.0

    def test_mcs_traces_copies(self):
        m = self._measurement()
        traces = m.mcs_traces()
        traces.cdr[0] = 0.123
        assert m.cdr[0] == 1.0  # original untouched
