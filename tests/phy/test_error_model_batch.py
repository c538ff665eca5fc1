"""Golden error-model tests: the byte-identity contract of the SNR → CDR →
throughput model.

``error_model_goldens.json`` (next to this file) pins, on the SNR grid
below, the CER (1 − CDR), CDR and throughput of
:func:`codeword_delivery_ratio_array`, the best (MCS, throughput) of
:func:`best_throughput_array` and of the working-MCS scan, and
:func:`required_sinr_for_drop_db` on a grid of clear SNRs at every
interference level.  Each grid is pinned as the SHA-256 of its
``float.hex`` rows, plus a sparse set of explicit rows.

The goldens also pin the scalar error-model chain (``codeword_error_rate``
… ``best_throughput_mcs``) that the array model replaced, captured before
its deletion: its digests, the largest difference from the array model
over each full grid (the contract was ≤1e-9), and its values on the sparse
rows.  The array model must still match the scalar rows to 1e-9.

The goldens change only with an intended change of the error model.
Regenerate them with::

    PYTHONPATH=src python -m tests.phy.test_error_model_batch --write COMMIT

The scalar chain no longer exists, so a rewrite re-pins the array records
and carries the scalar records over unchanged.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.constants import INTERFERENCE_DROP_LEVELS, X60_MCS_TABLE
from repro.phy.error_model import (
    best_throughput_array,
    codeword_delivery_ratio_array,
    phy_rate_mbps,
    phy_rates_mbps,
)
from repro.phy.interference import required_sinr_for_drop_db
from repro.testbed.traces import best_working_mcs, best_working_throughput
from tests.goldens import dumps_goldens

GOLDENS_PATH = Path(__file__).with_name("error_model_goldens.json")

N_MCS = len(X60_MCS_TABLE)
# Dense grid spanning both saturation plateaus, the waterfalls, and the
# exact MCS thresholds (integers land on every 0.5 dB threshold).
SNR_GRID = np.round(np.arange(-30.0, 40.0, 0.125), 6)
CLEAR_SNR_GRID = np.round(np.arange(-5.0, 45.0, 0.25), 6)
MAX_MCS_CASES = (None, 0, 4, N_MCS - 1)
SPARSE_STEP = 28
TOLERANCE = 1e-9
GRID_INDEX = {float(s).hex(): i for i, s in enumerate(SNR_GRID)}


def sparse_rows(grid) -> list:
    """Every ``SPARSE_STEP``-th index of ``grid``, plus the last."""
    return sorted(set(range(0, len(grid), SPARSE_STEP)) | {len(grid) - 1})


def digest(rows) -> str:
    """SHA-256 over one line of ``float.hex`` values per row."""
    text = "\n".join(" ".join(float(v).hex() for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def grids() -> dict:
    """Quantity → the array model's ``(len(SNR_GRID), N_MCS)`` values."""
    cdr = codeword_delivery_ratio_array(SNR_GRID)
    return {"cer": 1.0 - cdr, "cdr": cdr, "throughput": phy_rates_mbps() * cdr}


def best_rows(max_mcs) -> list:
    """``[mcs, throughput]`` per grid SNR; ``-1`` and 0.0 on a dead link.

    Without a cap this is :func:`best_throughput_array`; a cap goes
    through the working-MCS scan that ground truth uses for Th(RA) and
    Th(BA).
    """
    if max_mcs is None:
        mcs, tput = best_throughput_array(SNR_GRID)
        return [[int(m), float(t)] for m, t in zip(mcs, tput)]
    grid = grids()
    rows = []
    for cdr, tput in zip(grid["cdr"], grid["throughput"]):
        best = best_working_mcs(cdr, tput, max_mcs)
        rows.append([
            -1 if best is None else best,
            best_working_throughput(cdr, tput, max_mcs),
        ])
    return rows


def required_sinrs(level: str) -> list:
    drop = INTERFERENCE_DROP_LEVELS[level]
    return [required_sinr_for_drop_db(float(s), drop) for s in CLEAR_SNR_GRID]


def array_records() -> dict:
    """Digests and sparse rows of today's error model."""
    grid = grids()
    digests = [[f"array/{q}", digest(values)] for q, values in grid.items()]
    digests += [
        [f"array/best/max_mcs={k}", digest(best_rows(k))] for k in MAX_MCS_CASES
    ]
    digests += [
        [f"required_sinr/{level}", digest([[v] for v in required_sinrs(level)])]
        for level in INTERFERENCE_DROP_LEVELS
    ]
    sinr_rows = []
    for level in INTERFERENCE_DROP_LEVELS:
        values = required_sinrs(level)
        sinr_rows += [
            [level, float(CLEAR_SNR_GRID[i]).hex(), values[i].hex()]
            for i in sparse_rows(CLEAR_SNR_GRID)
        ]
    return {"digests": digests, "rows/required_sinr": sinr_rows}


def scalar_records() -> dict:
    """The scalar chain on the same grids; only importable before its
    deletion."""
    from repro.phy.error_model import (
        best_throughput_mcs,
        codeword_delivery_ratio,
        codeword_error_rate,
        throughput_mbps,
    )

    scalar = {
        name: np.array([[fn(float(s), m) for m in range(N_MCS)] for s in SNR_GRID])
        for name, fn in (
            ("cer", codeword_error_rate),
            ("cdr", codeword_delivery_ratio),
            ("throughput", throughput_mbps),
        )
    }
    best = {}
    for k in MAX_MCS_CASES:
        best[k] = []
        for s in SNR_GRID:
            mcs, tput = best_throughput_mcs(float(s), k)
            best[k].append([-1 if mcs is None else mcs, tput])
    array = grids()
    max_diff = [
        [q, float(np.max(np.abs(array[q] - scalar[q])))] for q in scalar
    ]
    for k in MAX_MCS_CASES:
        got = best_rows(k)
        assert [r[0] for r in got] == [r[0] for r in best[k]]
        max_diff.append([
            f"best/max_mcs={k}",
            max(abs(a[1] - b[1]) for a, b in zip(got, best[k])),
        ])
    assert all(value <= TOLERANCE for _, value in max_diff)
    return {
        "scalar/digests": (
            [[f"scalar/{q}", digest(values)] for q, values in scalar.items()]
            + [[f"scalar/best/max_mcs={k}", digest(best[k])] for k in MAX_MCS_CASES]
        ),
        "scalar/max_abs_diff": max_diff,
        "scalar/rows/grid": [
            [float(SNR_GRID[i]).hex()]
            + [[v.hex() for v in scalar[q][i]] for q in ("cer", "cdr", "throughput")]
            for i in sparse_rows(SNR_GRID)
        ],
        "scalar/rows/best": [
            [str(k), float(SNR_GRID[i]).hex(), best[k][i][0], best[k][i][1].hex()]
            for k in MAX_MCS_CASES
            for i in sparse_rows(SNR_GRID)
        ],
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())["records"]


def pinned_digest(goldens, name: str) -> str:
    return dict(goldens["digests"] + goldens["scalar/digests"])[name]


def assert_digest_matches(goldens, rows, name: str) -> None:
    """``rows`` hash to the pinned array digest, and where the scalar chain
    agreed bit for bit over the whole grid, to its digest too."""
    assert digest(rows) == pinned_digest(goldens, f"array/{name}")
    max_diff = dict(goldens["scalar/max_abs_diff"])[name]
    assert max_diff <= TOLERANCE
    if max_diff == 0.0:
        assert digest(rows) == pinned_digest(goldens, f"scalar/{name}")


def scalar_grid_rows(goldens) -> list:
    """``(grid index, {quantity: 9 scalar values})`` of the pinned rows."""
    return [
        (GRID_INDEX[snr], {
            q: [float.fromhex(v) for v in values]
            for q, values in zip(("cer", "cdr", "throughput"), columns)
        })
        for snr, *columns in goldens["scalar/rows/grid"]
    ]


class TestScalarBatchParity:
    """Each full grid is byte-identical to its golden, which agreed with the
    scalar chain to ≤1e-9 when captured; the sparse scalar rows are checked
    to 1e-9 directly."""

    def assert_grid_matches(self, goldens, quantity):
        values = grids()[quantity]
        assert values.shape == (len(SNR_GRID), N_MCS)
        assert_digest_matches(goldens, values, quantity)
        for i, scalar in scalar_grid_rows(goldens):
            np.testing.assert_allclose(
                values[i], scalar[quantity], rtol=0.0, atol=TOLERANCE
            )

    def test_cer_full_grid(self, goldens):
        self.assert_grid_matches(goldens, "cer")

    def test_cdr_full_grid(self, goldens):
        self.assert_grid_matches(goldens, "cdr")

    def test_throughput_full_grid(self, goldens):
        self.assert_grid_matches(goldens, "throughput")

    def test_saturation_is_exact(self):
        """Far from threshold the CDR is identically 0/1."""
        cdr = codeword_delivery_ratio_array(np.array([-100.0, 100.0]))
        assert (cdr[0] == 0.0).all()
        assert (cdr[1] == 1.0).all()

    def test_phy_rates_match_scalar(self):
        rates = phy_rates_mbps()
        assert rates.shape == (N_MCS,)
        for mcs in range(N_MCS):
            assert rates[mcs] == phy_rate_mbps(mcs) == X60_MCS_TABLE[mcs][3]


class TestBestThroughputParity:
    @pytest.mark.parametrize("max_mcs", MAX_MCS_CASES)
    def test_matches_scalar_scan(self, goldens, max_mcs):
        rows = best_rows(max_mcs)
        assert_digest_matches(goldens, rows, f"best/max_mcs={max_mcs}")
        for case, snr, mcs, tput in goldens["scalar/rows/best"]:
            if case != str(max_mcs):
                continue
            got_mcs, got_tput = rows[GRID_INDEX[snr]]
            assert got_mcs == mcs, f"snr={float.fromhex(snr)}"
            assert abs(got_tput - float.fromhex(tput)) <= TOLERANCE

    def test_dead_link_shape(self):
        mcs_arr, tput_arr = best_throughput_array(np.array([-50.0]))
        assert int(mcs_arr[0]) == -1
        assert float(tput_arr[0]) == 0.0

    def test_2d_input_broadcast(self):
        grid = SNR_GRID[: 2 * (len(SNR_GRID) // 2)].reshape(2, -1)
        mcs_2d, tput_2d = best_throughput_array(grid)
        mcs_1d, tput_1d = best_throughput_array(grid.ravel())
        np.testing.assert_array_equal(mcs_2d.ravel(), mcs_1d)
        np.testing.assert_array_equal(tput_2d.ravel(), tput_1d)


class TestCalibrationGoldens:
    @pytest.mark.parametrize("level", sorted(INTERFERENCE_DROP_LEVELS))
    def test_required_sinr_matches_golden(self, goldens, level):
        values = required_sinrs(level)
        assert digest([[v] for v in values]) == pinned_digest(
            goldens, f"required_sinr/{level}"
        )
        index = {float(s).hex(): i for i, s in enumerate(CLEAR_SNR_GRID)}
        for row_level, clear, sinr in goldens["rows/required_sinr"]:
            if row_level == level:
                assert values[index[clear]].hex() == sinr


def test_every_record_is_pinned(goldens):
    names = {name for name, _ in goldens["digests"]}
    assert names == {name for name, _ in array_records()["digests"]}
    assert len(goldens["scalar/rows/grid"]) == len(sparse_rows(SNR_GRID))


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit("usage: python -m tests.phy.test_error_model_batch --write COMMIT")
    records = array_records()
    try:
        records.update(scalar_records())
    except ImportError:
        previous = json.loads(GOLDENS_PATH.read_text())["records"]
        records.update({k: v for k, v in previous.items() if k.startswith("scalar/")})
    document = {
        "captured_at": sys.argv[2],
        "note": "Error-model goldens for tests/phy/test_error_model_batch.py: "
                "SHA-256 digests of float.hex rows on fixed SNR grids, sparse "
                "explicit rows, and the scalar chain's records from before "
                "its deletion.",
        "records": records,
    }
    GOLDENS_PATH.write_text(dumps_goldens(document))
    print(f"wrote {len(records)} record groups to {GOLDENS_PATH}")
