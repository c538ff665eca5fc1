"""Figure 10 — single-impairment flows: bytes delivered vs Oracle-Data.

For every (BA overhead, FAT) combination and both flow durations (0.4 s
and 1 s), the paper plots the CDF of ``Oracle-Data bytes − policy bytes``
over the combined buildings-1-2 dataset.  Headline claims:

* LiBRA matches the oracle in ~85 % of cases (FAT 2 ms);
* "BA First" matches in 70-81 % and worsens as the BA overhead grows;
* "RA First" is worst (50-58 %), and suffers most on long flows.
"""

import numpy as np
import pytest

from repro.constants import BA_OVERHEADS_S, FRAME_AGGREGATION_TIMES_S
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig
from repro.sim.oracle import OracleData
from repro.sim.results import cdf_points, fraction_at_most

MATCH_TOLERANCE_MB = 1.0
FLOW_DURATIONS_S = (0.4, 1.0)


def run_grid(testing_dataset, make_libra, heuristics):
    """gaps[(overhead, fat, duration)][policy] = array of MB differences.

    LiBRA is retrained per operating point: the §5.2 labels depend on
    (α, BA overhead, FAT), and §8.1 assigns α per overhead regime.
    """
    entries = testing_dataset.without_na().entries
    gaps = {}
    for overhead in BA_OVERHEADS_S:
        for fat in FRAME_AGGREGATION_TIMES_S:
            config = SimulationConfig(ba_overhead_s=overhead, frame_time_s=fat)
            simulator = BatchFlowSimulator(config)
            policies = dict(heuristics)
            policies["LiBRA"] = make_libra(overhead, fat)
            for duration in FLOW_DURATIONS_S:
                oracle = OracleData(config, duration)
                cell = {name: [] for name in policies}
                for entry in entries:
                    best = simulator.simulate(oracle, entry, duration)
                    for name, policy in policies.items():
                        result = simulator.simulate(policy, entry, duration)
                        cell[name].append(
                            (best.bytes_delivered - result.bytes_delivered) / 1e6
                        )
                gaps[(overhead, fat, duration)] = {
                    name: np.array(values) for name, values in cell.items()
                }
    return gaps


def test_fig10_bytes_vs_oracle(
    benchmark, record, testing_dataset, make_libra, heuristics
):
    gaps = benchmark.pedantic(
        run_grid, args=(testing_dataset, make_libra, heuristics),
        rounds=1, iterations=1,
    )
    lines = ["Fig. 10: CDFs of Oracle-Data − policy bytes (MB)"]
    for (overhead, fat, duration), cell in gaps.items():
        lines.append(
            f"-- BA overhead {overhead * 1e3:g} ms, FAT {fat * 1e3:g} ms, "
            f"flow {duration:g} s"
        )
        for name, values in cell.items():
            match = fraction_at_most(values, MATCH_TOLERANCE_MB)
            points = cdf_points(values, num_points=5)
            series = ", ".join(f"{v:7.1f}@{p:.2f}" for v, p in points)
            lines.append(
                f"   {name:>9}: ==oracle {match:5.0%} | {series}"
            )
    record("fig10_single_data", lines)

    # Headline assertions on the FAT 2 ms / 1 s flow panels.
    for overhead in BA_OVERHEADS_S:
        cell = gaps[(overhead, 2e-3, 1.0)]
        libra_match = fraction_at_most(cell["LiBRA"], MATCH_TOLERANCE_MB)
        ba_match = fraction_at_most(cell["BA First"], MATCH_TOLERANCE_MB)
        ra_match = fraction_at_most(cell["RA First"], MATCH_TOLERANCE_MB)
        assert ba_match >= ra_match, overhead  # RA First is worst on bytes
        if overhead <= 5e-3:
            # α = 0.7 regime: LiBRA optimises mostly for throughput and
            # should track Oracle-Data closely (paper: ~85 %).
            assert libra_match > 0.70, overhead
            assert libra_match >= ra_match, overhead
            assert cell["LiBRA"].mean() <= cell["RA First"].mean(), overhead
        else:
            # α = 0.5 regime: LiBRA deliberately trades bytes for recovery
            # delay (the paper's own framing); its byte loss must still be
            # bounded — never worse than RA First's tail.
            assert libra_match >= ra_match - 0.02, overhead
            assert cell["LiBRA"].max() <= cell["RA First"].max() + 1.0, overhead

    # "BA First" degrades as the sweep gets slower.
    cheap = fraction_at_most(gaps[(0.5e-3, 2e-3, 1.0)]["BA First"], MATCH_TOLERANCE_MB)
    costly = fraction_at_most(gaps[(250e-3, 2e-3, 1.0)]["BA First"], MATCH_TOLERANCE_MB)
    assert costly <= cheap

    # Flow duration hurts "RA First" the most (suboptimal MCS accumulates).
    short = gaps[(5e-3, 2e-3, 0.4)]["RA First"].mean() / 0.4
    long = gaps[(5e-3, 2e-3, 1.0)]["RA First"].mean() / 1.0
    assert long >= short * 0.8  # per-second loss does not shrink with length
