"""Figure 11 — single-impairment flows: recovery delay vs Oracle-Delay.

CDFs of ``policy delay − Oracle-Delay delay`` per (BA overhead, FAT).
Headline claims:

* "RA First" has the longest delays when the BA overhead is small;
* "BA First" has the longest delays when the BA overhead is large (its
  median gap exceeds 200 ms at a 250 ms sweep);
* LiBRA strikes the balance: within 5 ms of optimal in 57-98 % of cases
  across all parameter combinations.
"""

import numpy as np
import pytest

from repro.constants import BA_OVERHEADS_S, FRAME_AGGREGATION_TIMES_S
from repro.sim.batch import BatchFlowSimulator
from repro.sim.engine import SimulationConfig
from repro.sim.oracle import OracleDelay
from repro.sim.results import cdf_points, fraction_at_most

FLOW_DURATION_S = 1.0


def run_grid(testing_dataset, make_libra, heuristics):
    entries = testing_dataset.without_na().entries
    gaps = {}
    for overhead in BA_OVERHEADS_S:
        for fat in FRAME_AGGREGATION_TIMES_S:
            config = SimulationConfig(ba_overhead_s=overhead, frame_time_s=fat)
            simulator = BatchFlowSimulator(config)
            policies = dict(heuristics)
            policies["LiBRA"] = make_libra(overhead, fat)
            oracle = OracleDelay(config, FLOW_DURATION_S)
            cell = {name: [] for name in policies}
            for entry in entries:
                best = simulator.simulate(oracle, entry, FLOW_DURATION_S)
                for name, policy in policies.items():
                    result = simulator.simulate(policy, entry, FLOW_DURATION_S)
                    cell[name].append(
                        (result.recovery_delay_s - best.recovery_delay_s) * 1e3
                    )
            gaps[(overhead, fat)] = {
                name: np.array(values) for name, values in cell.items()
            }
    return gaps


def test_fig11_delay_vs_oracle(
    benchmark, record, testing_dataset, make_libra, heuristics
):
    gaps = benchmark.pedantic(
        run_grid, args=(testing_dataset, make_libra, heuristics),
        rounds=1, iterations=1,
    )
    lines = ["Fig. 11: CDFs of policy delay − Oracle-Delay delay (ms)"]
    for (overhead, fat), cell in gaps.items():
        lines.append(f"-- BA overhead {overhead * 1e3:g} ms, FAT {fat * 1e3:g} ms")
        for name, values in cell.items():
            within5 = fraction_at_most(values, 5.0)
            points = cdf_points(values, num_points=5)
            series = ", ".join(f"{v:7.1f}@{p:.2f}" for v, p in points)
            lines.append(f"   {name:>9}: ≤5ms {within5:5.0%} | median "
                         f"{np.median(values):6.1f} ms | {series}")
    record("fig11_single_delay", lines)

    for (overhead, fat), cell in gaps.items():
        # Delay gaps are never negative (the oracle is optimal).
        for values in cell.values():
            assert (values >= -1e-6).all()
        libra_within5 = fraction_at_most(cell["LiBRA"], 5.0)
        assert libra_within5 > 0.45, (overhead, fat)  # paper: 57-98 %

    # RA First worst at small sweeps, BA First worst at big sweeps.
    small = gaps[(0.5e-3, 2e-3)]
    assert np.median(small["RA First"]) >= np.median(small["BA First"])
    big = gaps[(250e-3, 2e-3)]
    assert np.median(big["BA First"]) >= np.median(big["RA First"])
    # Among entries that actually break the link, BA First pays the full
    # sweep (the paper's >200 ms median is over break-only cases; roughly
    # half of our entries leave the current MCS working, where every
    # policy answers NA and the gap is 0 — hence the quartile check).
    assert np.percentile(big["BA First"], 75) > 200.0
    assert np.percentile(big["LiBRA"], 75) < np.percentile(big["BA First"], 75)
