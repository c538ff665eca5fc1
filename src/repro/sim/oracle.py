"""Oracle baselines (§8.1).

* **Oracle-Data** always triggers the adaptation mechanism that maximises
  the bytes delivered over the flow — it evaluates both repair paths on
  the ground-truth traces and keeps the better one.
* **Oracle-Delay** always triggers the mechanism that minimises the link
  recovery delay.

Both are *clairvoyant policies*, not implementable algorithms: they peek
at the entry's recorded traces for both beam pairs.  They still pay the
overhead of the action they choose and use the same RA machinery as
everyone else — "the oracles make optimal decisions only with respect to
restoring a link."

Implementation note: the simulation loop binds each oracle to the entry
(and flow duration) it is about to decide on.  The choices themselves are
:meth:`repro.sim.batch.BatchFlowSimulator.oracle_data_action` and
:meth:`~repro.sim.batch.BatchFlowSimulator.oracle_delay_action`, taken
over the same replay every policy runs on; the policy-shaped wrappers let
that loop run oracles interchangeably with the real policies.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ground_truth import Action
from repro.core.policies import LinkAdaptationPolicy, Observation, PolicyDecision
from repro.dataset.entry import DatasetEntry
from repro.sim.engine import SimulationConfig


class _OracleBase(LinkAdaptationPolicy):
    """Policy adapter: looks up the pre-computed choice for the entry.

    The simulation harness calls :meth:`bind` with the entry about to be
    simulated; ``decide`` then returns the clairvoyant answer.  This keeps
    oracles plug-compatible with the simulate_flow/simulate_timeline loop.
    """

    def __init__(self, config: SimulationConfig, duration_s: float):
        self.config = config
        self.duration_s = duration_s
        self._bound_entry: Optional[DatasetEntry] = None

    def bind(self, entry: DatasetEntry, duration_s: Optional[float] = None) -> None:
        """Hand the oracle the entry (and horizon) it is about to decide on.

        The simulation loop passes each flow's actual duration so the
        oracle's choice is optimal for *that* flow — segment lengths vary
        in the §8.3 timelines.
        """
        self._bound_entry = entry
        if duration_s is not None:
            self.duration_s = duration_s

    def _choose(self, entry: DatasetEntry) -> Action:
        raise NotImplementedError

    def decide(self, observation: Observation) -> PolicyDecision:
        if self._bound_entry is None:
            raise RuntimeError("oracle was not bound to an entry before deciding")
        return PolicyDecision(self._choose(self._bound_entry), "clairvoyant")


class OracleData(_OracleBase):
    """Always picks the bytes-maximising mechanism."""

    name = "Oracle-Data"

    def _choose(self, entry: DatasetEntry) -> Action:
        from repro.sim.batch import BatchFlowSimulator  # batch imports this module

        return BatchFlowSimulator(self.config).oracle_data_action(
            entry, self.duration_s
        )


class OracleDelay(_OracleBase):
    """Always picks the delay-minimising mechanism."""

    name = "Oracle-Delay"

    def _choose(self, entry: DatasetEntry) -> Action:
        from repro.sim.batch import BatchFlowSimulator  # batch imports this module

        return BatchFlowSimulator(self.config).oracle_delay_action(
            entry, self.duration_s
        )
