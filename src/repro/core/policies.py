"""Link-adaptation policies: the decision layer the §8 evaluation compares.

A policy answers one question at each decision point: given what the
transmitter can observe (the ACK-borne PHY metric deltas, or the fact that
the ACK went missing), should it do nothing, trigger RA, or trigger BA?

* :class:`RAFirstPolicy` — what COTS devices do today: on a broken MCS,
  always try RA first (§2, §8.1).
* :class:`BAFirstPolicy` — the patent-suggested alternative: always sweep
  first, then RA (§2 [14]).
* :class:`LiBRA` (in :mod:`repro.core.libra`) — the learning-based policy.
* The oracles live in :mod:`repro.sim.oracle`: they peek at ground truth
  and are upper bounds, not implementable policies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.core.ground_truth import Action
from repro.core.metrics import FeatureVector
from repro.obs.metrics import get_metrics


@dataclass(frozen=True)
class Observation:
    """What the Tx-side policy can see at a decision point.

    Attributes:
        features: PHY metric deltas carried back on the last Block ACK;
            ``None`` exactly when the ACK is missing.
        ack_missing: The last aggregated frame produced no Block ACK.
        current_mcs: The MCS in use.
        current_mcs_working: Whether the current MCS still satisfies the
            §5.2 working predicate (the trigger the simple heuristics use).
        ba_overhead_s: The configured BA overhead — a protocol constant the
            policy may consult (LiBRA's missing-ACK rule does).
    """

    features: Optional[FeatureVector]
    ack_missing: bool
    current_mcs: int
    current_mcs_working: bool
    ba_overhead_s: float

    def degraded(self) -> "Observation":
        """This observation with its feedback-borne content discarded.

        The hardened feedback path lands here when the ACK arrived but its
        metrics failed sanitization (non-finite, out of range, stale): the
        transmitter has no trustworthy fresh information, which is exactly
        the missing-ACK situation of §7 — so policies are asked again with
        the feedback treated as absent and the link presumed not working.
        """
        return Observation(
            features=None,
            ack_missing=True,
            current_mcs=self.current_mcs,
            current_mcs_working=False,
            ba_overhead_s=self.ba_overhead_s,
        )


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's answer plus a short rationale (useful in logs/tests).

    ``fallback`` marks decisions the policy produced by *degrading* to the
    §7 missing-ACK rule — rejected features, a classifier error, garbage
    model output — rather than by its normal decision path.
    """

    action: Action
    reason: str = ""
    fallback: bool = False


class LinkAdaptationPolicy(abc.ABC):
    """Base class for all decision policies.

    A policy may expose an optional
    ``decide_batch(observations) -> list[PolicyDecision]``; the batched
    evaluation engine uses it — when defined on the policy's own class,
    never reached through delegation wrappers — to amortize model
    inference across a whole entry list.  LiBRA is the one policy that
    batches: the heuristics are cheap per observation and take the
    engine's sequential path.  The base class deliberately does not define
    it: stateful or fault-wrapped policies must keep the sequential
    per-observation path so call order (and any injected randomness)
    matches a per-flow replay exactly.
    """

    name: str = "policy"

    @abc.abstractmethod
    def decide(self, observation: Observation) -> PolicyDecision:
        """Pick NA / RA / BA for this decision point."""

    def reset(self) -> None:
        """Clear any per-flow state (default: stateless)."""


def decide_or_degrade(
    policy: LinkAdaptationPolicy, observation: Observation, error_counter: str
) -> PolicyDecision:
    """``policy.decide(observation)``; a policy that raises is counted on
    the process-wide ``error_counter`` and asked again on the degraded
    (§7 missing-ACK) observation, whose answer comes back as a fallback."""
    try:
        return policy.decide(observation)
    except Exception as error:  # isolation boundary: a crashing policy must not kill the run
        get_metrics().counter(error_counter).inc()
        rule = policy.decide(observation.degraded())
        return PolicyDecision(
            rule.action,
            f"policy error ({type(error).__name__}: {error}); "
            f"retried degraded: {rule.reason}",
            fallback=True,
        )


class RAFirstPolicy(LinkAdaptationPolicy):
    """Trigger RA whenever the current MCS stops working (COTS behaviour).

    BA is reached only through RA failure — the simulation engine performs
    the BA fallback when a repair round finds no working MCS, so the policy
    itself never answers BA.
    """

    name = "RA First"

    def decide(self, observation: Observation) -> PolicyDecision:
        if observation.ack_missing or not observation.current_mcs_working:
            return PolicyDecision(Action.RA, "link degraded: COTS devices try rates first")
        return PolicyDecision(Action.NA, "current MCS still working")


class BAFirstPolicy(LinkAdaptationPolicy):
    """Trigger BA (then RA) whenever the current MCS stops working ([14])."""

    name = "BA First"

    def decide(self, observation: Observation) -> PolicyDecision:
        if observation.ack_missing or not observation.current_mcs_working:
            return PolicyDecision(Action.BA, "link degraded: sweep first per [14]")
        return PolicyDecision(Action.NA, "current MCS still working")


class StaticPolicy(LinkAdaptationPolicy):
    """Never adapt — the locked-sector baseline of the §3 experiments."""

    name = "Static"

    def decide(self, observation: Observation) -> PolicyDecision:
        return PolicyDecision(Action.NA, "adaptation disabled")
