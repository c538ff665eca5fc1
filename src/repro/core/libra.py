"""The LiBRA controller (§7, Algorithm 1).

LiBRA decides, every two frames, using the PHY-metric deltas piggybacked on
Block ACKs:

1. **No adaptation / RA / BA** via a 3-class model (the paper's random
   forest retrained with NA entries);
2. **Missing-ACK rule**: with no ACK there are no fresh metrics, so LiBRA
   falls back to a dataset statistic — below MCS 6, BA is right 92 % of
   the time, so trigger BA; at MCS ≥ 6 trigger BA only when the BA
   overhead is low, otherwise RA (§7, issue 3);
3. After BA, always run RA (BA lands on a new path whose best MCS is
   unknown); after a failed RA, run BA then RA (Algorithm 1's fallback).

The classifier is pluggable: anything with a ``predict(X) → array of
label strings`` method works (the from-scratch models in :mod:`repro.ml`
all qualify), so LiBRA "works with a variety of RA and BA algorithms" and
models, as the paper stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from repro.constants import BA_OVERHEAD_THRESHOLD_S, MISSING_ACK_MCS_THRESHOLD
from repro.core.ground_truth import Action
from repro.core.policies import (
    LinkAdaptationPolicy,
    Observation,
    PolicyDecision,
)
from repro.obs.metrics import get_metrics


class Classifier(Protocol):
    """Anything that maps feature rows to label strings."""

    def predict(self, features: np.ndarray) -> np.ndarray: ...


@dataclass
class LiBRA(LinkAdaptationPolicy):
    """The learning-based policy of Algorithm 1."""

    model: Classifier
    name: str = "LiBRA"

    def decide(self, observation: Observation) -> PolicyDecision:
        """One pass of Algorithm 1's selectAction().

        Hardened: rejected features (absent, non-finite, out-of-range CDR),
        a classifier that raises, and garbage model output all degrade to
        the §7 missing-ACK rule — no ACK-borne information can be trusted,
        which is precisely the situation that rule covers — instead of
        crashing the controller or acting on poisoned inputs.
        """
        return self._decide_rows([observation], stacked=False)[0]

    def decide_batch(self, observations: list[Observation]) -> list[PolicyDecision]:
        """Batched selectAction(): one forest call for a whole entry list.

        Forest inference routes rows independently, so the stacked call
        returns exactly the per-row labels.  A model that errors — or one
        that returns the wrong number of labels — is retried row by row,
        reproducing :meth:`decide`'s degradation message for message.
        Decisions come back in observation order.
        """
        return self._decide_rows(observations, stacked=True)

    def _decide_rows(
        self, observations: list[Observation], stacked: bool
    ) -> list[PolicyDecision]:
        """The one decision path behind :meth:`decide` and :meth:`decide_batch`.

        The missing-ACK rule and feature screening stay per-observation;
        every accepted feature row joins one ``model.predict`` call.  When
        that call fails, a ``stacked`` call counts ``libra.batch_predict_error``
        and retries each row alone; a single-row call counts
        ``libra.model_error`` and degrades.
        """
        decisions: list[Optional[PolicyDecision]] = [None] * len(observations)
        rows: list[np.ndarray] = []
        where: list[int] = []
        for index, observation in enumerate(observations):
            if observation.ack_missing:
                decisions[index] = self._missing_ack_rule(observation)
                continue
            rejection = self._feature_rejection(observation)
            if rejection is not None:
                decisions[index] = self._degrade(
                    observation, f"features rejected ({rejection})"
                )
                continue
            rows.append(observation.features.to_array())
            where.append(index)
        if not rows:
            return decisions
        try:
            predictions = self.model.predict(np.stack(rows))
            if stacked and len(predictions) != len(rows):
                raise ValueError("prediction count mismatch")
            # A single row reads only label 0; an empty answer raises here.
            labels = [predictions[i] for i in range(len(rows))]
        except Exception as error:  # isolation boundary: any model failure degrades
            if stacked:
                # Marks that the *batched* call failed (a shape/stacking
                # bug, not a model bug); each row's retry counts its own
                # model error.
                get_metrics().counter("libra.batch_predict_error").inc()
                for index in where:
                    decisions[index] = self._decide_rows(
                        [observations[index]], stacked=False
                    )[0]
                return decisions
            get_metrics().counter("libra.model_error").inc()
            return [
                self._degrade(
                    observations[0],
                    f"model error ({type(error).__name__}: {error})",
                )
            ]
        for index, label in zip(where, labels):
            decisions[index] = self._prediction_decision(label, observations[index])
        return decisions

    def _prediction_decision(
        self, prediction, observation: Observation
    ) -> PolicyDecision:
        """Map one model label to the decision."""
        try:
            action = Action(str(prediction))
        except ValueError:
            return self._degrade(observation, f"unknown model label {prediction!r}")
        if action is Action.NA:
            return PolicyDecision(Action.NA, "model: no adaptation needed")
        if action is Action.RA:
            return PolicyDecision(Action.RA, "model: rate adaptation suffices")
        return PolicyDecision(Action.BA, "model: beam adaptation required")

    @staticmethod
    def _feature_rejection(observation: Observation) -> Optional[str]:
        """Why the feature vector cannot be classified on, or ``None``."""
        if observation.features is None:
            return "no features despite ACK"
        values = observation.features.to_array()
        if not np.isfinite(values).all():
            return "non-finite feature values"
        if not 0.0 <= observation.features.cdr <= 1.0:
            return f"CDR feature {observation.features.cdr:.3f} out of range"
        return None

    def _degrade(self, observation: Observation, why: str) -> PolicyDecision:
        """Fall back to the missing-ACK rule, keeping the evidence trail."""
        rule = self._missing_ack_rule(observation.degraded())
        return PolicyDecision(
            rule.action, f"{why}; missing-ACK rule: {rule.reason}", fallback=True
        )

    def _missing_ack_rule(self, observation: Observation) -> PolicyDecision:
        """§7's fallback when no metrics arrive.

        Below MCS 6 the dataset says BA wins 92 % of the time → BA.  At
        MCS ≥ 6 it is a coin flip (48/52), so the tie-breaker is the BA
        overhead: sweep first only when sweeping is cheap.
        """
        if observation.current_mcs < MISSING_ACK_MCS_THRESHOLD:
            return PolicyDecision(Action.BA, "missing ACK at low MCS: BA wins 92%")
        if observation.ba_overhead_s < BA_OVERHEAD_THRESHOLD_S:
            return PolicyDecision(Action.BA, "missing ACK, cheap sweep: BA first")
        return PolicyDecision(Action.RA, "missing ACK, expensive sweep: RA first")


@dataclass
class ThresholdClassifier:
    """A hand-tuned, non-learned stand-in classifier.

    Encodes the per-metric thresholds §6.1 identified (SNR drop > 7 dB ⇒
    BA; infinite/zero ToF ⇒ BA; negative ToF difference ⇒ RA; …).  It
    exists as the ablation baseline showing why the learned model is
    needed — the paper's whole §6.1 argument is that these thresholds do
    not compose into an accurate rule.
    """

    snr_drop_ba_db: float = 7.0
    na_snr_band_db: float = 2.0
    tof_zero_band_ns: float = 0.5

    def predict(self, features: np.ndarray) -> np.ndarray:
        from repro.core.metrics import TOF_INF_SENTINEL_NS

        features = np.atleast_2d(features)
        labels = []
        for row in features:
            snr_diff, tof_diff = row[0], row[1]
            cdr = row[5]
            if abs(snr_diff) < self.na_snr_band_db and cdr > 0.9:
                labels.append(Action.NA.value)
            elif snr_diff > self.snr_drop_ba_db:
                labels.append(Action.BA.value)
            elif tof_diff >= TOF_INF_SENTINEL_NS - 1e-9:
                labels.append(Action.BA.value)
            elif abs(tof_diff) < self.tof_zero_band_ns:
                labels.append(Action.BA.value)
            elif tof_diff < 0:
                labels.append(Action.RA.value)
            else:
                labels.append(Action.BA.value)
        return np.array(labels)
