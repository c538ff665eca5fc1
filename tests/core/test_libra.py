"""LiBRA controller tests (Algorithm 1's selectAction)."""

import numpy as np
import pytest

from repro.constants import DECISION_PERIOD_FRAMES, MISSING_ACK_MCS_THRESHOLD
from repro.core.ground_truth import Action
from repro.core.libra import LiBRA, ThresholdClassifier
from repro.core.metrics import TOF_INF_SENTINEL_NS, FeatureVector
from repro.core.policies import Observation
from repro.faults import ClassifierFault, FaultPlan, FaultyClassifier
from repro.obs.metrics import MetricsRegistry, use_metrics


class ConstantModel:
    """Predicts one fixed label — isolates the controller's plumbing."""

    def __init__(self, label: str):
        self.label = label
        self.seen = []

    def predict(self, features: np.ndarray) -> np.ndarray:
        self.seen.append(np.array(features))
        return np.array([self.label] * len(np.atleast_2d(features)))


def obs(ack_missing=False, mcs=6, ba_overhead=5e-3, working=True) -> Observation:
    features = None if ack_missing else FeatureVector(3.0, -2.0, 0.5, 0.9, 0.8, 0.7, mcs)
    return Observation(features, ack_missing, mcs, working, ba_overhead)


class TestModelDispatch:
    @pytest.mark.parametrize("label,expected", [
        ("NA", Action.NA), ("RA", Action.RA), ("BA", Action.BA),
    ])
    def test_model_prediction_becomes_action(self, label, expected):
        policy = LiBRA(ConstantModel(label))
        assert policy.decide(obs()).action is expected

    def test_model_receives_feature_row(self):
        model = ConstantModel("RA")
        LiBRA(model).decide(obs())
        assert model.seen[0].shape == (1, 7)

    def test_missing_features_with_ack_degrade(self):
        # An ACK without features used to crash the controller; hardened
        # LiBRA treats it as untrustworthy feedback and falls back to the
        # §7 missing-ACK rule (MCS 6, cheap sweep → BA).
        policy = LiBRA(ConstantModel("RA"))
        broken = Observation(None, False, 6, True, 0.5e-3)
        decision = policy.decide(broken)
        assert decision.fallback
        assert decision.action is Action.BA
        assert "rejected" in decision.reason


class TestHardening:
    """Degradation paths: every untrusted input lands on the §7 rule."""

    class RaisingModel:
        def predict(self, features):
            raise RuntimeError("model artifact corrupted")

    def test_non_finite_features_degrade(self):
        policy = LiBRA(ConstantModel("RA"))
        bad = FeatureVector(np.nan, -2.0, 0.5, 0.9, 0.8, 0.7, 4)
        decision = policy.decide(Observation(bad, False, 4, True, 5e-3))
        assert decision.fallback
        assert decision.action is Action.BA  # MCS 4 < threshold → BA

    def test_out_of_range_cdr_degrades(self):
        policy = LiBRA(ConstantModel("RA"))
        bad = FeatureVector(3.0, -2.0, 0.5, 0.9, 0.8, 37.5, 4)
        decision = policy.decide(Observation(bad, False, 4, True, 5e-3))
        assert decision.fallback

    def test_model_error_degrades(self):
        policy = LiBRA(self.RaisingModel())
        decision = policy.decide(obs(mcs=4))
        assert decision.fallback
        assert "model error" in decision.reason
        assert decision.action is Action.BA

    def test_garbage_label_degrades(self):
        policy = LiBRA(ConstantModel("corrupted-label"))
        decision = policy.decide(obs(mcs=7, ba_overhead=0.25))
        assert decision.fallback
        assert decision.action is Action.RA  # high MCS, expensive sweep

    def test_clean_path_is_not_fallback(self):
        decision = LiBRA(ConstantModel("NA")).decide(obs())
        assert not decision.fallback


class StackedRaisingModel(ConstantModel):
    """Answers single rows but raises on stacked ones."""

    def predict(self, features: np.ndarray) -> np.ndarray:
        if len(features) > 1:
            self.seen.append(np.array(features))
            raise ValueError("cannot stack")
        return super().predict(features)


def mixed_batch() -> list[Observation]:
    """Two classifiable rows around a missing ACK and a rejected row."""
    rejected = FeatureVector(3.0, -2.0, 0.5, 0.9, 0.8, 37.5, 4)
    return [
        obs(mcs=4),
        obs(ack_missing=True, mcs=7, ba_overhead=0.25),
        Observation(rejected, False, 4, True, 5e-3),
        obs(mcs=7, ba_overhead=0.25),
    ]


def run_batch(policy: LiBRA, observations: list[Observation]):
    registry = MetricsRegistry()
    with use_metrics(registry):
        decisions = policy.decide_batch(observations)
    counts = {
        name: registry.counter(f"libra.{name}").value
        for name in ("batch_predict_error", "model_error")
    }
    return decisions, counts


class TestDecideBatch:
    """The batched path: one stacked predict, per-row retry on failure."""

    def test_one_stacked_call_matches_per_row_decide(self):
        model = ConstantModel("NA")
        decisions, counts = run_batch(LiBRA(model), mixed_batch())
        assert [m.shape for m in model.seen] == [(2, 7)]
        assert counts == {"batch_predict_error": 0, "model_error": 0}
        single = [LiBRA(ConstantModel("NA")).decide(o) for o in mixed_batch()]
        assert decisions == single

    def test_stacked_failure_retries_row_by_row(self):
        model = StackedRaisingModel("RA")
        decisions, counts = run_batch(LiBRA(model), mixed_batch())
        assert [m.shape for m in model.seen] == [(2, 7), (1, 7), (1, 7)]
        assert counts == {"batch_predict_error": 1, "model_error": 0}
        assert [d.action for d in decisions] == [
            Action.RA, Action.RA, Action.BA, Action.RA,
        ]
        assert [d.fallback for d in decisions] == [False, False, True, False]
        assert decisions[0].reason == "model: rate adaptation suffices"
        assert decisions[1].reason == "missing ACK, expensive sweep: RA first"
        assert decisions[2].reason.startswith("features rejected (CDR feature")

    def test_wrong_label_count_retries_row_by_row(self):
        class OneLabelModel(ConstantModel):
            def predict(self, features):
                self.seen.append(np.array(features))
                return np.array([self.label])

        model = OneLabelModel("BA")
        decisions, counts = run_batch(LiBRA(model), mixed_batch())
        assert [m.shape for m in model.seen] == [(2, 7), (1, 7), (1, 7)]
        assert counts == {"batch_predict_error": 1, "model_error": 0}
        assert decisions[0].action is decisions[3].action is Action.BA

    def test_every_row_failing_counts_each_model_error(self):
        decisions, counts = run_batch(
            LiBRA(TestHardening.RaisingModel()), mixed_batch()
        )
        assert counts == {"batch_predict_error": 1, "model_error": 2}
        for index in (0, 3):
            assert decisions[index].fallback
            assert decisions[index].reason.startswith(
                "model error (RuntimeError: model artifact corrupted); "
                "missing-ACK rule: "
            )
        assert decisions[0].action is Action.BA  # MCS 4
        assert decisions[3].action is Action.RA  # MCS 7, expensive sweep

    @pytest.mark.parametrize("raise_fraction,draws", [(1.0, 3), (0.0, 1)])
    def test_faulty_classifier_draw_order(self, raise_fraction, draws):
        """A raising stacked call draws once, then once per retried row;
        garbage answers every row from one draw."""
        fault = ClassifierFault(probability=1.0, raise_fraction=raise_fraction)
        plan = FaultPlan(seed=5, classifier_fault=fault)
        policy = LiBRA(FaultyClassifier(ThresholdClassifier(), plan))
        decisions, counts = run_batch(policy, mixed_batch())
        reference = np.random.default_rng(5)
        reference.random(2 * draws)  # two draws per fires() call
        assert plan.rng.random() == reference.random()
        assert plan.log.count("classifier_fault") == draws
        if raise_fraction == 1.0:
            assert counts == {"batch_predict_error": 1, "model_error": 2}
            prefix = "model error (RuntimeError: injected classifier fault)"
        else:
            assert counts == {"batch_predict_error": 0, "model_error": 0}
            prefix = "unknown model label"
        for index in (0, 3):
            assert decisions[index].fallback
            assert decisions[index].reason.startswith(prefix)

    def test_single_observation_is_one_call(self):
        model = StackedRaisingModel("NA")
        decisions, counts = run_batch(LiBRA(model), [obs()])
        assert [m.shape for m in model.seen] == [(1, 7)]
        assert counts == {"batch_predict_error": 0, "model_error": 0}
        assert decisions[0].action is Action.NA

    def test_no_classifiable_rows_skip_the_model(self):
        model = ConstantModel("RA")
        decisions, _ = run_batch(LiBRA(model), [obs(ack_missing=True)])
        assert model.seen == []
        assert decisions[0].reason.startswith("missing ACK")


class TestMissingAckRule:
    def test_low_mcs_always_ba(self):
        policy = LiBRA(ConstantModel("RA"))
        for mcs in range(6):
            decision = policy.decide(obs(ack_missing=True, mcs=mcs, ba_overhead=0.25))
            assert decision.action is Action.BA, mcs

    def test_high_mcs_cheap_sweep_ba(self):
        policy = LiBRA(ConstantModel("RA"))
        decision = policy.decide(obs(ack_missing=True, mcs=7, ba_overhead=0.5e-3))
        assert decision.action is Action.BA

    def test_high_mcs_expensive_sweep_ra(self):
        policy = LiBRA(ConstantModel("BA"))
        decision = policy.decide(obs(ack_missing=True, mcs=7, ba_overhead=0.25))
        assert decision.action is Action.RA


class TestConfig:
    def test_defaults_match_paper(self):
        assert MISSING_ACK_MCS_THRESHOLD == 6
        assert DECISION_PERIOD_FRAMES == 2


class TestThresholdClassifier:
    """The §6.1 hand-rule baseline; each rule mirrors one figure's note."""

    classifier = ThresholdClassifier()

    def _predict(self, **kwargs) -> str:
        base = dict(
            snr_diff=0.0, tof_diff=-5.0, noise_diff=0.0,
            pdp=0.95, csi=0.9, cdr=0.5, mcs=6,
        )
        base.update(kwargs)
        row = np.array([
            base["snr_diff"], base["tof_diff"], base["noise_diff"],
            base["pdp"], base["csi"], base["cdr"], base["mcs"],
        ])
        return str(self.classifier.predict(row)[0])

    def test_big_snr_drop_is_ba(self):
        assert self._predict(snr_diff=12.0) == "BA"

    def test_infinite_tof_is_ba(self):
        assert self._predict(tof_diff=TOF_INF_SENTINEL_NS) == "BA"

    def test_zero_tof_is_ba(self):
        assert self._predict(tof_diff=0.0, snr_diff=4.0) == "BA"

    def test_backward_motion_is_ra(self):
        assert self._predict(tof_diff=-6.0, snr_diff=4.0) == "RA"

    def test_stable_link_is_na(self):
        assert self._predict(snr_diff=0.5, cdr=0.95) == "NA"

    def test_batch_prediction(self):
        rows = np.zeros((3, 7))
        rows[:, 5] = 0.95  # high CDR
        labels = self.classifier.predict(rows)
        assert len(labels) == 3


class TestLiBRAOnRealModel:
    def test_libra_with_trained_forest(self, trained_forest):
        policy = LiBRA(trained_forest)
        decision = policy.decide(obs())
        assert decision.action in (Action.RA, Action.BA, Action.NA)

    def test_big_rotation_features_trigger_ba(self, trained_forest):
        policy = LiBRA(trained_forest)
        rotation = FeatureVector(
            snr_diff_db=18.0, tof_diff_ns=TOF_INF_SENTINEL_NS, noise_diff_db=0.0,
            pdp_similarity=0.7, csi_similarity=0.3, cdr=0.0, initial_mcs=4,
        )
        observation = Observation(rotation, False, 4, False, 5e-3)
        assert policy.decide(observation).action is Action.BA
