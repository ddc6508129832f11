"""Tests for static baseline policies and the DT policy."""

import pytest

from repro.baselines import (
    DecisionTreePolicy,
    arq_ecc_policy,
    crc_policy,
)
from repro.core.modes import OperationMode
from repro.core.state import RouterObservation


def obs(error_probability=0.0, temperature=60.0, nack=0.0):
    return RouterObservation(
        router_id=0,
        occupied_vcs=[0] * 5,
        input_utilization=[0.05] * 5,
        output_utilization=[0.05] * 5,
        input_nack_rate=[nack] * 5,
        output_nack_rate=[nack] * 5,
        temperature=temperature,
        discrete=(0,),
        true_error_probability=error_probability,
    )


class TestStaticPolicies:
    def test_crc_always_mode_0(self):
        policy = crc_policy()
        assert policy.select(0, obs()) is OperationMode.MODE_0
        assert policy.select(63, obs(0.5, 100.0)) is OperationMode.MODE_0
        assert policy.profile.name == "crc"
        assert not policy.profile.has_ecc_hardware
        assert not policy.trainable

    def test_arq_ecc_always_mode_1(self):
        policy = arq_ecc_policy()
        assert policy.select(0, obs()) is OperationMode.MODE_1
        assert policy.profile.has_ecc_hardware
        assert not policy.profile.ecc_gated  # always-on hardware

    def test_learn_and_freeze_are_no_ops(self):
        policy = crc_policy()
        policy.learn(0, obs(), OperationMode.MODE_0, 1.0, obs())
        policy.freeze()
        assert policy.select(0, obs()) is OperationMode.MODE_0


class TestDecisionTreePolicy:
    def _trained(self, **kwargs):
        policy = DecisionTreePolicy(min_samples_leaf=2, **kwargs)
        # Temperature-correlated labels: the tree should learn T -> p.
        for temp, p in [(55.0, 1e-4), (65.0, 1e-3), (75.0, 1e-2), (88.0, 6e-2), (96.0, 2e-1)]:
            for _ in range(10):
                policy.learn(0, obs(p, temp), OperationMode.MODE_1, 1.0, obs(p, temp))
        policy.freeze()
        return policy

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DecisionTreePolicy(thresholds=(0.1, 0.05, 0.2))

    def test_untrained_uses_safe_training_mode(self):
        policy = DecisionTreePolicy()
        assert policy.select(0, obs()) is OperationMode.MODE_1
        assert not policy.is_fitted

    def test_training_then_frozen(self):
        policy = self._trained()
        assert policy.is_fitted
        samples = policy.training_samples
        policy.learn(0, obs(0.5, 99.0), OperationMode.MODE_1, 1.0, obs())
        assert policy.training_samples == samples  # frozen: no new samples

    def test_mode_escalates_with_predicted_error(self):
        policy = self._trained()
        cold = policy.select(0, obs(temperature=55.0))
        warm = policy.select(0, obs(temperature=75.0))
        hot = policy.select(0, obs(temperature=96.0))
        assert cold is OperationMode.MODE_0
        assert warm in (OperationMode.MODE_1, OperationMode.MODE_2)
        assert hot in (OperationMode.MODE_2, OperationMode.MODE_3)
        assert int(cold) < int(warm) <= int(hot)

    def test_too_few_samples_keeps_training_mode(self):
        policy = DecisionTreePolicy(min_samples_leaf=8)
        policy.learn(0, obs(), OperationMode.MODE_1, 1.0, obs())
        policy.freeze()
        assert not policy.is_fitted
        assert policy.select(0, obs()) is OperationMode.MODE_1

    def test_profile(self):
        policy = DecisionTreePolicy()
        assert policy.profile.name == "dt"
        assert policy.profile.has_dt_logic
        assert policy.trainable
