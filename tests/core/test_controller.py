"""Tests for the control-policy interface and the reward function."""

import pytest

from repro.core.controller import ControlPolicy, compute_reward
from repro.core.modes import OperationMode
from repro.core.state import RouterObservation
from repro.obs import MetricRegistry
from repro.power.orion import DesignPowerProfile


class TestReward:
    def test_paper_equation_3(self):
        """r = [E2E_latency * Power]^-1."""
        assert compute_reward(20.0, 0.005) == pytest.approx(1.0 / (20.0 * 0.005))

    def test_lower_latency_is_better(self):
        assert compute_reward(10.0, 0.01) > compute_reward(100.0, 0.01)

    def test_lower_power_is_better(self):
        assert compute_reward(10.0, 0.001) > compute_reward(10.0, 0.01)

    def test_floors_keep_reward_finite(self):
        assert compute_reward(0.0, 0.0) < float("inf")
        assert compute_reward(-5.0, -1.0) > 0.0


class _CountingPolicy(ControlPolicy):
    """Minimal concrete policy for exercising the ABC defaults."""

    def __init__(self):
        self.profile = DesignPowerProfile.crc()
        self.learn_calls = 0

    def select(self, router_id, observation):
        return OperationMode.MODE_0


def _obs(router_id=0):
    return RouterObservation(
        router_id=router_id,
        occupied_vcs=[0] * 5,
        input_utilization=[0.0] * 5,
        output_utilization=[0.0] * 5,
        input_nack_rate=[0.0] * 5,
        output_nack_rate=[0.0] * 5,
        temperature=50.0,
        discrete=(0,),
    )


class TestPolicyInterface:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            ControlPolicy()

    def test_defaults_are_no_ops(self):
        policy = _CountingPolicy()
        policy.reset(16)
        policy.learn(0, _obs(), OperationMode.MODE_0, 1.0, _obs())
        policy.freeze()
        assert not policy.trainable
        assert policy.name == "crc"

    def test_select_is_required(self):
        policy = _CountingPolicy()
        assert policy.select(3, _obs(3)) is OperationMode.MODE_0


class TestRewardGuard:
    def test_nan_latency_clamped_and_counted(self):
        counter = MetricRegistry().counter("reward.guard_clamps")
        reward = compute_reward(float("nan"), 0.01, counter=counter)
        assert reward == pytest.approx(compute_reward(1.0, 0.01))
        assert counter.value == 1

    def test_nan_power_clamped_and_counted(self):
        counter = MetricRegistry().counter("reward.guard_clamps")
        reward = compute_reward(20.0, float("nan"), counter=counter)
        assert reward == pytest.approx(compute_reward(20.0, 1e-6))
        assert counter.value == 1

    def test_inf_inputs_clamped(self):
        import math

        counter = MetricRegistry().counter("reward.guard_clamps")
        assert math.isfinite(
            compute_reward(float("inf"), float("-inf"), counter=counter)
        )
        assert counter.value == 2

    def test_reward_never_nan(self):
        import math

        for latency in (float("nan"), float("inf"), -1.0, 0.0, 5.0):
            for power in (float("nan"), float("inf"), -1.0, 0.0, 0.01):
                assert math.isfinite(compute_reward(latency, power))
