"""Tests for the consumer-side observation guard (telemetry hardening)."""

import math
import pickle

import pytest

from repro.core.controller import ObservationGuard
from repro.core.state import DiscretizationConfig, RouterObservation, discretize_observation


CFG = DiscretizationConfig()


def make_obs(router_id=0, temp=60.0, mode=0):
    obs = RouterObservation(
        router_id=router_id,
        occupied_vcs=[1, 0, 2, 0, 1],
        input_utilization=[0.1, 0.0, 0.2, 0.05, 0.0],
        output_utilization=[0.0, 0.1, 0.0, 0.15, 0.0],
        input_nack_rate=[0.01, 0.0, 0.0, 0.02, 0.0],
        output_nack_rate=[0.0, 0.0, 0.03, 0.0, 0.0],
        temperature=temp,
    )
    obs.discrete = discretize_observation(obs, CFG, compact=True, mode=mode)
    return obs


def make_guard(**kwargs):
    kwargs.setdefault("num_routers", 4)
    return ObservationGuard(**kwargs)


class TestHealthyPassThrough:
    def test_valid_observation_untouched(self):
        guard = make_guard()
        obs = make_obs()
        before = (list(obs.occupied_vcs), list(obs.input_utilization),
                  obs.temperature, obs.discrete)
        report = guard.inspect(0, obs, epoch_index=0)
        assert not report.dirty and not report.rejected
        assert (list(obs.occupied_vcs), list(obs.input_utilization),
                obs.temperature, obs.discrete) == before

    def test_validation_args(self):
        with pytest.raises(ValueError):
            make_guard(num_routers=0)
        with pytest.raises(ValueError):
            make_guard(hold_ttl=0)


class TestHoldAndDefault:
    def test_dropped_field_held_from_last_good(self):
        guard = make_guard()
        guard.inspect(0, make_obs(temp=72.0), epoch_index=0)
        obs = make_obs(temp=72.0)
        obs.input_utilization = None
        report = guard.inspect(0, obs, epoch_index=1)
        assert report.rejected and report.holds == 1
        assert obs.input_utilization == [0.1, 0.0, 0.2, 0.05, 0.0]

    def test_no_history_falls_back_to_default(self):
        guard = make_guard(default_temperature=40.0)
        obs = make_obs()
        obs.temperature = None
        obs.occupied_vcs = None
        report = guard.inspect(0, obs, epoch_index=0)
        assert report.defaults == 2 and report.holds == 0
        assert obs.temperature == 40.0
        assert obs.occupied_vcs == [0, 0, 0, 0, 0]

    def test_hold_expires_after_ttl(self):
        guard = make_guard(hold_ttl=2, default_temperature=40.0)
        guard.inspect(0, make_obs(temp=95.0), epoch_index=0)
        for epoch in (1, 2):  # within TTL: last-good value survives
            obs = make_obs()
            obs.temperature = float("nan")
            guard.inspect(0, obs, epoch_index=epoch)
            assert obs.temperature == 95.0
        obs = make_obs()
        obs.temperature = float("nan")
        guard.inspect(0, obs, epoch_index=3)  # stale beyond TTL
        assert obs.temperature == 40.0

    def test_non_finite_and_malformed_rejected(self):
        guard = make_guard()
        for poison in (float("inf"), float("nan")):
            obs = make_obs()
            obs.input_nack_rate = [0.0, poison, 0.0, 0.0, 0.0]
            report = guard.inspect(0, obs, epoch_index=0)
            assert report.rejected
        obs = make_obs()
        obs.occupied_vcs = [1, 2]  # wrong arity
        assert guard.inspect(1, obs, epoch_index=0).rejected
        obs = make_obs()
        obs.output_utilization = "garbage"
        assert guard.inspect(2, obs, epoch_index=0).rejected


class TestClamping:
    def test_out_of_range_values_clamped(self):
        guard = make_guard()
        obs = make_obs()
        obs.input_utilization = [-0.5, 0.0, 0.1, 0.0, 0.0]
        obs.input_nack_rate = [1.5, 0.0, 0.0, 0.0, 0.0]
        obs.temperature = 1e6
        report = guard.inspect(0, obs, epoch_index=0)
        assert not report.rejected  # finite values are repairable in place
        assert report.clamps == 3
        assert obs.input_utilization[0] == 0.0
        assert obs.input_nack_rate[0] == 1.0
        assert obs.temperature == ObservationGuard.MAX_TEMPERATURE

    def test_buffer_count_clamped_to_vcs(self):
        guard = make_guard()
        obs = make_obs()
        obs.occupied_vcs = [99, 0, 0, 0, -3]
        report = guard.inspect(0, obs, epoch_index=0)
        assert report.clamps == 2
        assert obs.occupied_vcs == [CFG.num_vcs, 0, 0, 0, 0]


def rejected_obs(router_id=0):
    obs = make_obs(router_id=router_id)
    obs.temperature = None
    return obs


class TestQuarantine:
    """The guard reports each router's reject streak and decides nothing
    with it: the simulator degrades the router once the streak reaches
    ``SENSOR_QUARANTINE_K``."""

    def test_escalates_after_consecutive_rejects(self):
        guard = make_guard()
        streaks = [
            guard.inspect(0, rejected_obs(), epoch_index=epoch).streak
            for epoch in range(10)
        ]
        assert streaks == list(range(1, 11))

    def test_valid_observation_resets_streak(self):
        guard = make_guard()
        guard.inspect(0, rejected_obs(), epoch_index=0)
        report = guard.inspect(0, make_obs(), epoch_index=1)  # healthy: reset
        assert not report.rejected and report.streak == 0
        assert guard.inspect(0, rejected_obs(), epoch_index=2).streak == 1
        assert guard.inspect(0, rejected_obs(), epoch_index=3).streak == 2

    def test_streaks_are_per_router(self):
        guard = make_guard()
        for epoch in range(2):
            guard.inspect(1, rejected_obs(router_id=1), epoch_index=epoch)
        assert guard.inspect(1, rejected_obs(router_id=1), epoch_index=2).streak == 3
        assert guard.inspect(0, rejected_obs(), epoch_index=2).streak == 1


class TestState:
    def test_guard_pickles_with_streaks(self):
        guard = make_guard()
        guard.inspect(0, rejected_obs(), epoch_index=0)
        clone = pickle.loads(pickle.dumps(guard))
        for epoch in (1, 2):
            reports = []
            for g in (guard, clone):
                poisoned = make_obs()
                poisoned.temperature = math.nan
                reports.append(g.inspect(0, poisoned, epoch_index=epoch))
            assert [report.streak for report in reports] == [epoch + 1] * 2
