"""Tests for the runtime fault injector."""

import random
import warnings

import pytest

from repro.faults import FaultInjector, VariusModel
from repro.noc import MeshTopology, Network


def make_setup(size=4):
    net = Network(MeshTopology(size, size), rng=random.Random(0))
    varius = VariusModel(size, size, seed=2)
    return net, varius


def probabilities(net):
    """Each channel's sampled event probability, keyed like net.channels."""
    return {key: model.event_probability for key, model in net.channel_models()}


class TestConstruction:
    def test_rejects_grid_mismatch(self):
        net, _ = make_setup(4)
        with pytest.raises(ValueError):
            FaultInjector(net, VariusModel(2, 2))

    def test_rejects_negative_scale(self):
        net, varius = make_setup()
        with pytest.raises(ValueError):
            FaultInjector(net, varius, error_scale=-1.0)


class TestRefresh:
    def test_refresh_applies_to_every_channel(self):
        net, varius = make_setup()
        injector = FaultInjector(net, varius)
        injector.refresh([90.0] * 16)
        for _, model in net.channel_models():
            assert model.event_probability > 0.0
            assert 0.0 <= model.relax_factor < 1e-4

    def test_hotter_die_means_more_errors(self):
        net, varius = make_setup()
        injector = FaultInjector(net, varius)
        injector.refresh([55.0] * 16)
        cool = injector.mean_probability()
        injector.refresh([95.0] * 16)
        hot = injector.mean_probability()
        assert hot > 10 * cool

    def test_probability_tracks_upstream_router(self):
        net, varius = make_setup()
        injector = FaultInjector(net, varius)
        temps = [50.0] * 16
        temps[5] = 100.0
        injector.refresh(temps)
        hot_channels = {k: p for k, p in probabilities(net).items() if k[0] == 5}
        cold_channels = {k: p for k, p in probabilities(net).items() if k[0] == 10}
        assert min(hot_channels.values()) > max(cold_channels.values())

    def test_error_scale_multiplies(self):
        net, varius = make_setup()
        plain = FaultInjector(net, varius)
        plain.refresh([80.0] * 16)
        baseline = plain.mean_probability()
        scaled = FaultInjector(net, varius, error_scale=3.0)
        scaled.refresh([80.0] * 16)
        assert abs(scaled.mean_probability() - 3.0 * baseline) < 1e-9

    def test_scale_clamps_at_one(self):
        net, varius = make_setup()
        injector = FaultInjector(net, varius, error_scale=1e9)
        with pytest.warns(RuntimeWarning):
            injector.refresh([100.0] * 16)
        assert max(probabilities(net).values()) <= 1.0

    def test_rejects_wrong_temperature_count(self):
        net, varius = make_setup()
        with pytest.raises(ValueError):
            FaultInjector(net, varius).refresh([50.0] * 3)


class TestSaturationAndClamp:
    @staticmethod
    def _patched(injector, p, p_relaxed):
        def fake(node, temperature, voltage=None, relax_cycles=0):
            return p_relaxed if relax_cycles else p

        injector.varius.timing_error_probability = fake
        return injector

    def test_saturation_warns_once_and_counts(self):
        net, varius = make_setup()
        injector = FaultInjector(net, varius, error_scale=1e9)
        with pytest.warns(RuntimeWarning, match="saturated"):
            injector.refresh([100.0] * 16)
        assert injector.saturation_events == len(net.channels)
        before = injector.saturation_events
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            injector.refresh([100.0] * 16)
        assert injector.saturation_events == 2 * before
        assert max(probabilities(net).values()) == 1.0

    def test_no_saturation_no_warning(self):
        net, varius = make_setup()
        injector = FaultInjector(net, varius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            injector.refresh([80.0] * 16)
        assert injector.saturation_events == 0

    def test_relax_factor_clamped_to_one(self):
        # Pathological VARIUS corner: relaxing *raises* the probability.
        net, varius = make_setup()
        injector = self._patched(FaultInjector(net, varius), p=0.1, p_relaxed=0.5)
        injector.refresh([80.0] * 16)
        for _, model in net.channel_models():
            assert model.relax_factor == 1.0

    def test_relax_factor_floor_at_zero(self):
        net, varius = make_setup()
        injector = self._patched(FaultInjector(net, varius), p=0.1, p_relaxed=-0.5)
        injector.refresh([80.0] * 16)
        for _, model in net.channel_models():
            assert model.relax_factor == 0.0

    def test_zero_probability_means_zero_relax(self):
        net, varius = make_setup()
        injector = self._patched(FaultInjector(net, varius), p=0.0, p_relaxed=0.3)
        injector.refresh([80.0] * 16)
        for _, model in net.channel_models():
            assert model.event_probability == 0.0
            assert model.relax_factor == 0.0


class TestUniform:
    def test_mean_probability_empty(self):
        net, varius = make_setup()
        assert FaultInjector(net, varius).mean_probability() == 0.0

    def test_mean_probability_includes_a_burst_floor(self):
        net, varius = make_setup()
        injector = FaultInjector(net, varius)
        injector.refresh([50.0] * 16)
        substrate = injector.mean_probability()
        assert 0.0 < substrate < 0.2
        for _, model in net.channel_models():
            model.set_burst_floor(0.2)
        assert injector.mean_probability() == pytest.approx(0.2)
        for _, model in net.channel_models():
            model.set_burst_floor(0.0)
        assert injector.mean_probability() == substrate
