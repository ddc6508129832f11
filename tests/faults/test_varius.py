"""Tests for the VARIUS-style timing-error model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import VariusModel, VariusParams, gaussian_tail


class TestGaussianTail:
    def test_symmetry_point(self):
        assert abs(gaussian_tail(0.0) - 0.5) < 1e-12

    def test_known_values(self):
        assert abs(gaussian_tail(1.645) - 0.05) < 1e-3
        assert abs(gaussian_tail(3.09) - 0.001) < 1e-4

    def test_monotone_decreasing(self):
        values = [gaussian_tail(z) for z in (-2, -1, 0, 1, 2, 3)]
        assert values == sorted(values, reverse=True)


class TestParams:
    def test_rejects_bad_nominal_delay(self):
        with pytest.raises(ValueError):
            VariusParams(nominal_delay=1.2)
        with pytest.raises(ValueError):
            VariusParams(nominal_delay=0.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            VariusParams(sigma=0.0)


class TestModel:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            VariusModel(0, 4)

    def test_systematic_field_is_near_one(self):
        model = VariusModel(8, 8, seed=3)
        values = [model.systematic_multiplier(n) for n in range(64)]
        assert all(0.85 < v < 1.15 for v in values)
        mean = sum(values) / len(values)
        assert abs(mean - 1.0) < 0.02

    def test_systematic_field_is_deterministic_per_seed(self):
        a = VariusModel(4, 4, seed=7)
        b = VariusModel(4, 4, seed=7)
        c = VariusModel(4, 4, seed=8)
        assert [a.systematic_multiplier(n) for n in range(16)] == [
            b.systematic_multiplier(n) for n in range(16)
        ]
        assert [a.systematic_multiplier(n) for n in range(16)] != [
            c.systematic_multiplier(n) for n in range(16)
        ]

    def test_spatial_correlation(self):
        """Smoothing makes neighbours more alike than distant nodes."""
        model = VariusModel(8, 8, seed=1)
        neighbour_gap = []
        distant_gap = []
        for y in range(8):
            for x in range(7):
                a = model.systematic_multiplier(y * 8 + x)
                b = model.systematic_multiplier(y * 8 + x + 1)
                neighbour_gap.append(abs(a - b))
        for n in range(32):
            distant_gap.append(
                abs(model.systematic_multiplier(n) - model.systematic_multiplier(63 - n))
            )
        assert sum(neighbour_gap) / len(neighbour_gap) < sum(distant_gap) / len(distant_gap)

    def test_calibration_anchors(self):
        """Defaults span ~2e-4 at 50C to ~0.12 at 90C (see module doc)."""
        params = VariusParams(sigma_systematic=0.0)  # isolate nominal device
        model = VariusModel(1, 1, params=params)
        p50 = model.timing_error_probability(0, 50.0)
        p75 = model.timing_error_probability(0, 75.0)
        p90 = model.timing_error_probability(0, 90.0)
        assert 1e-5 < p50 < 1e-3
        assert 0.005 < p75 < 0.05
        assert 0.05 < p90 < 0.20

    def test_probability_monotone_in_temperature(self):
        model = VariusModel(2, 2, seed=0)
        probs = [model.timing_error_probability(0, t) for t in range(50, 105, 5)]
        assert probs == sorted(probs)

    def test_relaxation_collapses_probability(self):
        model = VariusModel(1, 1)
        hot = model.timing_error_probability(0, 100.0)
        relaxed = model.timing_error_probability(0, 100.0, relax_cycles=2)
        assert relaxed < hot * 1e-6

    def test_rejects_negative_relax(self):
        with pytest.raises(ValueError):
            VariusModel(1, 1).timing_error_probability(0, 60.0, relax_cycles=-1)

    def test_low_voltage_increases_delay(self):
        model = VariusModel(1, 1)
        assert model.mean_delay(0, 60.0, voltage=0.9) > model.mean_delay(0, 60.0)

    def test_overdrive_reduces_delay(self):
        model = VariusModel(1, 1)
        assert model.mean_delay(0, 60.0, voltage=1.1) < model.mean_delay(0, 60.0)

    def test_rejects_subthreshold_voltage(self):
        with pytest.raises(ValueError):
            VariusModel(1, 1).mean_delay(0, 60.0, voltage=0.2)


@settings(max_examples=100)
@given(
    t=st.floats(min_value=40.0, max_value=110.0),
    relax=st.integers(min_value=0, max_value=3),
)
def test_property_probability_is_valid_and_relaxation_helps(t, relax):
    model = VariusModel(2, 2, seed=5)
    p = model.timing_error_probability(1, t, relax_cycles=relax)
    assert 0.0 <= p <= 1.0
    assert p <= model.timing_error_probability(1, t, relax_cycles=0)
