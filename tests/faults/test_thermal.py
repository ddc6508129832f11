"""Tests for the compact RC thermal model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ThermalGrid


class TestConstruction:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ThermalGrid(0, 4)

    def test_rejects_bad_resistances(self):
        with pytest.raises(ValueError):
            ThermalGrid(2, 2, r_vertical=0)
        with pytest.raises(ValueError):
            ThermalGrid(2, 2, r_lateral=-1)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ThermalGrid(2, 2, alpha=0.0)
        with pytest.raises(ValueError):
            ThermalGrid(2, 2, alpha=1.5)

    def test_starts_at_ambient(self):
        grid = ThermalGrid(4, 4, t_ambient=45.0)
        assert np.allclose(grid.temperatures, 45.0)


class TestSteadyState:
    def test_zero_power_is_ambient(self):
        grid = ThermalGrid(3, 3)
        assert np.allclose(grid.steady_state([0.0] * 9), grid.t_ambient)

    def test_uniform_power_heats_uniformly(self):
        grid = ThermalGrid(3, 3, t_ambient=45.0, r_vertical=100.0)
        temps = grid.steady_state([0.1] * 9)
        # Uniform load: no lateral flow, pure vertical: T = 45 + 0.1*100.
        assert np.allclose(temps, 55.0)

    def test_calibration_idle_and_hot(self):
        """~50 mW idle ~= 50 C; ~0.5 W saturated pushes toward 95 C."""
        grid = ThermalGrid(1, 1)
        idle = grid.steady_state([0.05])[0]
        hot = grid.steady_state([0.5])[0]
        assert 48.0 <= idle <= 52.0
        assert 90.0 <= hot <= 100.0

    def test_hotspot_spreads_laterally(self):
        grid = ThermalGrid(3, 3)
        power = [0.0] * 9
        power[4] = 0.5  # centre tile only
        temps = grid.steady_state(power)
        assert temps[4] == max(temps)
        assert temps[1] > grid.t_ambient  # neighbour warmed by spreading
        assert temps[4] < grid.t_ambient + 0.5 * grid.r_vertical  # some heat leaves sideways

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            ThermalGrid(2, 2).steady_state([0.1, -0.1, 0.0, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ThermalGrid(2, 2).steady_state([0.1])


class TestTransient:
    def test_step_approaches_equilibrium(self):
        grid = ThermalGrid(2, 2, alpha=0.25)
        target = grid.steady_state([0.3] * 4)
        previous_gap = np.inf
        for _ in range(30):
            temps = grid.step([0.3] * 4)
            gap = float(np.max(np.abs(temps - target)))
            assert gap <= previous_gap + 1e-9
            previous_gap = gap
        assert previous_gap < 0.5

    def test_alpha_one_jumps_to_equilibrium(self):
        grid = ThermalGrid(2, 2, alpha=1.0)
        temps = grid.step([0.2] * 4)
        assert np.allclose(temps, grid.steady_state([0.2] * 4))

    def test_cooling_after_load_removed(self):
        grid = ThermalGrid(2, 2, alpha=0.5)
        for _ in range(10):
            grid.step([0.4] * 4)
        hot = grid.temperatures.copy()
        for _ in range(10):
            grid.step([0.0] * 4)
        assert np.all(grid.temperatures < hot)


@settings(max_examples=60, deadline=None)
@given(
    power=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=9, max_size=9
    )
)
def test_property_steady_state_bounds(power):
    """Steady state lies between ambient and the no-spreading bound, and
    more power never cools any tile."""
    grid = ThermalGrid(3, 3)
    temps = grid.steady_state(power)
    assert np.all(temps >= grid.t_ambient - 1e-9)
    assert np.all(temps <= grid.t_ambient + grid.r_vertical * max(power) + 1e-9)
    bumped = list(power)
    bumped[4] += 0.1
    hotter = grid.steady_state(bumped)
    assert np.all(hotter >= temps - 1e-9)
