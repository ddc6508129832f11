"""VARIUS-style process-variation and timing-error model.

The paper derives per-link timing-error probabilities at runtime by
feeding router conditions (voltage, frequency, utilization, temperature)
through the VARIUS model [Sarangi et al., IEEE TSM 2008].  This module
re-implements the published mathematics at the abstraction the simulator
needs:

* each router has a *systematic* critical-path-delay multiplier drawn
  from a spatially-correlated Gaussian field (slow and fast regions of
  the die), plus i.i.d. *random* per-transfer delay noise;
* the mean critical-path delay grows with temperature (carrier-mobility
  degradation) and shrinks with supply voltage (alpha-power law);
* a timing error occurs when the sampled path delay exceeds the clock
  period, so the per-transfer error probability is the Gaussian tail
  ``Q((T_clk_eff - mean_delay) / sigma)``.

Mode 3's timing relaxation adds whole cycles to the effective clock
period seen by the transfer, which collapses the tail probability to
"near zero" exactly as Section III describes.

Default constants are calibrated so that (delays normalized to the clock
period): p ~ 2e-4 at 50 C, ~2e-3 at 62 C, ~2e-2 at 75 C, ~1.2e-1 at
90 C — a steep, VARIUS-like dependence spanning the paper's observed
[50, 100] C operating range, strong enough that the CRC-only design
visibly degrades on the hot benchmarks (the regime Figs 6-10 evaluate).
The core-power proxy deliberately excludes retransmission traffic, so
errors degrade a design's latency/energy without running away thermally.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

__all__ = ["VariusParams", "VariusModel", "gaussian_tail"]


def gaussian_tail(z: float) -> float:
    """Upper-tail probability Q(z) of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class VariusParams:
    """Constants of the timing-error model (delays in clock-period units).

    Attributes
    ----------
    nominal_delay:
        Mean critical-path delay at ``t_ref`` and nominal voltage, as a
        fraction of the clock period.
    temp_coefficient:
        Fractional delay increase per degree C above ``t_ref``.
    sigma:
        Standard deviation of the random per-transfer delay component.
    sigma_systematic:
        Standard deviation of the per-router systematic multiplier
        (before spatial smoothing).
    smoothing_passes:
        Neighbour-averaging passes applied to the systematic field —
        more passes mean longer spatial correlation, as in VARIUS's
        correlated-variation maps.
    t_ref:
        Reference temperature in degrees C.
    v_nominal, v_threshold, alpha_power:
        Alpha-power-law voltage scaling of delay.
    """

    def __init__(
        self,
        nominal_delay: float = 0.893,
        temp_coefficient: float = 0.002,
        sigma: float = 0.03,
        sigma_systematic: float = 0.02,
        smoothing_passes: int = 2,
        t_ref: float = 50.0,
        v_nominal: float = 1.0,
        v_threshold: float = 0.30,
        alpha_power: float = 1.3,
    ) -> None:
        if not 0.0 < nominal_delay < 1.0:
            raise ValueError("nominal delay must be a fraction of the clock period")
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        self.nominal_delay = nominal_delay
        self.temp_coefficient = temp_coefficient
        self.sigma = sigma
        self.sigma_systematic = sigma_systematic
        self.smoothing_passes = smoothing_passes
        self.t_ref = t_ref
        self.v_nominal = v_nominal
        self.v_threshold = v_threshold
        self.alpha_power = alpha_power


class VariusModel:
    """Per-die instance of the variation model for a ``width x height`` grid."""

    def __init__(
        self,
        width: int,
        height: int,
        params: Optional[VariusParams] = None,
        seed: int = 0,
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("grid must be at least 1x1")
        self.width = width
        self.height = height
        self.params = params if params is not None else VariusParams()
        self._systematic = self._build_systematic_field(random.Random(seed))

    # ------------------------------------------------------------------
    def _build_systematic_field(self, rng: random.Random) -> List[float]:
        p = self.params
        field = [rng.gauss(0.0, p.sigma_systematic) for _ in range(self.width * self.height)]
        for _ in range(p.smoothing_passes):
            smoothed = list(field)
            for y in range(self.height):
                for x in range(self.width):
                    node = y * self.width + x
                    total = field[node]
                    count = 1
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nx, ny = x + dx, y + dy
                        if 0 <= nx < self.width and 0 <= ny < self.height:
                            total += field[ny * self.width + nx]
                            count += 1
                    smoothed[node] = total / count
            field = smoothed
        return [1.0 + v for v in field]

    # ------------------------------------------------------------------
    def systematic_multiplier(self, node: int) -> float:
        """The fixed process-variation delay multiplier of one router."""
        return self._systematic[node]

    def mean_delay(self, node: int, temperature: float, voltage: Optional[float] = None) -> float:
        """Mean critical-path delay (clock-period units) at runtime
        conditions."""
        p = self.params
        delay = p.nominal_delay * self._systematic[node]
        delay *= 1.0 + p.temp_coefficient * (temperature - p.t_ref)
        if voltage is not None and voltage != p.v_nominal:
            if voltage <= p.v_threshold:
                raise ValueError("supply voltage at or below threshold")
            nominal_drive = (p.v_nominal - p.v_threshold) ** p.alpha_power / p.v_nominal
            actual_drive = (voltage - p.v_threshold) ** p.alpha_power / voltage
            delay *= nominal_drive / actual_drive
        return delay

    def timing_error_probability(
        self,
        node: int,
        temperature: float,
        voltage: Optional[float] = None,
        relax_cycles: int = 0,
    ) -> float:
        """Per-transfer timing-error probability at the given conditions.

        ``relax_cycles`` extends the effective sampling period by whole
        cycles (mode 3's relaxed timing constraint).
        """
        if relax_cycles < 0:
            raise ValueError("relax_cycles cannot be negative")
        mean = self.mean_delay(node, temperature, voltage)
        margin = (1.0 + relax_cycles) - mean
        return gaussian_tail(margin / self.params.sigma)
