"""HotSpot-style compact thermal model.

The paper feeds per-router activity into HotSpot [Huang et al., IEEE
TVLSI 2006] to obtain router temperatures, which in turn drive the VARIUS
timing-error probabilities.  This module implements the equivalent
compact RC network at the granularity the control loop needs:

* one thermal node per router tile;
* a vertical resistance from each tile through the heat spreader and
  sink to ambient;
* lateral resistances between adjacent tiles (heat spreading);
* one lumped capacitance per tile for transient behaviour, integrated
  with explicit Euler at each control epoch.

The defaults are calibrated so an idle router (~50 mW) sits near 50 C
and a saturated router (~0.5 W) approaches 95-100 C — the paper's
observed [50, 100] C operating range (Section IV-B).

The per-epoch coupling constant ``alpha = dt / (r_vertical * capacitance)``
defaults to an *accelerated* thermal time constant (a few control epochs)
so that scaled-down simulations still exercise the full power -> heat ->
error feedback loop; the physical silicon constant (milliseconds, i.e.
thousands of epochs) is selectable through ``capacitance``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.state import AMBIENT_C

__all__ = ["ThermalGrid"]


class ThermalGrid:
    """RC thermal network over a ``width x height`` tile grid.

    Parameters
    ----------
    width, height:
        Grid dimensions (one tile per router).
    t_ambient:
        Heatsink/ambient temperature in degrees C.
    r_vertical:
        Tile-to-ambient thermal resistance (K/W).
    r_lateral:
        Tile-to-adjacent-tile thermal resistance (K/W).
    alpha:
        Fraction of the steady-state temperature step applied per
        :meth:`step` call — the discretized ``dt / (R_v * C)``.  Values
        in (0, 1]; 1.0 makes each step jump straight to equilibrium.
    """

    def __init__(
        self,
        width: int,
        height: int,
        t_ambient: float = AMBIENT_C,
        r_vertical: float = 100.0,
        r_lateral: float = 50.0,
        alpha: float = 0.25,
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("grid must be at least 1x1")
        if r_vertical <= 0 or r_lateral <= 0:
            raise ValueError("thermal resistances must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.width = width
        self.height = height
        self.n = width * height
        self.t_ambient = t_ambient
        self.r_vertical = r_vertical
        self.r_lateral = r_lateral
        self.alpha = alpha
        self.temperatures = np.full(self.n, t_ambient, dtype=float)
        self._conductance = self._build_conductance_matrix()

    # ------------------------------------------------------------------
    def _build_conductance_matrix(self) -> np.ndarray:
        """G such that steady state solves G @ (T - T_amb) = P."""
        g_v = 1.0 / self.r_vertical
        g_l = 1.0 / self.r_lateral
        g = np.zeros((self.n, self.n), dtype=float)
        for y in range(self.height):
            for x in range(self.width):
                node = y * self.width + x
                g[node, node] += g_v
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < self.width and 0 <= ny < self.height:
                        other = ny * self.width + nx
                        g[node, node] += g_l
                        g[node, other] -= g_l
        return g

    # ------------------------------------------------------------------
    def steady_state(self, power_watts: Sequence[float]) -> np.ndarray:
        """Equilibrium temperatures for a constant power vector."""
        p = np.asarray(power_watts, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"expected {self.n} power values")
        if np.any(p < 0):
            raise ValueError("power cannot be negative")
        return self.t_ambient + np.linalg.solve(self._conductance, p)

    def step(self, power_watts: Sequence[float]) -> np.ndarray:
        """Advance one control epoch toward the new equilibrium.

        First-order relaxation: ``T += alpha * (T_eq(P) - T)``, the
        explicit-Euler discretization of the RC network with time step
        ``alpha * R_v * C``.  Returns the updated temperature vector.
        """
        target = self.steady_state(power_watts)
        self.temperatures += self.alpha * (target - self.temperatures)
        return self.temperatures.copy()

    def as_list(self) -> List[float]:
        return self.temperatures.tolist()
