"""RL state space: Table I features and their discretization.

Each router observes six classes of NoC attributes (Table I):

1. input buffer utilization — occupied input VCs, per port;
2. input link utilization — input flits/cycle, per port;
3. output link utilization — output flits/cycle, per port;
4. input NACK rate — NACKs received / flits sent, per port;
5. output NACK rate — NACKs sent / flits received, per port;
6. local router temperature.

Continuous features are discretized exactly as Section IV-B prescribes:
features 1-3 and 6 into five bins, features 4-5 into four; utilization
bins are equal in linear space against the observed 0.3 flits/cycle
maximum, NACK-rate bins are equal in log space, and temperature bins
cover the observed [50, 100] C range evenly.

Two encodings are offered:

* ``full`` — the paper's literal state: one bin per feature per port
  (26 dimensions), faithful but slow to explore in scaled-down runs;
* ``compact`` — per-feature aggregates across ports (6 dimensions),
  which preserves the decision-relevant signal (error level, load,
  temperature) and is the default for the shortened benchmark runs.
  DESIGN.md documents this substitution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.noc.router import NUM_VCS, Router

__all__ = [
    "AMBIENT_C",
    "NUM_PORTS",
    "DiscretizationConfig",
    "RouterObservation",
    "discretize_observation",
    "observe_router",
]

#: Number of router ports (LOCAL + 4 directions).
NUM_PORTS = 5
_NUM_PORTS = NUM_PORTS

#: Ambient (heatsink) temperature in degrees C: where the thermal grid
#: starts and settles without power, and the reading the observation
#: guard substitutes for a lost temperature sensor.
AMBIENT_C = 45.0


@dataclass(frozen=True)
class DiscretizationConfig:
    """Bin boundaries of the Table I feature space."""

    #: maximum link utilization observed in the paper's benchmarks
    max_link_utilization: float = 0.3
    #: linear bins for features 1-3 and 6
    utilization_bins: int = 5
    #: log-space thresholds for NACK rates (4 bins: below first = 0 ...)
    nack_thresholds: Tuple[float, float, float] = (1e-3, 1e-2, 1e-1)
    temperature_range: Tuple[float, float] = (50.0, 100.0)
    temperature_bins: int = 5
    #: VCs per port, for the buffer-utilization bin ceiling
    num_vcs: int = NUM_VCS

    def utilization_bin(self, value: float) -> int:
        """Linear-space bin of a link utilization (flits/cycle).

        Total over the full float range: NaN reads as "no signal" (bin
        0), +inf saturates into the top bin, so a corrupted sensor can
        never crash discretization (bins unchanged for finite inputs).
        """
        if value != value or value <= 0.0:  # NaN or non-positive
            return 0
        fraction = min(value / self.max_link_utilization, 1.0)
        return min(int(fraction * self.utilization_bins), self.utilization_bins - 1)

    def buffer_bin(self, occupied_vcs: float) -> int:
        """Bin of an occupied-VC count (already near-discrete); total."""
        if occupied_vcs != occupied_vcs or occupied_vcs <= 0:  # NaN or <= 0
            return 0
        if occupied_vcs >= self.num_vcs:
            # Full — or corrupted high (huge finite values would overflow
            # the scaling multiply, +inf cannot reach math.ceil): top bin.
            return self.utilization_bins - 1
        scaled = occupied_vcs * (self.utilization_bins - 1) / self.num_vcs
        return min(int(math.ceil(scaled)), self.utilization_bins - 1)

    def nack_bin(self, rate: float) -> int:
        """Log-space bin of a NACK rate in [0, 1]: the number of
        (ascending) thresholds at or below ``rate``.

        Already total: every comparison against NaN is False, so NaN
        (like any rate at or above the last threshold) lands in the top
        bin, and -inf/0.0 land in bin 0.
        """
        return bisect_right(self.nack_thresholds, rate)

    def temperature_bin(self, temperature: float) -> int:
        """Linear-space bin over ``temperature_range``; total (NaN -> 0)."""
        lo, hi = self.temperature_range
        if temperature != temperature or temperature <= lo:  # NaN or cold
            return 0
        fraction = min((temperature - lo) / (hi - lo), 1.0)
        return min(int(fraction * self.temperature_bins), self.temperature_bins - 1)


@dataclass
class RouterObservation:
    """One router's view of the NoC at an epoch boundary.

    Carries both the raw continuous features (used by the decision-tree
    baseline, which regresses on them) and the discretized state tuple
    (used as the Q-table key by the RL policy).
    """

    router_id: int
    occupied_vcs: List[int]
    input_utilization: List[float]
    output_utilization: List[float]
    input_nack_rate: List[float]
    output_nack_rate: List[float]
    temperature: float
    #: discretized Q-table key, filled by :func:`observe_router`
    discrete: Tuple[int, ...] = field(default_factory=tuple)
    #: ground-truth mean timing-error probability of this router's output
    #: channels, attached by the simulator for supervised baselines
    true_error_probability: float = 0.0

    def raw_vector(self) -> List[float]:
        """The 26-dimensional continuous feature vector (Table I order)."""
        return (
            [float(v) for v in self.occupied_vcs]
            + list(self.input_utilization)
            + list(self.output_utilization)
            + list(self.input_nack_rate)
            + list(self.output_nack_rate)
            + [self.temperature]
        )


def discretize_observation(
    obs: RouterObservation,
    config: DiscretizationConfig,
    compact: bool = True,
    mode: Optional[int] = None,
) -> Tuple[int, ...]:
    """Discretize an observation's raw features into a Q-table key.

    The single binning path shared by :func:`observe_router` (fresh
    telemetry) and the simulator's observe stage (re-binning a reading
    the sensors corrupted or the guard repaired), so both always agree.
    ``mode`` appends the router's operation mode when the state encoding
    includes it.
    """
    cfg = config
    if compact:
        bins = [
            cfg.buffer_bin(max(obs.occupied_vcs)),
            cfg.utilization_bin(sum(obs.input_utilization) / _NUM_PORTS),
            cfg.utilization_bin(sum(obs.output_utilization) / _NUM_PORTS),
            cfg.nack_bin(max(obs.input_nack_rate)),
            cfg.nack_bin(max(obs.output_nack_rate)),
            cfg.temperature_bin(obs.temperature),
        ]
    else:
        bins = []
        bins.extend(cfg.buffer_bin(v) for v in obs.occupied_vcs)
        bins.extend(cfg.utilization_bin(u) for u in obs.input_utilization)
        bins.extend(cfg.utilization_bin(u) for u in obs.output_utilization)
        bins.extend(cfg.nack_bin(r) for r in obs.input_nack_rate)
        bins.extend(cfg.nack_bin(r) for r in obs.output_nack_rate)
        bins.append(cfg.temperature_bin(obs.temperature))
    if mode is not None:
        bins.append(int(mode))
    return tuple(bins)


def observe_router(
    router: Router,
    epoch_cycles: int,
    config: Optional[DiscretizationConfig] = None,
    compact: bool = True,
    include_mode: bool = True,
) -> RouterObservation:
    """Build one router's observation from its epoch counters.

    ``compact`` selects the aggregated 6-dimensional discrete encoding
    (benchmark default); ``compact=False`` produces the paper's literal
    26-dimensional per-port state.

    ``include_mode`` appends the router's *current* operation mode to the
    discrete state.  Table I does not list it, but without it the state
    is non-Markov: "no NACKs at high temperature" is indistinguishable
    between a mode-3 router (protected and genuinely quiet) and a mode-0
    router (unprotected, errors simply invisible until the destination
    CRC fires), which systematically mis-values actions.  The hardware
    knows its own mode for free; the ablation bench quantifies the
    effect of turning this off.
    """
    if epoch_cycles <= 0:
        raise ValueError("epoch must span at least one cycle")
    cfg = config if config is not None else DiscretizationConfig(num_vcs=router.num_vcs)
    epoch = router.epoch
    obs = RouterObservation(
        router_id=router.id,
        occupied_vcs=router.occupied_input_vcs(),
        input_utilization=epoch.input_link_utilization(epoch_cycles),
        output_utilization=epoch.output_link_utilization(epoch_cycles),
        input_nack_rate=epoch.input_nack_rate(),
        output_nack_rate=epoch.output_nack_rate(),
        temperature=router.temperature,
    )
    obs.discrete = discretize_observation(
        obs, cfg, compact=compact, mode=int(router.mode) if include_mode else None
    )
    return obs
