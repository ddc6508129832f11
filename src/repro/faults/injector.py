"""Runtime fault injection: binds VARIUS + thermal state to the channels.

Each control epoch, the simulator hands the injector the fresh per-router
temperature vector; the injector recomputes every channel's timing-error
event probability (from the *upstream* router's conditions — the channel
is driven by the sender's output stage, Section III's "channel i") and the
mode-3 relaxation factor, then writes them into the channel error models
where the NoC samples them at flit-delivery time.  The injector keeps no
copy: each channel model's ``event_probability`` (the larger of this
value and an active error burst's floor) is the one record of the rate a
channel suffers, and :meth:`FaultInjector.mean_probability` reads it.

``error_scale`` multiplies every event probability.  The simulator runs
at 1; a larger scale lets a short run accumulate enough error events for
stable statistics.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

from repro.faults.varius import VariusModel
from repro.noc.network import Network
from repro.obs.metrics import Counter, MetricRegistry

__all__ = ["FaultInjector"]

#: Extra cycles of timing slack granted by mode 3 (matches the two
#: pre-transmission stall cycles of Section III).
RELAX_CYCLES = 2


class FaultInjector:
    """Keeps channel error models in sync with die conditions."""

    def __init__(
        self,
        network: Network,
        varius: VariusModel,
        voltage: Optional[float] = None,
        error_scale: float = 1.0,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if error_scale < 0:
            raise ValueError("error_scale cannot be negative")
        if varius.width * varius.height != network.topology.num_nodes:
            raise ValueError("variation grid does not match the topology")
        self.network = network
        self.varius = varius
        self.voltage = voltage
        self.error_scale = error_scale
        # Refreshes where p * error_scale clipped at 1.0 — a saturated
        # probability means error_scale is too aggressive for the die
        # conditions and relative comparisons between channels are lost.
        # The tally lives in a registry counter (per-run, appears in
        # metric exports, resets with the registry) instead of bare
        # instance state; ``saturation_events`` stays as the public view.
        if registry is None:
            registry = MetricRegistry()
        self._saturation_counter: Counter = registry.counter(
            "injector.saturation_events"
        )

    @property
    def saturation_events(self) -> int:
        return self._saturation_counter.value

    def refresh(self, temperatures: Sequence[float]) -> None:
        """Recompute per-channel error probabilities for the next epoch."""
        if len(temperatures) != self.network.topology.num_nodes:
            raise ValueError("one temperature per router required")
        varius = self.varius
        # One (p, p * error_scale, relax factor) per router: every output
        # channel of a router shares its die conditions.
        per_router = []
        for src, temperature in enumerate(temperatures):
            p = varius.timing_error_probability(src, temperature, self.voltage)
            p_relaxed = varius.timing_error_probability(
                src, temperature, self.voltage, relax_cycles=RELAX_CYCLES
            )
            # p_relaxed can exceed p in pathological corners of the VARIUS
            # fit; the relax factor is a probability multiplier and must
            # stay inside [0, 1].
            ratio = (p_relaxed / p) if p > 0.0 else 0.0
            per_router.append(
                (p, p * self.error_scale, min(1.0, max(0.0, ratio)))
            )
        for key, model in self.network.channel_models():
            p, raw, relax = per_router[key[0]]
            if raw > 1.0:
                if self._saturation_counter.value == 0:
                    warnings.warn(
                        f"error probability saturated: p={p:g} * "
                        f"error_scale={self.error_scale:g} = {raw:g} > 1; "
                        "channel error rates are clipped and no longer "
                        "proportional to die conditions",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                self._saturation_counter.inc()
            # Routed through the model's setters so an unchanged epoch
            # keeps the skip-sampling countdowns (geometric gaps are
            # memoryless — no resample, no RNG draw, no extra work).
            model.set_probabilities(min(1.0, raw), relax)

    def mean_probability(self) -> float:
        """Average per-transfer error probability across all channels,
        an active error burst's floor included."""
        probabilities = [
            model.event_probability for _, model in self.network.channel_models()
        ]
        return sum(probabilities) / len(probabilities)
