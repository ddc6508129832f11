"""Fault-tolerant control policy interface.

Every compared design — static CRC, static ARQ+ECC, the decision-tree
predictor, and the proposed RL controller — implements this small
protocol.  The simulator drives it once per control epoch for every
router it has not degraded (a degraded router is the simulator's alone:
it runs in mode 3 and the policy never sees it again):

1. :meth:`learn` delivers the transition the router just experienced
   (previous observation, the mode that was active, the reward defined
   by paper equation 3, and the fresh observation);
2. :meth:`select` asks for the mode to apply for the next epoch.

Static policies ignore :meth:`learn`; the DT baseline uses it only
during its pre-training phase (after which its model is frozen,
Section V-B); the RL policy applies the temporal-difference rule on
every call, which is what makes it adapt online.
"""

from __future__ import annotations

import abc
import math
from math import inf, isfinite
from operator import ne
from typing import Dict, List, Optional, Tuple

from repro.core.modes import OperationMode
from repro.core.state import (
    AMBIENT_C,
    NUM_PORTS,
    DiscretizationConfig,
    RouterObservation,
)
from repro.power.orion import DesignPowerProfile

__all__ = [
    "ControlPolicy",
    "GuardReport",
    "ObservationGuard",
    "compute_reward",
]


def compute_reward(
    mean_latency_cycles: float,
    power_watts: float,
    counter=None,
) -> float:
    """Paper equation 3: ``r = [E2E_latency(i) * Power(i)]^-1``.

    Latency is the average end-to-end latency of packets that traversed
    the router during the epoch; power is the router's average total
    (static + dynamic) power over the same epoch.  Both are floored to
    keep the reward finite on idle epochs; non-finite inputs (NaN/inf
    from a broken sensor path) are clamped to the same floors and
    counted so they can never poison a Q-table.

    ``counter`` is any object with an ``inc()`` method (e.g. a
    ``repro.obs.metrics.Counter`` from a per-run registry, which resets
    cleanly between runs); without one the inputs are still clamped.
    """
    if not math.isfinite(mean_latency_cycles):
        if counter is not None:
            counter.inc()
        mean_latency_cycles = 1.0
    if not math.isfinite(power_watts):
        if counter is not None:
            counter.inc()
        power_watts = 1e-6
    latency = max(mean_latency_cycles, 1.0)
    power = max(power_watts, 1e-6)
    return 1.0 / (latency * power)


#: (low, high) clamp bounds of the list fields whose range is fixed
_LIST_BOUNDS = {"util": (0.0, inf), "nack": (0.0, 1.0)}


class GuardReport:
    """What :meth:`ObservationGuard.inspect` did to one observation."""

    __slots__ = ("holds", "clamps", "defaults", "rejected", "streak")

    def __init__(self) -> None:
        self.holds = 0        # fields repaired from the last good reading
        self.clamps = 0       # finite but out-of-range fields clamped
        self.defaults = 0     # fields with no recent good reading, zeroed
        self.rejected = False  # any field was invalid this epoch
        self.streak = 0       # consecutive rejected observations, this one included

    @property
    def dirty(self) -> bool:
        return bool(self.holds or self.clamps or self.defaults)


class ObservationGuard:
    """Consumer-side hardening of the telemetry -> policy path.

    Sits between :func:`repro.core.state.observe_router` and
    ``ControlPolicy.select``/``learn`` and enforces, per router:

    * **validation** — every Table I field must be present (not ``None``)
      and finite; invalid fields mark the observation *rejected*;
    * **last-good hold** — a rejected field is repaired from the last
      valid reading if one was seen within ``hold_ttl`` epochs,
      otherwise replaced by a conservative default (idle counters,
      ambient temperature);
    * **range clamping** — finite but out-of-range values (negative
      utilization, NACK rate above 1, absurd temperatures) are clamped
      and tallied instead of flowing into discretization;
    * **reject streaks** — each report carries the router's count of
      *consecutive* rejected observations; the simulator, not the guard,
      degrades a router whose streak reaches ``SENSOR_QUARANTINE_K``.

    A healthy observation passes through untouched — the guard touches
    no RNG, so golden trace digests of fault-free runs are unchanged.
    The guard repairs the raw fields only; the simulator's observe stage
    re-discretizes an observation the guard made dirty.  All state
    (last-good store, reject streaks) pickles with the simulator,
    keeping resumed runs bit-identical.
    """

    #: (attribute, kind) of the list-valued Table I fields; kind selects
    #: the clamp bounds and default.  The sixth field, ``temperature``, is
    #: a scalar and is inspected last.
    _LIST_FIELDS: Tuple[Tuple[str, str], ...] = (
        ("occupied_vcs", "buf"),
        ("input_utilization", "util"),
        ("output_utilization", "util"),
        ("input_nack_rate", "nack"),
        ("output_nack_rate", "nack"),
    )
    #: physically plausible ceiling for an on-die temperature reading
    MAX_TEMPERATURE = 250.0

    def __init__(
        self,
        num_routers: int,
        state_config: Optional[DiscretizationConfig] = None,
        hold_ttl: int = 3,
        default_temperature: float = AMBIENT_C,
    ) -> None:
        if num_routers <= 0:
            raise ValueError("need at least one router")
        if hold_ttl < 1:
            raise ValueError("hold_ttl must be at least one epoch")
        self.state_config = state_config or DiscretizationConfig()
        self.hold_ttl = hold_ttl
        self.default_temperature = default_temperature
        #: per router: attribute -> (epoch_seen, value) of last valid reading
        self._last_good: List[Dict[str, Tuple[int, object]]] = [
            {} for _ in range(num_routers)
        ]
        #: consecutive rejected observations per router
        self._streak: List[int] = [0] * num_routers

    # ------------------------------------------------------------------
    def _default_for(self, kind: str) -> object:
        if kind == "temp":
            return self.default_temperature
        if kind == "buf":
            return [0] * NUM_PORTS
        return [0.0] * NUM_PORTS

    def _repair(
        self,
        report: GuardReport,
        obs: RouterObservation,
        attr: str,
        kind: str,
        last_good: Dict[str, Tuple[int, object]],
        epoch_index: int,
    ) -> None:
        """Replace an invalid field by its last valid reading if that is
        at most ``hold_ttl`` epochs old, else by the default."""
        report.rejected = True
        held = last_good.get(attr)
        if held is not None and epoch_index - held[0] <= self.hold_ttl:
            replacement = held[1]
            report.holds += 1
        else:
            replacement = self._default_for(kind)
            report.defaults += 1
        setattr(
            obs, attr,
            list(replacement) if isinstance(replacement, list) else replacement,
        )

    def inspect(
        self,
        router_id: int,
        obs: RouterObservation,
        epoch_index: int,
    ) -> GuardReport:
        """Validate/repair one observation's raw fields in place; returns
        the report (``obs.discrete`` is stale when it is dirty).

        Must be called once per router per epoch so the reject streaks
        and hold TTLs advance correctly.  A valid field is clamped into
        its physical range: VC counts to [0, num_vcs], utilizations to
        [0, inf) (binning saturates them), NACK rates to [0, 1] and the
        temperature to [0, MAX_TEMPERATURE].
        """
        report = GuardReport()
        last_good = self._last_good[router_id]
        num_vcs = self.state_config.num_vcs
        for attr, kind in self._LIST_FIELDS:
            value = getattr(obs, attr)
            # Valid: a list of NUM_PORTS finite numbers.
            try:
                valid = (
                    isinstance(value, list)
                    and len(value) == NUM_PORTS
                    and all(map(isfinite, value))
                )
            except TypeError:
                valid = False
            if not valid:
                self._repair(report, obs, attr, kind, last_good, epoch_index)
                continue
            lo, hi = (0, num_vcs) if kind == "buf" else _LIST_BOUNDS[kind]
            clamped = [lo if el < lo else hi if el > hi else el for el in value]
            hits = sum(map(ne, clamped, value))
            if hits:
                report.clamps += hits
                setattr(obs, attr, clamped)
                clamped = list(clamped)
            last_good[attr] = (epoch_index, clamped)
        temperature = obs.temperature
        if isinstance(temperature, (int, float)) and isfinite(temperature):
            clamped = min(max(temperature, 0.0), self.MAX_TEMPERATURE)
            if clamped != temperature:
                report.clamps += 1
                obs.temperature = clamped
            last_good["temperature"] = (epoch_index, clamped)
        else:
            self._repair(report, obs, "temperature", "temp", last_good, epoch_index)
        if report.rejected:
            self._streak[router_id] += 1
            report.streak = self._streak[router_id]
        else:
            self._streak[router_id] = 0
        return report


class ControlPolicy(abc.ABC):
    """Per-design mode-selection policy."""

    #: power/area profile of the router design this policy runs on
    profile: DesignPowerProfile

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def trainable(self) -> bool:
        """Whether the policy has a learning phase at all."""
        return False

    def reset(self, num_routers: int) -> None:
        """Prepare per-router state before a simulation run."""

    @abc.abstractmethod
    def select(self, router_id: int, observation: RouterObservation) -> OperationMode:
        """Mode to apply to ``router_id`` for the next epoch."""

    def learn(
        self,
        router_id: int,
        observation: RouterObservation,
        action: OperationMode,
        reward: float,
        next_observation: RouterObservation,
    ) -> None:
        """Consume one transition; no-op for non-learning policies."""

    def q_values(self, router_id: int, state) -> Optional[tuple]:
        """Per-action value estimates for telemetry, or ``None``.

        Value-based policies override this so the trace layer can record
        *why* an action was chosen; policies without action-value
        estimates (static designs, the DT baseline) return ``None``.
        Must be side-effect free: introspection never advances RNG or
        learning state, or traced runs would diverge from untraced ones.
        """
        return None

    def freeze(self) -> None:
        """End of pre-training: stop exploring / stop updating models.

        The DT baseline freezes its trained tree here (its training
        result "is no longer updated during testing", Section V-B);
        the RL policy keeps learning, exactly as the paper describes.
        """

    # ------------------------------------------------------------------
    # Resilience hooks (soft-error storage and checkpoint/resume)
    # ------------------------------------------------------------------
    def attach_q_storages(self, ecc: bool = True) -> List[object]:
        """Back the policy's learned state with fixed-point (optionally
        SECDED-protected) storages so soft-error campaigns have real SRAM
        bits to upset.  Policies without learned SRAM state (the static
        designs, the frozen DT baseline) have nothing to protect and
        return an empty list.
        """
        return []

    def q_storages(self) -> List[object]:
        """The storages attached by :meth:`attach_q_storages` (or none),
        in a stable order; the simulator addresses SEUs and schedules
        scrubs through this list every epoch.
        """
        return []

    def to_state(self) -> Dict[str, object]:
        """Durable snapshot of the policy's learned state (checkpoints).

        Stateless policies carry only their name; learning policies
        override this with their full model state.
        """
        return {"policy": self.name}

    def load_state(self, state: Optional[Dict[str, object]]) -> Dict[int, str]:
        """Restore (and validate) a :meth:`to_state` snapshot.

        Implementations validate before trusting the state and, instead
        of raising, give a router whose table is rejected a fresh one;
        the returned ``{router: reason}`` names those routers (a resumed
        run degrades them, a campaign clone fails).  The default is a
        no-op — stateless policies have nothing to restore.
        """
        return {}
