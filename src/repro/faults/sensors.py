"""Sensor-fault campaigns: corrupting the *telemetry*, not the data plane.

:mod:`repro.faults.hardfaults` breaks the network itself; this module
breaks what the controller *sees*.  The DATE 2019 control loop drives
per-router mode selection from Table I telemetry (buffer occupancy, link
utilization, NACK rates, temperature), and a control plane that trusts a
stuck thermal diode or a dropped utilization register can thrash modes,
poison a Q-table, or crash discretization outright — the failure class
the self-healing NoC literature (FASHION, Dang et al.) says a resilient
controller must absorb.  The model sits on the observation path between
:func:`repro.core.state.observe_router` and
``ControlPolicy.select``/``learn`` and mutates the fresh
:class:`~repro.core.state.RouterObservation` in place, once per router
per control epoch.

Spec grammar (one rule per ``;``-separated clause)::

    stuck@r<N>.<field>=<v>   e.g. stuck@r3.temp=0.9   (sensor wedged at v)
    drop@<p>:<field>         e.g. drop@0.2:util       (reading lost, -> None)
    noise@<sigma>:<field>    e.g. noise@0.05:nack     (additive gaussian)
    stale@r<N>+<cycle>:<K>   e.g. stale@r7+400:8      (frozen for K epochs)

Fields name Table I feature groups: ``buf`` (occupied input VCs),
``util`` (input + output link utilization), ``nack`` (input + output
NACK rates), ``temp`` (local temperature), and ``all`` (every group, for
``drop``/``noise``).  ``stuck`` and ``stale`` are per-router; ``drop``
and ``noise`` afflict every router independently.  The empty string is
the healthy sensor bank (no rules).

Three properties mirror the hard-fault model's contract:

* **Determinism** — rules are pure values parsed into a canonical
  order (each rule's ``format()`` gives its clause back), and all
  randomness comes from one seeded :class:`random.Random` consumed in a
  fixed order (rules in canonical order, routers in id order, once per
  epoch), so a campaign is a pure function of (spec, seed) in any
  process and on either cycle kernel.
* **Resumability** — the model's whole mutable state (RNG, per-router
  last readings, staleness countdowns) pickles inside the simulator, so
  a killed-and-resumed run replays the exact same corruption stream.
  The model keeps no tallies: the simulator counts the events
  :meth:`SensorFaultModel.corrupt` returns under
  ``sensor.injected.<kind>`` in its metric registry.
* **Semantic layering** — within one epoch, noise is applied first, then
  dropout, then stuck-at (a wedged sensor does not jitter), then
  staleness (a frozen sensor replays its last *reported* — possibly
  already corrupted — reading).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.specs import check_routers, parse_router_token, parse_spec

__all__ = [
    "SENSOR_FIELDS",
    "SensorFaultRule",
    "SensorFaultModel",
    "parse_sensor_spec",
]

#: field name -> RouterObservation attributes it covers
_FIELD_ATTRS: Dict[str, Tuple[str, ...]] = {
    "buf": ("occupied_vcs",),
    "util": ("input_utilization", "output_utilization"),
    "nack": ("input_nack_rate", "output_nack_rate"),
    "temp": ("temperature",),
}
_FIELD_ATTRS["all"] = tuple(
    attr for field in ("buf", "util", "nack", "temp") for attr in _FIELD_ATTRS[field]
)

SENSOR_FIELDS: Tuple[str, ...] = ("buf", "util", "nack", "temp", "all")

#: which fields each kind accepts (noise on the integer VC counts would
#: be ill-typed, and stuck/stale target one concrete sensor)
_STUCK_FIELDS = ("buf", "util", "nack", "temp")
_DROP_FIELDS = SENSOR_FIELDS
_NOISE_FIELDS = ("util", "nack", "temp", "all")

_KIND_ORDER = ("stuck", "drop", "noise", "stale")


class SensorFaultRule:
    """One telemetry corruption rule (see the module grammar)."""

    __slots__ = ("kind", "router", "field", "value", "probability", "sigma",
                 "cycle", "epochs")

    KINDS = _KIND_ORDER

    def __init__(
        self,
        kind: str,
        router: int = 0,
        field: str = "all",
        value: float = 0.0,
        probability: float = 0.0,
        sigma: float = 0.0,
        cycle: int = 0,
        epochs: int = 0,
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown sensor fault kind {kind!r}")
        if router < 0:
            raise ValueError("router id cannot be negative")
        if kind == "stuck" and field not in _STUCK_FIELDS:
            raise ValueError(
                f"stuck field must be one of {', '.join(_STUCK_FIELDS)}, got {field!r}"
            )
        if kind == "drop":
            if field not in _DROP_FIELDS:
                raise ValueError(
                    f"drop field must be one of {', '.join(_DROP_FIELDS)}, got {field!r}"
                )
            if not 0.0 < probability <= 1.0:
                raise ValueError("drop probability must be in (0, 1]")
        if kind == "noise":
            if field not in _NOISE_FIELDS:
                raise ValueError(
                    f"noise field must be one of {', '.join(_NOISE_FIELDS)}, got {field!r}"
                )
            if not sigma > 0.0:
                raise ValueError("noise sigma must be positive")
        if kind == "stale":
            if cycle < 0:
                raise ValueError("stale onset cycle cannot be negative")
            if epochs <= 0:
                raise ValueError("stale duration must be at least one epoch")
        self.kind = kind
        self.router = router
        self.field = field
        self.value = value
        self.probability = probability
        self.sigma = sigma
        self.cycle = cycle
        self.epochs = epochs

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Canonical spec clause (inverse of :func:`parse_sensor_spec`)."""
        if self.kind == "stuck":
            return f"stuck@r{self.router}.{self.field}={self.value:g}"
        if self.kind == "drop":
            return f"drop@{self.probability:g}:{self.field}"
        if self.kind == "noise":
            return f"noise@{self.sigma:g}:{self.field}"
        return f"stale@r{self.router}+{self.cycle}:{self.epochs}"

    def sort_key(self) -> Tuple[int, int, str, int]:
        return (_KIND_ORDER.index(self.kind), self.router, self.field, self.cycle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SensorFaultRule({self.format()!r})"


def _parse_sensor_clause(kind: str, rest: str) -> SensorFaultRule:
    if kind == "stuck":
        target, value = rest.split("=", 1)
        router_token, field = target.split(".", 1)
        return SensorFaultRule(
            "stuck",
            router=parse_router_token(router_token),
            field=field.strip(),
            value=float(value),
        )
    if kind == "drop":
        probability, field = rest.split(":", 1)
        return SensorFaultRule(
            "drop", probability=float(probability), field=field.strip()
        )
    if kind == "noise":
        sigma, field = rest.split(":", 1)
        return SensorFaultRule("noise", sigma=float(sigma), field=field.strip())
    if kind == "stale":
        target, epochs = rest.split(":", 1)
        router_token, cycle = target.split("+", 1)
        return SensorFaultRule(
            "stale",
            router=parse_router_token(router_token),
            cycle=int(cycle),
            epochs=int(epochs),
        )
    raise ValueError(f"unknown sensor fault kind {kind!r}")


def parse_sensor_spec(spec: str) -> List[SensorFaultRule]:
    """Parse a ``;``-separated spec string into rules (canonical order)."""
    return parse_spec(spec, "sensor", _parse_sensor_clause, SensorFaultRule.sort_key)


def _snapshot(obs) -> Tuple:
    return (
        list(obs.occupied_vcs) if obs.occupied_vcs is not None else None,
        list(obs.input_utilization) if obs.input_utilization is not None else None,
        list(obs.output_utilization) if obs.output_utilization is not None else None,
        list(obs.input_nack_rate) if obs.input_nack_rate is not None else None,
        list(obs.output_nack_rate) if obs.output_nack_rate is not None else None,
        obs.temperature,
    )


def _restore(obs, snapshot: Tuple) -> None:
    (obs.occupied_vcs, obs.input_utilization, obs.output_utilization,
     obs.input_nack_rate, obs.output_nack_rate, obs.temperature) = (
        list(v) if isinstance(v, list) else v for v in snapshot
    )


class SensorFaultModel:
    """Applies a sensor-fault campaign to live observations.

    The simulator calls :meth:`corrupt` for every router at every epoch
    boundary, in router-id order — the fixed call pattern the seeded RNG
    stream depends on.  The whole object (RNG state included) pickles
    inside the simulator, so checkpointed runs resume bit-identically.
    """

    #: per-kind views of :attr:`rules`, rebuilt on unpickling, never pickled
    _DERIVED = ("_noise", "_drop", "_stuck_by_router", "_stale_by_router")

    def __init__(
        self,
        rules: Sequence[SensorFaultRule],
        num_routers: int,
        seed: int = 0,
    ) -> None:
        if num_routers <= 0:
            raise ValueError("need at least one router")
        check_routers(rules, "sensor", num_routers)
        self.rules: List[SensorFaultRule] = sorted(rules, key=SensorFaultRule.sort_key)
        self.rng = random.Random(seed)
        #: last *reported* (post-corruption) reading of each router a
        #: stale rule targets, the snapshot a newly-activating stale rule
        #: freezes and replays
        self._prev: Dict[int, Tuple] = {}
        #: per stale-rule index: held snapshot + remaining epochs
        self._stale: Dict[int, Dict[str, object]] = {}
        self._partition()

    def _partition(self) -> None:
        """Split :attr:`rules` by kind, keeping the canonical order."""
        self._noise = [rule for rule in self.rules if rule.kind == "noise"]
        self._drop = [rule for rule in self.rules if rule.kind == "drop"]
        #: router -> its stuck rules / its (rule index, stale rule) pairs
        self._stuck_by_router: Dict[int, List[SensorFaultRule]] = {}
        self._stale_by_router: Dict[int, List[Tuple[int, SensorFaultRule]]] = {}
        for index, rule in enumerate(self.rules):
            if rule.kind == "stuck":
                self._stuck_by_router.setdefault(rule.router, []).append(rule)
            elif rule.kind == "stale":
                self._stale_by_router.setdefault(rule.router, []).append((index, rule))

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._partition()

    # ------------------------------------------------------------------
    def corrupt(self, obs, now: int) -> List[Tuple[str, str]]:
        """Corrupt one observation in place; returns (kind, field) events.

        Must be called once per router per epoch, in router-id order:
        every ``noise`` rule draws a fixed number of gaussians and every
        ``drop`` rule draws one uniform per call, unconditionally, so the
        RNG stream's length never depends on what the faults did.
        """
        rng = self.rng
        gauss = rng.gauss
        events: List[Tuple[str, str]] = []
        router = obs.router_id
        # Noise first: a jittery sensor underneath any later corruption.
        for rule in self._noise:
            sigma = rule.sigma
            for attr in _FIELD_ATTRS[rule.field]:
                current = getattr(obs, attr)
                if attr == "temperature":
                    setattr(obs, attr, current + gauss(0.0, sigma))
                else:
                    setattr(obs, attr, [el + gauss(0.0, sigma) for el in current])
            events.append(("noise", rule.field))
        # Dropout: the reading is simply gone this epoch.
        for rule in self._drop:
            if rng.random() < rule.probability:
                for attr in _FIELD_ATTRS[rule.field]:
                    setattr(obs, attr, None)
                events.append(("drop", rule.field))
        # Stuck-at: the sensor is wedged; nothing else shows through.
        for rule in self._stuck_by_router.get(router, ()):
            for attr in _FIELD_ATTRS[rule.field]:
                if attr == "temperature":
                    obs.temperature = float(rule.value)
                elif attr == "occupied_vcs":
                    obs.occupied_vcs = [int(rule.value)] * len(obs.occupied_vcs or [0] * 5)
                else:
                    current = getattr(obs, attr)
                    setattr(
                        obs, attr,
                        [float(rule.value)] * len(current or [0.0] * 5),
                    )
            events.append(("stuck", rule.field))
        # Staleness: replay the last reported reading for K epochs.
        for index, rule in self._stale_by_router.get(router, ()):
            if now < rule.cycle:
                continue
            state = self._stale.get(index)
            if state is None:
                state = {
                    "held": self._prev.get(router) or _snapshot(obs),
                    "remaining": rule.epochs,
                }
                self._stale[index] = state
            if state["remaining"] <= 0:
                continue
            _restore(obs, state["held"])
            state["remaining"] -= 1
            events.append(("stale", "all"))
        if router in self._stale_by_router:
            # Only stale rules replay a reading, so only their routers'
            # readings are kept.
            self._prev[router] = _snapshot(obs)
        return events
