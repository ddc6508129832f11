"""The integrated closed-loop simulator.

Assembles every substrate into the paper's evaluation platform:

* the cycle-level NoC (:mod:`repro.noc`) carries the traffic;
* at every control epoch (Table II / Section V-B: 1K cycles), per-router
  power is computed from the epoch's event counters (ORION model), fed
  into the thermal RC grid (HotSpot stand-in), whose temperatures drive
  the VARIUS timing-error probabilities injected on every channel;
* the fault-tolerant control policy observes the fresh per-router state,
  receives the reward ``1/(E2E_latency x Power)`` for its previous
  action, and picks each router's operation mode for the next epoch.

Phases follow Section V-B: a pre-training phase on synthetic traffic
(learning enabled), a warm-up period, then the measured testing phase
replaying an application trace until every message is delivered.
:meth:`Simulator.plan` is the one place that schedule is written down;
the phase methods and :class:`~repro.sim.checkpoint.ResumableRun` all
execute its segments through :meth:`Simulator.run_segment`, and one
private loop advances every cycle.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.core.controller import (
    ControlPolicy,
    GuardReport,
    ObservationGuard,
    compute_reward,
)
from repro.core.modes import OperationMode, TmrModeBank
from repro.core.state import (
    DiscretizationConfig,
    RouterObservation,
    discretize_observation,
    observe_router,
)
from repro.faults.hardfaults import HardFaultModel, parse_fault_spec
from repro.faults.injector import FaultInjector
from repro.faults.sensors import SensorFaultModel, parse_sensor_spec
from repro.faults.softerrors import SoftErrorModel, parse_soft_error_spec
from repro.faults.thermal import ThermalGrid
from repro.faults.varius import VariusModel
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology, Port
from repro.noc.watchdog import ConservationError, NoCInvariantError
from repro.obs.metrics import MetricRegistry
from repro.power.orion import CLOCK_HZ, CorePowerParams, RouterPowerModel
from repro.sim.config import SimulationConfig
from repro.sim.metrics import RunResult, StatsSnapshot
from repro.traffic.synthetic import SyntheticTraffic
from repro.traffic.trace import TraceRecord, TraceReplayer

__all__ = ["TrafficSource", "Segment", "Simulator", "build_network"]

logger = logging.getLogger("repro.sim.simulator")

#: After this many handled invariant trips the run is declared wedged and
#: the original exception propagates — safe mode is a degradation path,
#: not an infinite retry loop.
MAX_SAFE_MODE_TRIPS = 16
#: Consecutive rejected observations of one router after which the
#: simulator stops trusting its telemetry and degrades it.
SENSOR_QUARANTINE_K = 8
#: Cycles a drain, or a measurement after its source is spent, may take
#: before the run is declared wedged.
MAX_DRAIN_CYCLES = 2_000_000


def build_network(
    config: SimulationConfig, rng: random.Random, routing: str = "xy"
) -> Network:
    """The mesh ``config`` describes, routed by ``routing``; every other
    router and watchdog parameter keeps its ``Network`` default.  The
    cycle kernel is deliberately not part of :class:`SimulationConfig`:
    both kernels are bit-identical, and sweep-cache keys hash the config
    (``REPRO_NAIVE_KERNEL`` selects it)."""
    return Network(MeshTopology(config.width, config.height), routing=routing, rng=rng)


class TrafficSource(Protocol):
    """Anything that can offer packets cycle by cycle."""

    def packets_for_cycle(self, now: int) -> List[Packet]: ...


@dataclass(frozen=True)
class Segment:
    """One deterministic slice of the run plan (:meth:`Simulator.plan`).

    ``source`` is ``(pattern, injection_rate, rng_seed)`` when the segment
    starts a fresh synthetic source, kept by the following segments until
    replaced; ``None`` keeps the current source.
    """

    phase: str  # pretrain | drain | freeze | warmup | measure
    cycles: int = 0
    forced_mode: Optional[OperationMode] = None
    source: Optional[Tuple[str, float, int]] = None


class Simulator:
    """One (design, platform) instance with its full control loop."""

    def __init__(
        self,
        config: SimulationConfig,
        policy: ControlPolicy,
        seed: int = 0,
        tracer=None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.seed = seed

        self.network = build_network(config, random.Random(seed))
        topology = self.network.topology
        #: hard-fault campaign (None when config.fault_spec is empty)
        self.hard_faults: Optional[HardFaultModel] = None
        if config.fault_spec:
            events = parse_fault_spec(config.fault_spec)
            self.hard_faults = HardFaultModel(self.network, events)
            self.network.hard_faults = self.hard_faults
        # Every run samples the same die: VARIUS variation map seed 1.
        self.varius = VariusModel(config.width, config.height, seed=1)
        self.thermal = ThermalGrid(config.width, config.height)
        #: per-run metric registry; counters here (unlike the module
        #: globals they replace) reset with the simulator instance
        self.metrics = MetricRegistry()
        self._reward_guard_counter = self.metrics.counter("reward.guard_clamps")
        self.injector = FaultInjector(self.network, self.varius, registry=self.metrics)
        self.power_model = RouterPowerModel()
        self.core_params = CorePowerParams()
        self.state_config = DiscretizationConfig()

        #: sensor-fault campaign (None when config.sensor_spec is empty)
        self.sensors: Optional[SensorFaultModel] = None
        if config.sensor_spec:
            self.sensors = SensorFaultModel(
                parse_sensor_spec(config.sensor_spec),
                topology.num_nodes,
                seed=seed + 404,
            )
        #: consumer-side telemetry hardening (None when defenses are off)
        self.obs_guard: Optional[ObservationGuard] = None
        if config.sensor_defenses:
            self.obs_guard = ObservationGuard(
                topology.num_nodes, state_config=self.state_config
            )
        #: epoch counter for hold TTLs and mode-switch debouncing; rides
        #: the checkpoint pickle so resumed runs continue the sequence
        self._epoch_index = 0
        #: epoch index of each router's last applied mode switch (for
        #: mode_hysteresis_epochs; the sentinel never debounces the first)
        self._last_mode_switch: List[int] = [-(1 << 30)] * topology.num_nodes

        self.policy.reset(topology.num_nodes)
        #: the degradation ledger: router -> (cause, reason) it was first
        #: pinned to mode 3 for.  :meth:`degrade` is its one writer; the
        #: learn and select stages skip its routers, so no policy trains
        #: or selects for them.
        self.degraded: Dict[int, Tuple[str, str]] = {}

        #: memory soft-error campaign (None when config.soft_error_spec
        #: is empty — in which case no storage attaches and the learned
        #: state stays a plain float table, bit-identical to before)
        self.soft_errors: Optional[SoftErrorModel] = None
        #: TMR'd mode registers (None when unprotected or upset-free)
        self.mode_bank: Optional[TmrModeBank] = None
        if config.soft_error_spec:
            self.soft_errors = SoftErrorModel(
                parse_soft_error_spec(config.soft_error_spec),
                topology.num_nodes,
                seed=seed + 505,
            )
            self.policy.attach_q_storages(ecc=config.ecc_protect)
            if config.ecc_protect:
                self.mode_bank = TmrModeBank(topology.num_nodes)

        self._prev_obs: Optional[List[RouterObservation]] = None
        self._prev_actions: Optional[List[OperationMode]] = None
        self._last_epoch_latency = 1.0
        self._latency_snapshot = (0, 0)  # (count, total) at last epoch

        #: when set, every router is pinned to this mode at each epoch —
        #: used by the pre-training curriculum to collect off-policy
        #: experience under consistent network-wide behaviour
        self.forced_mode: Optional[OperationMode] = None
        #: the traffic source of the current plan segment; rides the
        #: checkpoint pickle so a resumed segment keeps injecting from it
        self.source: Optional[TrafficSource] = None

        # Measurement accumulators (active between begin/end measurement)
        self._measuring = False
        self._measure_start = 0
        self._measured_dynamic_pj = 0.0
        self._measured_static_pj = 0.0
        self._measured_epochs = 0
        self._measured_temp_sum = 0.0
        self._measured_error_sum = 0.0
        self._measure_before: Optional[StatsSnapshot] = None

        #: optional repro.obs.TraceBuffer, propagated to the network
        self.tracer = None
        if tracer is not None:
            self.attach_tracer(tracer)

        # Prime the fault model with the initial (ambient) thermal state.
        self.injector.refresh(self.thermal.as_list())

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) an event tracer end-to-end."""
        self.tracer = tracer
        self.network.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # Degradation: the ledger, its one writer and the four rules
    # ------------------------------------------------------------------
    def degrade(self, router_id: int, cause: str, reason: str) -> None:
        """Record ``router_id`` in the degradation ledger.  The first call
        for a router keeps ``(cause, reason)``, logs its one WARNING line
        and emits its one ``mode/degrade`` event; later calls change
        nothing.  From the next learn and select stages on, the policy no
        longer sees the router and it runs in mode 3."""
        if router_id in self.degraded:
            return
        self.degraded[router_id] = (cause, reason)
        now = self.network.now
        logger.warning(
            "router %d degraded to mode 3 at cycle %d: %s", router_id, now, reason
        )
        if self.tracer is not None:
            self.tracer.emit(now, "mode", "degrade", subject=router_id, cause=cause)

    def _cycle(self) -> None:
        """One network cycle; watchdog trips enter safe mode.

        Packet-conservation violations always propagate — they indicate a
        protocol bug, not congestion, and no mode change can repair lost
        accounting.  Deadlock/livelock trips degrade the implicated
        routers and pin them to mode 3 at once, re-arm the watchdog, and
        keep the run alive, up to :data:`MAX_SAFE_MODE_TRIPS`.
        """
        try:
            self.network.cycle()
        except ConservationError:
            raise
        except NoCInvariantError as exc:
            trips = self.metrics.counter("watchdog.handled_trips")
            if trips.value >= MAX_SAFE_MODE_TRIPS:
                raise
            trips.inc()
            network = self.network
            implicated = sorted(
                {
                    entry["router"]
                    for entry in exc.report.get("stuck", [])
                    if "router" in entry
                }
            ) or [router.id for router in network.routers]
            reason = f"{type(exc).__name__} at cycle {network.now}: {exc}"
            for router_id in implicated:
                self.degrade(router_id, "watchdog", reason)
                network.set_mode(router_id, OperationMode.MODE_3)
            if network.watchdog is not None:
                network.watchdog.rearm(network.now)

    def restore_policy(self, state: Optional[Dict[str, object]]) -> None:
        """Load a policy snapshot through ``load_state``'s validation and
        degrade every router whose table it rejected."""
        rejected = self.policy.load_state(state)
        for router_id, reason in sorted(rejected.items()):
            self.degrade(router_id, "checkpoint", reason)

    # ------------------------------------------------------------------
    # Control epoch: ordered stages
    # ------------------------------------------------------------------
    def _epoch_boundary(self, span: Optional[int] = None) -> None:
        """One control epoch, closing a span of ``span`` cycles (default:
        a full epoch).  The stages run in a fixed order, each over every
        router in id order, and each calls the substrate entry points
        (``observe_router``, the guard, the fault models, the policy)
        through names looked up at call time."""
        span = self.config.epoch_cycles if span is None else span
        router_powers, mean_temperature = self._thermal_stage(span)
        latency = self._epoch_network_latency()
        observations = self._observe_stage(span)
        self._learn_stage(observations, router_powers, latency)
        actions = self._select_stage(observations)
        self._prev_obs = observations
        self._prev_actions = actions
        self._epoch_index += 1
        self._soft_error_stage(actions)
        self._measure_stage(span, latency, mean_temperature, router_powers)

    def _thermal_stage(self, span: int) -> Tuple[List[float], float]:
        """Power, one thermal step, then the channel error probabilities.

        Returns the per-router power (watts) and the mean temperature.
        """
        router_powers = self._router_power_watts(span)
        tiles = [
            self.core_params.core_power(router.epoch.core_activity_flits / span) + watts
            for router, watts in zip(self.network.routers, router_powers)
        ]
        temperatures = self.thermal.step(tiles).tolist()
        for router, temperature in zip(self.network.routers, temperatures):
            router.temperature = temperature
        self.injector.refresh(temperatures)
        # Added in order, not with sum(): from Python 3.12 sum() of floats
        # compensates rounding, which would move the last bit of the mean
        # (and of every result digest) between Python versions.
        return router_powers, reduce(add, temperatures, 0) / len(temperatures)

    def _router_power_watts(self, span: int) -> List[float]:
        """Per-router total power over the epoch (or partial span) ended."""
        profile = self.policy.profile
        epoch_energy = self.power_model.epoch_energy
        powers = []
        for router in self.network.routers:
            energy = epoch_energy(
                router.epoch, profile, router.behaviour.ecc_enabled, span
            )
            powers.append(RouterPowerModel.to_watts(energy.total_pj, span, CLOCK_HZ))
            if self._measuring:
                self._measured_dynamic_pj += energy.dynamic_pj
                self._measured_static_pj += energy.static_pj
        return powers

    def _epoch_network_latency(self) -> float:
        acc = self.network.stats.latency
        count0, total0 = self._latency_snapshot
        count = acc.count - count0
        total = acc.total - total0
        self._latency_snapshot = (acc.count, acc.total)
        if count > 0:
            self._last_epoch_latency = total / count
        return self._last_epoch_latency

    def _channel_error_by_router(self) -> Dict[int, float]:
        """Mean error probability of each router's output channels, as
        the channels sample it (an error burst's floor included)."""
        sums: Dict[int, List[float]] = {}
        for (src, _port), model in self.network.channel_models():
            sums.setdefault(src, []).append(model.event_probability)
        return {src: sum(ps) / len(ps) for src, ps in sums.items()}

    def _observe_stage(self, span: int) -> List[RouterObservation]:
        """Observe every router, corrupt the reading, guard it, and
        re-discretize it once if the sensors or the guard changed it."""
        state_config = self.state_config
        compact = self.config.compact_state
        include_mode = self.config.include_mode_in_state
        now = self.network.now
        sensors = self.sensors
        obs_guard = self.obs_guard
        error_by_router = self._channel_error_by_router()
        injected: Dict[str, int] = {}
        holds = clamps = defaults = 0
        observations = []
        for router in self.network.routers:
            obs = observe_router(router, span, state_config, compact, include_mode)
            obs.true_error_probability = error_by_router.get(router.id, 0.0)
            changed = False
            if sensors is not None:
                events = sensors.corrupt(obs, now)
                changed = bool(events)
                for kind, _field in events:
                    injected[kind] = injected.get(kind, 0) + 1
            if obs_guard is not None:
                report = obs_guard.inspect(router.id, obs, self._epoch_index)
                if report.dirty:
                    changed = True
                    holds += report.holds
                    clamps += report.clamps
                    defaults += report.defaults
                    if report.rejected:
                        self._guard_reject(router.id, report)
            if changed:
                # What the guard repaired, and corruption it did not
                # (in-range stuck/noisy values it cannot tell from real
                # readings), reach the policy through the discrete state.
                # With defenses disabled the controller consumes exactly
                # what the corrupted sensors report (this may raise — the
                # hardened path exists precisely to prevent that).
                obs.discrete = discretize_observation(
                    obs,
                    state_config,
                    compact=compact,
                    mode=int(router.mode) if include_mode else None,
                )
            observations.append(obs)
        # One increment per counter and epoch; a counter whose tally is
        # zero is not created.
        tallies = [("sensor.injected." + kind, n) for kind, n in injected.items()]
        tallies += [
            ("sensor.holds", holds),
            ("sensor.clamps", clamps),
            ("sensor.defaults", defaults),
        ]
        for name, count in tallies:
            if count:
                self.metrics.counter(name).inc(count)
        return observations

    def _guard_reject(self, router_id: int, report: GuardReport) -> None:
        """Count and trace a rejected observation; degrade the router
        once its reject streak reaches :data:`SENSOR_QUARANTINE_K`."""
        self.metrics.counter("sensor.rejected_observations").inc()
        tracer = self.tracer
        if tracer is not None and tracer.wants("sensor"):
            tracer.emit(
                self.network.now,
                "sensor",
                "reject",
                subject=router_id,
                holds=report.holds,
                defaults=report.defaults,
            )
        if report.streak == SENSOR_QUARANTINE_K:
            self.degrade(
                router_id,
                "sensor",
                f"sensor quarantine: {SENSOR_QUARANTINE_K} consecutive "
                "rejected observations",
            )

    def _learn_stage(
        self,
        observations: List[RouterObservation],
        router_powers: List[float],
        latency: float,
    ) -> None:
        """Reward every router's previous action (paper equation 3) and
        hand the policy the transition; degraded routers are skipped."""
        if self._prev_obs is None:
            return
        guard = self._reward_guard_counter
        tracer = self.tracer
        degraded = self.degraded
        learn = self.policy.learn
        for router, obs, prev, action in zip(
            self.network.routers, observations, self._prev_obs, self._prev_actions
        ):
            if router.id in degraded:
                continue
            before = guard.value
            reward = compute_reward(
                router.epoch.mean_delivered_latency(latency),
                router_powers[router.id],
                counter=guard,
            )
            if tracer is not None and guard.value != before:
                tracer.emit(
                    self.network.now,
                    "reward",
                    "guard_clamp",
                    subject=router.id,
                    clamps=guard.value - before,
                )
            learn(router.id, prev, action, reward, obs)

    def _select_stage(
        self, observations: List[RouterObservation]
    ) -> List[OperationMode]:
        """Pin degraded routers to mode 3, select and debounce every
        other router's mode, and actuate; returns the modes applied."""
        network = self.network
        tracer = self.tracer
        trace_rl = tracer is not None and tracer.wants("rl")
        trace_sensor = tracer is not None and tracer.wants("sensor")
        hysteresis = self.config.mode_hysteresis_epochs
        degraded = self.degraded
        select = self.policy.select
        actions = []
        for router, obs in zip(network.routers, observations):
            if router.id in degraded:
                # A degraded router stays in the conservative mode, whatever
                # the policy or the pre-training curriculum would ask for.
                mode = OperationMode.MODE_3
            elif self.forced_mode is not None:
                mode = self.forced_mode
            else:
                mode = select(router.id, obs)
                if trace_rl:
                    q = self.policy.q_values(router.id, obs.discrete)
                    tracer.emit(
                        network.now,
                        "rl",
                        "decision",
                        subject=router.id,
                        action=int(mode),
                        state=list(obs.discrete),
                        q_values=None if q is None else [float(v) for v in q],
                    )
                if (
                    hysteresis
                    and mode != router.mode
                    and self._epoch_index - self._last_mode_switch[router.id]
                    < hysteresis
                ):
                    # Debounce: a fresh switch holds for the hysteresis
                    # window, so a flapping sensor cannot thrash modes.
                    self.metrics.counter("sensor.debounced_switches").inc()
                    if trace_sensor:
                        tracer.emit(
                            network.now,
                            "sensor",
                            "debounce",
                            subject=router.id,
                            held=int(router.mode),
                            wanted=int(mode),
                        )
                    mode = router.mode
            if mode != router.mode:
                self._last_mode_switch[router.id] = self._epoch_index
            network.set_mode(router.id, mode)
            actions.append(mode)
        return actions

    def _soft_error_stage(self, actions: List[OperationMode]) -> None:
        """Latch the modes into the TMR bank, inject this epoch's SEUs,
        then scrub on the configured cadence.

        Runs after the policy's mode writes: corruption lands *after*
        this epoch's decisions and influences the next one — unless the
        scrub repairs it first (``scrub_every=1`` repairs every
        single-bit upset before it can ever drive behaviour, which is
        exactly the defended contract the acceptance suite pins down).
        """
        if self.soft_errors is None:
            return
        network = self.network
        mode_bank = self.mode_bank
        if mode_bank is not None:
            # The TMR register bank latches the commanded modes; upsets
            # land in the copies, the datapath reads the majority.
            for router_id, mode in enumerate(actions):
                mode_bank.write(router_id, int(mode))

        def flip_mode(router_id: int, bit: int, copy: int) -> None:
            if mode_bank is not None:
                mode_bank.upset(router_id, bit, copy)
            else:
                # Unprotected register: the upset drives the datapath
                # until the policy's next write overwrites it.
                current = int(network.routers[router_id].mode)
                network.set_mode(router_id, OperationMode(current ^ (1 << bit)))

        m = self.metrics
        storages = self.policy.q_storages()
        stats = self.soft_errors.inject(network.now, storages, flip_mode)
        for kind in ("qtable", "burst", "mode"):
            if stats[kind]:
                m.counter("softerror.injected." + kind).inc(stats[kind])
        if stats["words_single"]:
            m.counter("softerror.words_single").inc(stats["words_single"])
        if stats["words_multi"]:
            m.counter("softerror.words_multi").inc(stats["words_multi"])

        scrub_every = self.config.scrub_every
        if scrub_every and self._epoch_index % scrub_every == 0:
            self._scrub(network.now, storages)

    def _scrub(self, now: int, storages) -> None:
        """One scrub pass over every Q storage plus the TMR mode bank."""
        m = self.metrics
        tracer = self.tracer
        trace_ecc = tracer is not None and tracer.wants("ecc")
        corrected = detected = quarantined = 0
        per_router = len(storages) == len(self.network.routers)
        for index, storage in enumerate(storages):
            stats = storage.scrub()
            corrected += stats["corrected"]
            detected += stats["detected"]
            quarantined += stats["quarantined_rows"]
            if stats["quarantined_rows"] and trace_ecc:
                tracer.emit(
                    now,
                    "ecc",
                    "quarantine",
                    subject=index if per_router else None,
                    rows=stats["quarantined_rows"],
                )
            if per_router and storage.quarantined_rows >= storage.QUARANTINE_LIMIT:
                # The router's table is being eaten faster than it can
                # relearn.  A shared table has no single router to blame.
                self.degrade(
                    index,
                    "ecc",
                    f"ECC quarantine: {storage.quarantined_rows} Q-table rows "
                    "lost to uncorrectable soft errors",
                )
        mode_votes = 0
        if self.mode_bank is not None:
            mode_votes = self.mode_bank.vote()
            for router, copies in zip(self.network.routers, self.mode_bank.copies):
                value = copies[0]  # after the vote, every copy is the majority
                if value != int(router.mode):
                    # Majority corrupted (two copies upset between
                    # writes): the register output drives the datapath.
                    self.network.set_mode(router.id, OperationMode(value))
        m.counter("ecc.scrubs").inc()
        if corrected:
            m.counter("ecc.corrected").inc(corrected)
            if trace_ecc:
                tracer.emit(now, "ecc", "corrected", count=corrected)
        if detected:
            m.counter("ecc.detected").inc(detected)
            if trace_ecc:
                tracer.emit(now, "ecc", "detected", count=detected)
        if quarantined:
            m.counter("ecc.quarantined_rows").inc(quarantined)
        if mode_votes:
            m.counter("ecc.mode_votes").inc(mode_votes)
        if trace_ecc:
            tracer.emit(
                now,
                "ecc",
                "scrub",
                corrected=corrected,
                detected=detected,
                quarantined=quarantined,
                votes=mode_votes,
            )

    def _measure_stage(
        self,
        span: int,
        latency: float,
        mean_temperature: float,
        router_powers: List[float],
    ) -> None:
        """Fold the epoch into the measurement window and the metric
        registry, then harvest and reset the routers' epoch counters.

        The registry update runs at epoch frequency only, touches no RNG,
        and reads the same aggregates the control loop already computed
        — so it cannot perturb simulation results (the bench digest gates
        enforce it).
        """
        network = self.network
        error_probability = self.injector.mean_probability()
        if self._measuring:
            self._measured_epochs += 1
            self._measured_temp_sum += mean_temperature
            self._measured_error_sum += error_probability
        m = self.metrics
        m.counter("epochs").inc()
        m.gauge("epoch.span").set(span)
        m.gauge("epoch.mean_latency").set(latency)
        m.histogram("epoch.latency").record(latency)
        m.gauge("epoch.mean_temperature").set(mean_temperature)
        m.gauge("epoch.mean_error_probability").set(error_probability)
        m.gauge("epoch.mean_router_power_watts").set(
            sum(router_powers) / len(router_powers)
        )
        if network.watchdog is not None:
            m.gauge("watchdog.checks").set(network.watchdog.checks)
        m.ingest("net", network.stats.as_dict())
        m.snapshot_epoch(network.now)
        network.harvest_epoch_counters()
        network.reset_epoch_counters()

    # ------------------------------------------------------------------
    # The run plan and the one cycle loop
    # ------------------------------------------------------------------
    def plan(self) -> List[Segment]:
        """The Section V-B run plan, segment by segment.

        Pre-training sweeps three uniform-random load levels (light,
        nominal, heavy) so the learning policies visit the cool/quiet
        *and* hot/error-prone regions of the Table I state space before any
        application trace runs — the role the paper's 1M-cycle synthetic
        phase plays at full scale.  Static designs (and
        ``pretrain_cycles=0``) get no pre-training segments.

        Within each load level, the first part of the segment is a
        *curriculum*: the whole mesh is pinned to each operation mode in
        turn, so the (off-policy) Q-learning updates sample every action
        under consistent network-wide behaviour.  Without this, epsilon-
        greedy exploration in a shortened run cannot separate an action's
        effect from the congestion caused by 63 other exploring routers.
        The remainder of each level runs free epsilon-greedy control.

        In-flight pre-training packets then drain, the policy freezes, a
        uniform-random warm-up runs at the nominal pre-training rate (none
        when ``warmup_cycles=0``), and the measured trace replays until
        every message is delivered.
        """
        config = self.config
        segments: List[Segment] = []
        if config.pretrain_cycles > 0 and self.policy.trainable:
            base = config.pretrain_injection_rate
            levels = (0.6 * base, base, 2.2 * base)
            span = config.pretrain_cycles // len(levels)
            curriculum_share = 0.6
            forced_span = int(span * curriculum_share) // len(OperationMode)
            free_span = span - forced_span * len(OperationMode)
            for i, rate in enumerate(levels):
                source = ("uniform", min(rate, 1.0), self.seed + 101 + i)
                for mode in OperationMode:
                    segments.append(Segment("pretrain", forced_span, mode, source))
                    source = None
                segments.append(Segment("pretrain", free_span))
            segments.append(Segment("drain"))
        segments.append(Segment("freeze"))
        if config.warmup_cycles > 0:
            source = ("uniform", config.pretrain_injection_rate, self.seed + 202)
            segments.append(Segment("warmup", config.warmup_cycles, source=source))
        segments.append(Segment("measure"))
        return segments

    def run_segment(
        self,
        segment: Segment,
        done: int = 0,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Run one plan segment, or continue it after ``done`` of its cycles.

        ``done`` counts cycles from the segment's start: it is the time
        the source sees and where a drain or measure segment's
        :data:`MAX_DRAIN_CYCLES` budget counts from, so a resumed segment
        continues exactly where it stopped.  A measure segment replays
        :attr:`source` (see :meth:`measure_trace`); it and the
        pre-training drain raise when their budget runs out.
        ``on_checkpoint(done)`` fires every ``checkpoint_every`` cycles and
        must not mutate simulation state, so a checkpointed run and a
        plain one are bit-identical.
        """
        phase = segment.phase
        if phase == "freeze":
            self.policy.freeze()
            return
        if not done:
            if segment.source is not None:
                pattern, rate, seed = segment.source
                self.source = SyntheticTraffic(
                    self.network.topology,
                    pattern=pattern,
                    injection_rate=rate,
                    rng=random.Random(seed),
                )
            if phase == "measure":
                self.begin_measurement()
        if phase == "pretrain":
            self.forced_mode = segment.forced_mode
        if phase in ("pretrain", "warmup"):
            self._advance(
                self.source, done, segment.cycles, None,
                checkpoint_every, on_checkpoint,
            )
            return
        # drain / measure: until the source is spent and the network empty
        network = self.network
        source = self.source if phase == "measure" else None

        def complete() -> bool:
            return (source is None or source.exhausted) and network.quiescent

        self._advance(
            source, done, MAX_DRAIN_CYCLES, complete, checkpoint_every, on_checkpoint
        )
        if not complete():
            what = "trace" if phase == "measure" else "pre-training"
            raise RuntimeError(
                f"{what} failed to drain within MAX_DRAIN_CYCLES ({MAX_DRAIN_CYCLES})"
            )
        self.source = None

    def run(self, source: Optional[TrafficSource], cycles: int) -> None:
        """Advance a fixed number of cycles, injecting from ``source``."""
        self._advance(source, 0, cycles)

    def drain(self) -> bool:
        """Run epochs, injecting nothing, until the network is quiescent
        or :data:`MAX_DRAIN_CYCLES` have passed; returns whether it drained."""
        network = self.network
        self._advance(None, 0, MAX_DRAIN_CYCLES, lambda: network.quiescent)
        return network.quiescent

    def _advance(
        self,
        source: Optional[TrafficSource],
        done: int,
        limit: int,
        until: Optional[Callable[[], bool]] = None,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[[int], None]] = None,
    ) -> None:
        """The cycle loop: inject -> cycle -> epoch boundary -> snapshot.

        Steps from cycle ``done`` of the current phase until ``limit``
        cycles of it have run or ``until()`` holds (checked before every
        cycle).  The source is asked for the packets of phase cycle
        ``done``; latency accounting stamps the absolute cycle.
        """
        network = self.network
        epoch = self.config.epoch_cycles
        while done < limit and not (until is not None and until()):
            if source is not None:
                for packet in source.packets_for_cycle(done):
                    packet.created_at = network.now
                    network.inject(packet)
            self._cycle()
            if network.now % epoch == 0:
                self._epoch_boundary()
            done += 1
            if checkpoint_every and done % checkpoint_every == 0:
                on_checkpoint(done)

    # ------------------------------------------------------------------
    # Paper phases
    # ------------------------------------------------------------------
    def pretrain(self) -> None:
        """Section V-B pre-training: the plan's pretrain and drain segments."""
        self._run_phases("pretrain", "drain")

    def warmup(self) -> None:
        """Section V-B warm-up period (no measurement)."""
        self._run_phases("warmup")

    def _run_phases(self, *phases: str) -> None:
        for segment in self.plan():
            if segment.phase in phases:
                self.run_segment(segment)

    def make_replayer(self, records: List[TraceRecord]) -> TraceReplayer:
        """The measurement-phase trace replayer (seeded per Section V-B)."""
        return TraceReplayer(
            records, self.network.topology, rng=random.Random(self.seed + 303)
        )

    def begin_measurement(self) -> None:
        """Arm the measurement window: snapshot stats, zero accumulators,
        record the start cycle."""
        self._measure_before = StatsSnapshot(self.network.stats)
        self._measure_start = self.network.now
        self._measuring = True
        self._measured_dynamic_pj = 0.0
        self._measured_static_pj = 0.0
        self._measured_epochs = 0
        self._measured_temp_sum = 0.0
        self._measured_error_sum = 0.0

    def measure_trace(self, records: List[TraceRecord], benchmark: str) -> RunResult:
        """The measured testing phase: replay a trace to completion."""
        self.source = self.make_replayer(records)
        self._run_phases("measure")
        return self.finish_measurement(benchmark)

    def finish_measurement(self, benchmark: str) -> RunResult:
        """Close the measurement window and assemble the RunResult; the
        execution time (Fig. 7) is the cycles since the window opened."""
        partial = self.network.now % self.config.epoch_cycles
        if partial:
            # Fold the final partial epoch into the measurement window.
            self._epoch_boundary(span=partial)

        self._measuring = False
        after = StatsSnapshot(self.network.stats)
        window = self._measure_before.delta(after)
        epochs = max(self._measured_epochs, 1)
        return RunResult(
            design=self.policy.name,
            benchmark=benchmark,
            execution_cycles=self.network.now - self._measure_start,
            mean_latency=window["mean_latency"],
            packets_delivered=int(window["packets_delivered"]),
            flits_delivered=int(window["flits_delivered"]),
            packet_retransmissions=int(window["packet_retransmissions"]),
            flit_retransmissions=int(window["flit_retransmissions"]),
            corrected_errors=int(window["corrected_errors"]),
            escaped_errors=int(window["escaped_errors"]),
            silent_corruptions=int(window["silent_corruptions"]),
            duplicate_flits=int(window["duplicate_flits"]),
            dynamic_energy_pj=self._measured_dynamic_pj,
            static_energy_pj=self._measured_static_pj,
            mode_cycles=window["mode_cycles"],
            mean_temperature=self._measured_temp_sum / epochs,
            mean_error_probability=self._measured_error_sum / epochs,
            messages_created=int(window["messages_created"]),
            messages_dropped=int(window["messages_dropped"]),
            reroutes=int(window["reroutes"]),
            fault_recoveries=int(window["fault_recoveries"]),
            unreachable_drops=int(window["unreachable_drops"]),
            post_fault_latency=(
                self.hard_faults.post_fault_latency
                if self.hard_faults is not None
                else 0.0
            ),
            safe_mode_entries=len(self.degraded),
            rejected_observations=int(
                self.metrics.peek("sensor.rejected_observations")
            ),
            sensor_holds=int(self.metrics.peek("sensor.holds")),
            sensor_clamps=int(self.metrics.peek("sensor.clamps")),
            mode_switches=sum(r.mode_switches for r in self.network.routers),
        )
