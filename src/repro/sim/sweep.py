"""Parallel sweep orchestration with on-disk result caching.

The paper's evaluation (Figs 6-10) is a grid of (design x traffic x
seed) measurement runs.  Each point is an independent,
deterministic simulation, so the grid parallelizes perfectly and every
completed point is worth persisting.  This module provides:

* :class:`SweepSpec` — a declarative grid specification that expands into
  :class:`SweepPoint` jobs, one per simulation;
* :func:`run_sweep_point` — the process-safe evaluator for a single
  point (also the ``--jobs 1`` serial path, so serial and parallel runs
  execute byte-identical code);
* :class:`SweepRunner` — runs a list of points, fanning pending ones out
  over supervised ``multiprocessing`` workers, caches every result under
  ``.sweep_cache/`` keyed by a stable content hash of (config, point),
  and keeps one :class:`SweepReport` ledger of progress (done / cached /
  running, ETA) and outcome.  Re-running an identical grid — or
  resuming an interrupted one — replays cached points without executing
  a single simulation.
* :class:`SweepCache` — one checkpoint container per finished point
  (``<key>.ckpt``: the :mod:`repro.sim.checkpoint` format, stamped
  :data:`CACHE_SCHEMA`, with the key and point in its JSON header and
  the evaluator's payload pickled in its body).  A replayed point is
  the record the evaluator built, tuples and integer keys included; a
  torn, corrupt, foreign-version or misnamed entry is a quiet miss.

  The runner is a *supervisor*, not a fire-and-forget pool: with
  ``jobs > 1`` each point runs in its own worker process with an
  optional wall-clock timeout, a crashed or killed worker is detected
  by its exit code and its slot replenished, and a failed point — on
  either path — is retried with seeded exponential backoff before being
  quarantined.  Results flush to the cache the moment each point lands,
  so a SIGKILL mid-sweep loses at most the points in flight.

Point kinds
-----------
``load``
    The classic load sweep: one design under open-loop synthetic traffic
    at one injection rate; reports latency and throughput.
``campaign``
    One (benchmark, design) cell of the paper-figure campaign: the
    policy is cloned from a pretrained artifact on disk
    (``repro.sim.campaign``) instead of pre-training in-cell, so the
    grid pays each design's pre-training phase exactly once.  This is
    the only kind that compares designs on a benchmark trace.
``mode_error``
    The raw mode trade-off surface: the whole mesh pinned to one
    operation mode under a flat channel error probability (used by
    ``examples/fault_sweep.py``).
``chaos``
    Open-loop graceful degradation: one routing function on a bare
    network (no control policy) under a hard-fault campaign.
``control_chaos``
    Closed-loop graceful degradation: one full control design under any
    composition of the three fault families — hard faults
    (``fault_spec``), corrupted telemetry (``sensor_spec``) and SEUs in
    the Q-table SRAM and mode registers (``soft_error_spec``) — with one
    union ledger per point.

Every evaluator but ``campaign`` (a :class:`RunResult`) returns one
ledger dict, which :class:`PointResult` carries as built.

Determinism contract: every evaluator seeds all randomness from the
point's ``seed`` field (the simulators use only local
``random.Random`` instances), so a point's result is a pure function of
(config, point) — which is precisely what the cache key hashes.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import multiprocessing
import random
import sys
import time
import zlib
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.modes import OperationMode
from repro.faults.hardfaults import HardFaultModel, parse_fault_spec
from repro.noc.packet import FLIT_BITS, PACKET_FLITS, Packet
from repro.noc.routing import ROUTING_FUNCTIONS
from repro.noc.watchdog import NoCInvariantError
from repro.sim.checkpoint import (
    CheckpointError,
    content_key,
    load_checkpoint,
    load_policy_artifact,
    save_checkpoint,
)
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    DESIGN_ORDER,
    clone_policy,
    default_design_factories,
    run_design_on_trace,
    synthesize_benchmark_trace,
)
from repro.sim.metrics import RunResult
from repro.sim.simulator import MAX_DRAIN_CYCLES, Simulator, build_network
from repro.traffic.synthetic import SyntheticTraffic

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "RETRY_BASE_DELAY",
    "RETRY_JITTER",
    "SweepPoint",
    "SweepSpec",
    "PointResult",
    "SweepReport",
    "SweepCache",
    "SweepRunner",
    "point_cache_key",
    "run_sweep_point",
    "stderr_progress",
]

#: Bump when an evaluator's semantics change, invalidating cached points.
#: Schema 2: hard-fault campaigns (``chaos`` kind, ``fault_spec`` field).
#: Schema 3: entries carry a CRC32 over the canonical payload JSON, so a
#: bit-rotted or hand-mangled entry misses instead of replaying garbage.
#: Schema 4: sensor-fault campaigns (``sensor_chaos`` kind,
#: ``sensor_spec`` point field) — the key now hashes the sensor spec, so
#: a cached healthy point can never be served for a sensor-faulted one.
#: Schema 5: soft-error campaigns (``soft_error`` kind,
#: ``soft_error_spec`` point field) — SEU flips in Q-table SRAM and mode
#: registers change every evaluator's result surface, so the key hashes
#: the SEU spec (and the config now carries ecc_protect / scrub_every).
#: Schema 6: the paper-figure campaign (``campaign`` kind, with the
#: pretrained-artifact content hash in the key), the cross-benchmark
#: leakage fix (``suite`` cells now clone from a frozen post-pretrain
#: snapshot instead of chaining one live policy), and full-32-bit-CRC
#: benchmark trace seeding — every trace/suite result surface changed,
#: so schema-5 entries must miss.
#: Schema 7: ``sensor_chaos`` and ``soft_error`` merge into one
#: ``control_chaos`` kind that applies every point spec and returns one
#: union ledger, so entries of the two retired kinds must miss.
#: Schema 8: ``mode_error`` points build their network from the config
#: (routing, VCs, buffer depth, flit width, ARQ, link latency, error
#: severity, watchdog) instead of the constructor defaults, and ``chaos``
#: points now honour ``error_severity``: non-default configs changed.
#: Schema 9: ``load`` points report latency and throughput over their
#: own span; trainable designs used to fold in the pre-training traffic.
#: Schema 10: eight config fields and the point's ``error_scale`` are
#: gone, so every key changed; ``load`` points now run the config's
#: warm-up and drain it before their measured span opens.
#: Schema 11: ``mode_cycles`` books each cycle to the mode active in it
#: (it booked each epoch to the mode chosen at its end), and campaign
#: cells carry it.
#: Schema 12: a watchdog diagnosis names stuck packets by ``message_id``
#: (it named their per-attempt id), and closed-loop error bursts hold
#: every channel at or above the burst level across epoch refreshes.
#: Schema 13: the controller's error observation and
#: ``mean_error_probability`` include an error burst's floor, so
#: closed-loop runs with a ``burst@`` fault clause changed.
#: Schema 14: no policy learns or selects for a degraded router (DT
#: points whose pre-training degraded one changed), and a campaign cell
#: whose artifact holds a rejected Q-table fails.
#: Schema 15: ``safe_mode_entries`` counts the routers in the degradation
#: ledger (it summed watchdog trips, guard quarantines and ECC
#: escalations), and ``control_chaos``'s ``quarantined_routers`` are the
#: ledger's ``sensor``-cause routers.
#: Schema 16: twelve config fields became constants and ``RunResult``
#: lost ``clock_hz``, so every key and every cached ``run`` changed.
#: Schema 17: an entry is a checkpoint container whose pickled body is
#: the evaluator's payload (a ``RunResult`` or one ``ledger`` dict), not
#: a CRC'd JSON file; chaos points inject at ``rate`` 0 when given 0,
#: and ``load`` ledgers lost ``saturated``.
CACHE_SCHEMA = 17

DEFAULT_CACHE_DIR = ".sweep_cache"

logger = logging.getLogger("repro.sim.sweep")

POINT_KINDS = ("load", "mode_error", "chaos", "control_chaos", "campaign")

#: kinds whose extra grid axis is the injection rate
_RATED_KINDS = ("load", "chaos", "control_chaos")

MODE_DESIGNS = tuple(f"mode{int(m)}" for m in OperationMode)


# ----------------------------------------------------------------------
# Grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation job of a sweep grid.

    ``traffic`` names a benchmark (``campaign``) or a synthetic
    pattern (the other kinds).  ``cycles`` is the trace injection span
    for ``campaign``, the injection span for ``load`` and the chaos
    kinds, and the packet count for ``mode_error``.  Unused numeric
    fields keep their defaults so cache keys stay stable across kinds.
    """

    kind: str
    design: str
    traffic: str
    seed: int
    cycles: int
    rate: float = 0.0
    error_probability: float = 0.0
    #: hard-fault campaign spec ("" = healthy); part of the cache key, so
    #: identical schedules replay from cache and new ones re-simulate
    fault_spec: str = ""
    #: sensor-fault campaign spec ("" = healthy telemetry); also part of
    #: the cache key (schema 4)
    sensor_spec: str = ""
    #: soft-error (SEU) campaign spec ("" = upset-free SRAM); part of the
    #: cache key (schema 5)
    soft_error_spec: str = ""
    #: content hash of the pretrained-policy artifact a ``campaign`` cell
    #: clones from ("" = stateless design); part of the cache key, so a
    #: cell retrained under a different config can never replay stale
    #: results
    artifact_hash: str = ""
    #: filesystem location of that artifact; deliberately NOT in the
    #: cache key — moving or renaming the artifact directory must not
    #: invalidate results whose content hash is unchanged
    artifact_path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown point kind {self.kind!r}")
        if self.kind == "mode_error":
            if self.design not in MODE_DESIGNS:
                raise ValueError(
                    f"mode_error points take designs {MODE_DESIGNS}, got {self.design!r}"
                )
        elif self.kind == "chaos":
            # Chaos points compare routing policies, not RL designs.
            if self.design not in ROUTING_FUNCTIONS:
                raise ValueError(
                    f"unknown routing {self.design!r}; chaos points take "
                    f"routings {', '.join(sorted(ROUTING_FUNCTIONS))}"
                )
        elif self.design not in DESIGN_ORDER:
            raise ValueError(
                f"unknown design {self.design!r}; pick one of {', '.join(DESIGN_ORDER)}"
            )
        if self.cycles < 1:
            raise ValueError("cycles must be positive")
        for name in ("rate", "error_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def label(self) -> str:
        """Short human-readable identifier used in progress lines."""
        parts = [self.kind, self.design, self.traffic, f"s{self.seed}"]
        if self.kind in _RATED_KINDS and self.rate:
            parts.append(f"r{self.rate:g}")
        if self.kind == "mode_error":
            parts.append(f"p{self.error_probability:g}")
        if self.fault_spec:
            parts.append(self.fault_spec)
        if self.sensor_spec:
            parts.append(self.sensor_spec)
        if self.soft_error_spec:
            parts.append(self.soft_error_spec)
        if self.artifact_hash:
            parts.append(f"a{self.artifact_hash[:8]}")
        return ":".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative grid: the cross product expanded by :meth:`expand`.

    Expansion order is deterministic — traffic (outer), fault, sensor
    and soft-error specs, rate / error probability, seed, design
    (inner) — so result lists line up across runs and ``--jobs``
    settings.
    """

    config: SimulationConfig
    kind: str
    designs: Tuple[str, ...] = DESIGN_ORDER
    traffics: Tuple[str, ...] = ("canneal",)
    seeds: Tuple[int, ...] = (0,)
    rates: Tuple[float, ...] = (0.0,)
    error_probabilities: Tuple[float, ...] = (0.0,)
    #: hard-fault campaign axis (chaos kinds only; "" = healthy baseline)
    fault_specs: Tuple[str, ...] = ("",)
    #: sensor-fault campaign axis (control_chaos kind only)
    sensor_specs: Tuple[str, ...] = ("",)
    #: soft-error campaign axis (control_chaos kind only)
    soft_error_specs: Tuple[str, ...] = ("",)
    cycles: int = 3_000

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        for name in ("designs", "traffics", "seeds",
                     "fault_specs", "sensor_specs", "soft_error_specs"):
            if not getattr(self, name):
                raise ValueError(f"{name} cannot be empty")

    def expand(self) -> List[SweepPoint]:
        """The grid's jobs, in deterministic order."""
        closed_loop = self.kind == "control_chaos"
        axes = itertools.product(
            self.traffics,
            self.fault_specs if self.kind in ("chaos", "control_chaos") else ("",),
            self.sensor_specs if closed_loop else ("",),
            self.soft_error_specs if closed_loop else ("",),
            self._extra_axis(),
            self.seeds,
            self.designs,
        )
        return [
            SweepPoint(
                kind=self.kind,
                design=design,
                traffic=traffic,
                seed=seed,
                cycles=self.cycles,
                rate=extra if self.kind in _RATED_KINDS else 0.0,
                error_probability=extra if self.kind == "mode_error" else 0.0,
                fault_spec=fault_spec,
                sensor_spec=sensor_spec,
                soft_error_spec=soft_error_spec,
            )
            for (traffic, fault_spec, sensor_spec, soft_error_spec,
                 extra, seed, design) in axes
        ]

    def _extra_axis(self) -> Tuple[float, ...]:
        if self.kind in _RATED_KINDS:
            return self.rates
        if self.kind == "mode_error":
            return self.error_probabilities
        return (0.0,)


# ----------------------------------------------------------------------
# Point evaluators (run inside worker processes — keep module-level)
# ----------------------------------------------------------------------
def _eval_campaign(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    """One campaign cell: a single (benchmark, design) measurement run
    cloned from a pretrained, frozen policy artifact.

    The artifact container is validated (magic, version, body CRC) and
    its content key checked against the point's ``artifact_hash`` before
    the state is loaded, and :func:`clone_policy` rejects a poisoned
    table — a missing, torn, mismatched or poisoned artifact is an
    evaluator failure, which the supervisor retries and then quarantines
    instead of measuring garbage.
    """
    factory = default_design_factories(point.seed)[point.design]
    policy = factory()
    if point.artifact_path:
        state, meta = load_policy_artifact(point.artifact_path)
        if point.artifact_hash and meta.get("key") != point.artifact_hash:
            raise ValueError(
                f"artifact {point.artifact_path} carries key "
                f"{meta.get('key')!r}; this cell expects {point.artifact_hash!r}"
            )
        policy = clone_policy(factory, state)
    elif policy.trainable:
        raise ValueError(
            f"campaign cell for trainable design {point.design!r} has no "
            "pretrained artifact; run it through repro.sim.campaign"
        )
    records = synthesize_benchmark_trace(point.traffic, config, point.cycles, point.seed)
    result = run_design_on_trace(
        policy, records, config, benchmark=point.traffic, seed=point.seed
    )
    return {"run": result}


def _eval_load(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    """Latency and throughput of one offered load, measured over the
    injection span and its drain only: pre-training and the warm-up run
    and drain before the measured window opens."""
    policy = default_design_factories(point.seed)[point.design]()
    sim = Simulator(config, policy, seed=point.seed)
    sim.pretrain()
    sim.policy.freeze()
    sim.warmup()
    # A drain cannot run out of MAX_DRAIN_CYCLES: the watchdog's livelock
    # check fails the point first, and the runner retries or quarantines it.
    sim.drain()
    sim.begin_measurement()
    source = SyntheticTraffic(
        sim.network.topology,
        pattern=point.traffic,
        injection_rate=point.rate,
        rng=random.Random(point.seed + 9),
    )
    sim.run(source, point.cycles)
    sim.drain()
    result = sim.finish_measurement(point.traffic)
    return {
        "ledger": {"rate": point.rate, "latency": result.mean_latency,
                   "throughput": result.flits_delivered / result.execution_cycles},
    }


def _eval_mode_error(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    mode = OperationMode(int(point.design[len("mode"):]))
    rng = random.Random(point.seed)
    net = build_network(config, random.Random(point.seed + 1))
    net.set_all_modes(mode)
    for _, model in net.channel_models():
        model.event_probability = point.error_probability
    nodes = net.topology.num_nodes
    created = 0
    while created < point.cycles or not net.quiescent:
        if net.now >= MAX_DRAIN_CYCLES:
            raise RuntimeError(
                "mode_error point failed to drain within MAX_DRAIN_CYCLES "
                f"({MAX_DRAIN_CYCLES})"
            )
        if created < point.cycles and net.now % 2 == 0:
            src, dst = rng.randrange(nodes), rng.randrange(nodes)
            if src != dst:
                net.inject(
                    Packet(
                        src, dst, PACKET_FLITS, FLIT_BITS, net.now,
                        payloads=[
                            rng.getrandbits(FLIT_BITS) for _ in range(PACKET_FLITS)
                        ],
                    )
                )
                created += 1
        net.cycle()
    net.harvest_epoch_counters()
    stats = net.stats
    return {
        "ledger": {
            "mean_latency": stats.mean_latency,
            "retransmission_events": stats.retransmission_events,
            "corrected_errors": stats.corrected_errors,
            "escaped_errors": stats.escaped_errors,
            "duplicate_flits": stats.duplicate_flits,
        },
    }


def _eval_chaos(
    config: SimulationConfig, point: SweepPoint, tracer=None
) -> Dict[str, object]:
    """Graceful-degradation run: one routing policy under a hard-fault
    campaign with open-loop uniform traffic.

    Invariant-watchdog trips do not fail the sweep — they come back as a
    structured ``diagnosis`` payload, because "this configuration
    deadlocks under this cut" *is* the measurement.

    ``tracer`` attaches an event tracer to the network (CLI
    ``chaos --trace``).  Traced runs execute in-process and bypass the
    result cache — a tracer cannot cross the worker-process boundary,
    and events are a side channel the cache key does not cover.
    """
    network = build_network(config, random.Random(point.seed + 1), routing=point.design)
    if tracer is not None:
        network.attach_tracer(tracer)
    model = HardFaultModel(network, parse_fault_spec(point.fault_spec))
    network.hard_faults = model
    rng = random.Random(point.seed + 7)
    nodes = network.topology.num_nodes
    diagnosis = None
    try:
        for _ in range(point.cycles):
            if rng.random() < point.rate:
                src = rng.randrange(nodes)
                dst = rng.randrange(nodes)
                if src != dst:
                    network.inject(
                        Packet(src, dst, PACKET_FLITS, FLIT_BITS, network.now)
                    )
            network.cycle()
        deadline = network.now + MAX_DRAIN_CYCLES
        while not network.quiescent and network.now < deadline:
            network.cycle()
    except NoCInvariantError as exc:
        diagnosis = {
            "error": type(exc).__name__,
            "message": str(exc),
            "report": exc.report,
        }
    network.harvest_epoch_counters()
    stats = network.stats
    outstanding = sum(ni.outstanding_messages for ni in network.interfaces)
    return {
        "ledger": {
            "routing": point.design,
            "fault_spec": point.fault_spec,
            "applied": list(model.applied),
            "delivered_fraction": stats.delivered_fraction,
            "messages_created": stats.messages_created,
            "packets_delivered": stats.packets_delivered,
            "messages_dropped": stats.messages_dropped,
            "packets_dropped": stats.packets_dropped,
            "unreachable_drops": stats.unreachable_drops,
            "reroutes": stats.reroutes,
            "fault_recoveries": stats.fault_recoveries,
            "link_kills": stats.link_kills,
            "router_kills": stats.router_kills,
            "outstanding": outstanding,
            "pre_fault_latency": model.pre_fault_latency,
            "post_fault_latency": model.post_fault_latency,
            "diagnosis": diagnosis,
        },
    }


def _eval_control_chaos(
    config: SimulationConfig, point: SweepPoint, tracer=None
) -> Dict[str, object]:
    """Closed-loop degradation run: one full control design under every
    fault family the point names, with open-loop synthetic traffic.

    The three point specs compose: ``fault_spec`` kills links and
    routers, ``sensor_spec`` corrupts the observation path between
    ``observe_router`` and the policy, and ``soft_error_spec`` flips
    bits in the Q-table SRAM and the mode registers.  Unlike ``chaos``
    (Network-only, no policy), this drives the complete Simulator,
    because the control loop is the thing under test.

    The ledger is the union of the three families': the hard-fault
    ``applied`` list, the observation guard's tallies, the ECC
    scrubber's, and one ``injected`` dict read from the registry's
    ``sensor.injected.*`` then ``softerror.injected.*`` counters (sensor
    kinds drop/stuck/noise/stale and SEU kinds qtable/burst/mode never
    collide).
    Invariant-watchdog trips during the measured window come back as a
    structured ``diagnosis``; with sensor defenses disabled corrupted
    telemetry may crash the policy, which surfaces as an evaluator
    failure (retry -> quarantine) — exactly the behavior the hardened
    path exists to prevent.
    """
    config = dataclasses.replace(
        config,
        fault_spec=point.fault_spec,
        sensor_spec=point.sensor_spec,
        soft_error_spec=point.soft_error_spec,
    )
    policy = default_design_factories(point.seed)[point.design]()
    sim = Simulator(config, policy, seed=point.seed, tracer=tracer)
    sim.pretrain()
    sim.policy.freeze()
    sim.warmup()
    sim.begin_measurement()
    source = SyntheticTraffic(
        sim.network.topology,
        pattern=point.traffic or "uniform",
        injection_rate=point.rate,
        rng=random.Random(point.seed + 7),
    )
    diagnosis = None
    try:
        sim.run(source, point.cycles)
        sim.drain()
    except NoCInvariantError as exc:
        diagnosis = {
            "error": type(exc).__name__,
            "message": str(exc),
            "report": exc.report,
        }
    result = sim.finish_measurement(point.traffic or "uniform")
    scalars = sim.metrics.scalars()
    injected = {
        name[len(prefix):]: int(value)
        for prefix in ("sensor.injected.", "softerror.injected.")
        for name, value in scalars.items()
        if name.startswith(prefix)
    }
    peek = sim.metrics.peek
    return {
        "ledger": {
            "design": point.design,
            "fault_spec": point.fault_spec,
            "sensor_spec": point.sensor_spec,
            "soft_error_spec": point.soft_error_spec,
            "defenses": bool(config.sensor_defenses),
            "ecc": bool(config.ecc_protect),
            "scrub_every": config.scrub_every,
            "applied": list(sim.hard_faults.applied) if sim.hard_faults is not None else [],
            "delivered_fraction": result.delivered_fraction,
            "messages_created": result.messages_created,
            "packets_delivered": result.packets_delivered,
            "messages_dropped": result.messages_dropped,
            "mean_latency": result.mean_latency,
            "injected": injected,
            "rejected_observations": result.rejected_observations,
            "sensor_holds": result.sensor_holds,
            "sensor_clamps": result.sensor_clamps,
            "sensor_defaults": int(peek("sensor.defaults")),
            "debounced_switches": int(peek("sensor.debounced_switches")),
            "quarantined_routers": sorted(
                router for router, (cause, _) in sim.degraded.items() if cause == "sensor"
            ),
            "scrubs": int(peek("ecc.scrubs")),
            "corrected": int(peek("ecc.corrected")),
            "detected": int(peek("ecc.detected")),
            "quarantined_rows": int(peek("ecc.quarantined_rows")),
            "mode_votes": int(peek("ecc.mode_votes")),
            "words_single": int(peek("softerror.words_single")),
            "words_multi": int(peek("softerror.words_multi")),
            "max_abs_q": max(
                (
                    abs(value)
                    for storage in sim.policy.q_storages()
                    for row in storage.agent._table.values()
                    for value in row
                ),
                default=0.0,
            ),
            "safe_mode_entries": result.safe_mode_entries,
            "mode_switches": result.mode_switches,
            "outstanding": sum(ni.outstanding_messages for ni in sim.network.interfaces),
            "diagnosis": diagnosis,
        },
    }


_EVALUATORS = {
    "load": _eval_load,
    "mode_error": _eval_mode_error,
    "chaos": _eval_chaos,
    "control_chaos": _eval_control_chaos,
    "campaign": _eval_campaign,
}


def run_sweep_point(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    """Evaluate one point; the single code path for serial AND pooled runs."""
    started = time.perf_counter()
    payload = _EVALUATORS[point.kind](config, point)
    payload["elapsed"] = time.perf_counter() - started
    return payload


def _supervised_worker(conn, config: SimulationConfig, point: SweepPoint) -> None:
    """Worker entry point: evaluate one point, report through the pipe.

    Sends ``("ok", payload)`` or ``("error", reason)``; a worker that
    dies before sending anything (OOM kill, segfault, SIGKILL) leaves
    the pipe at EOF, which the supervisor detects as a hard death.
    """
    try:
        payload = run_sweep_point(config, point)
    except BaseException as exc:  # noqa: BLE001 - must never leak upward
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - supervisor gone
            pass
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", payload))
    finally:
        conn.close()


class _PendingTask:
    """Supervisor bookkeeping for one not-yet-completed point."""

    __slots__ = ("index", "key", "point", "attempts", "not_before")

    def __init__(self, index: int, key: str, point: SweepPoint) -> None:
        self.index = index
        self.key = key
        self.point = point
        self.attempts = 0
        #: monotonic time before which the task must not relaunch (backoff)
        self.not_before = 0.0


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def point_cache_key(config: SimulationConfig, point: SweepPoint) -> str:
    """Stable content hash of everything a point's result depends on.

    ``artifact_path`` is excluded: where an artifact lives is an
    execution detail, while WHAT it contains is covered by
    ``artifact_hash`` — so a relocated artifact directory replays from
    cache and a retrained artifact (new hash) re-simulates.
    """
    point_dict = dataclasses.asdict(point)
    point_dict.pop("artifact_path", None)
    return content_key(
        {"schema": CACHE_SCHEMA, "config": dataclasses.asdict(config), "point": point_dict}
    )


class SweepCache:
    """One checkpoint container per completed point under ``root``.

    :func:`save_checkpoint` publishes each entry atomically (unique temp
    file, fsync, rename), so an interrupted sweep never leaves a torn
    entry and two writers of one key never trample each other; on
    resume, valid entries replay and only the missing points execute.

    :meth:`load` misses (returns None) on anything suspect and never
    raises: a container :func:`load_checkpoint` rejects (missing, torn,
    bit-flipped, another version), an entry whose header names another
    key (a renamed file), or a body that is not a payload dict.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.ckpt"

    def load(self, key: str) -> Optional[Dict[str, object]]:
        try:
            payload, meta = load_checkpoint(self.path(key), version=CACHE_SCHEMA)
        except CheckpointError:
            return None
        if meta.get("key") != key or not isinstance(payload, dict):
            return None
        return payload

    def store(self, key: str, point: SweepPoint, payload: Dict[str, object]) -> None:
        save_checkpoint(
            self.path(key), payload,
            {"key": key, "point": dataclasses.asdict(point)},
            version=CACHE_SCHEMA,
        )


# ----------------------------------------------------------------------
# Results and progress
# ----------------------------------------------------------------------
@dataclass
class PointResult:
    """One point's outcome: the evaluator's record, fresh or replayed.

    ``run`` is a ``campaign`` cell's :class:`RunResult`; ``ledger`` is
    the dict every other kind's evaluator returns, exactly as built.
    """

    point: SweepPoint
    cached: bool
    elapsed: float
    run: Optional[RunResult] = None
    ledger: Optional[Dict[str, object]] = None


def _payload_to_result(
    point: SweepPoint, payload: Dict[str, object], cached: bool
) -> PointResult:
    return PointResult(
        point=point, cached=cached, elapsed=payload["elapsed"],
        run=payload.get("run"), ledger=payload.get("ledger"),
    )


@dataclass
class SweepReport:
    """The one ledger of a :meth:`SweepRunner.run` invocation: its
    progress while it runs (handed to the progress callback after every
    event) and its outcome afterwards.

    ``completed`` counts points with a result, replayed from the cache
    (``from_cache``) or executed (one ``executed_seconds`` entry each);
    ``quarantined`` lists the labels of points that kept failing after
    every retry (their result slots are None).  ``retries`` counts retry
    *attempts* across all points, ``timeouts`` and ``worker_deaths``
    break down why workers were replaced.  ``running`` and ``current``
    (the label of the point last started or settled) describe the
    moment of the latest callback.
    """

    total: int = 0
    jobs: int = 1
    completed: int = 0
    from_cache: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    quarantined: List[str] = field(default_factory=list)
    executed_seconds: List[float] = field(default_factory=list)
    running: int = 0
    current: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def executed(self) -> int:
        """Simulations actually performed (cache misses that finished)."""
        return len(self.executed_seconds)

    @property
    def done(self) -> int:
        """Points settled so far: completed or quarantined."""
        return self.completed + len(self.quarantined)

    @property
    def succeeded(self) -> bool:
        """True when every point produced a result."""
        return not self.quarantined

    def eta_seconds(self) -> Optional[float]:
        """Wall-clock estimate for the remaining points, or None before
        the first executed point lands."""
        pending = self.total - self.done
        if not self.executed_seconds or not pending:
            return None
        mean = sum(self.executed_seconds) / len(self.executed_seconds)
        return mean * pending / max(1, self.jobs)

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "completed": self.completed,
            "from_cache": self.from_cache,
            "executed": self.executed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "quarantined": len(self.quarantined),
            "elapsed_seconds": self.elapsed_seconds,
        }


def stderr_progress(report: SweepReport) -> None:
    """Default human-readable reporter: one status line per event."""
    eta = report.eta_seconds()
    eta_text = f", eta ~{eta:.0f}s" if eta is not None else ""
    trouble = ""
    if report.retries or report.quarantined:
        trouble = (
            f", {report.retries} retried, "
            f"{len(report.quarantined)} quarantined"
        )
    tail = f" [{report.current}]" if report.current else ""
    print(
        f"[sweep] {report.done}/{report.total} done "
        f"({report.from_cache} cached, {report.running} running"
        f"{trouble}{eta_text}){tail}",
        file=sys.stderr,
    )


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
#: Exponential backoff between the attempts of a failing point:
#: ``RETRY_BASE_DELAY * 2**(attempt-1) * (1 + RETRY_JITTER * u)`` seconds,
#: with ``u`` drawn from a :class:`random.Random` seeded by (cache key,
#: attempt) — deterministic per point, decorrelated across points.
RETRY_BASE_DELAY = 0.5
RETRY_JITTER = 0.5


def _backoff_delay(key: str, attempt: int) -> float:
    """Seeded exponential backoff with jitter for retry ``attempt``."""
    rng = random.Random(zlib.crc32(key.encode("utf-8")) + attempt)
    return (
        RETRY_BASE_DELAY
        * (2.0 ** (attempt - 1))
        * (1.0 + RETRY_JITTER * rng.random())
    )


class SweepRunner:
    """Replay cached points of a grid, supervise the rest.

    ``points`` is the grid (a :meth:`SweepSpec.expand` list, or campaign
    cells); results come back in its order.  ``jobs=1`` evaluates pending
    points in this process through :func:`run_sweep_point`, the function
    the workers run, so results are bit-identical across job counts.
    ``use_cache=False`` disables both lookup and storage;
    ``refresh=True`` skips lookup but stores fresh results.  After
    :meth:`run`, :attr:`report` holds the :class:`SweepReport`, the same
    object ``progress`` receives after every event.

    Supervision knobs:

    ``point_timeout``
        Wall-clock seconds one point may run before its worker is killed
        and the point retried (None = no limit).  Only enforced on the
        parallel path — a serial run cannot preempt itself.
    ``max_retries``
        How many times a failing point (evaluator exception, timeout, or
        hard worker death) is relaunched before being *quarantined*: its
        result slot stays None and the sweep carries on, so one poison
        point cannot take down a thousand-point grid.  Each relaunch
        waits out a seeded exponential backoff (``RETRY_BASE_DELAY``,
        ``RETRY_JITTER``).

    Both paths settle every attempt through :meth:`_finish` or
    :meth:`_handle_failure`, the one retry/backoff/quarantine policy.
    """

    def __init__(
        self,
        config: SimulationConfig,
        points: Sequence[SweepPoint],
        jobs: int = 1,
        cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        refresh: bool = False,
        progress: Optional[Callable[[SweepReport], None]] = None,
        point_timeout: Optional[float] = None,
        max_retries: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        self.config = config
        self.points = list(points)
        self.jobs = jobs
        self.cache = SweepCache(cache_dir) if use_cache else None
        self.refresh = refresh
        self.progress = progress
        self.point_timeout = point_timeout
        self.max_retries = max_retries
        self.report: Optional[SweepReport] = None

    # ------------------------------------------------------------------
    def run(self) -> List[Optional[PointResult]]:
        """Execute the grid; results are in point order.

        A quarantined point's slot is None — the merge helpers skip
        None, and :attr:`report` names every quarantined point.
        """
        started = time.monotonic()
        results: List[Optional[PointResult]] = [None] * len(self.points)
        report = self.report = SweepReport(total=len(self.points), jobs=self.jobs)
        waiting: List[_PendingTask] = []
        for index, point in enumerate(self.points):
            key = point_cache_key(self.config, point)
            payload = (
                self.cache.load(key) if self.cache and not self.refresh else None
            )
            if payload is None:
                waiting.append(_PendingTask(index, key, point))
            else:
                results[index] = _payload_to_result(point, payload, cached=True)
                report.from_cache += 1
                report.completed += 1
        self._report()

        if waiting:
            if self.jobs == 1:
                self._run_serial(waiting, results)
            else:
                self._run_supervised(waiting, results)
        report.elapsed_seconds = time.monotonic() - started
        return results

    # ------------------------------------------------------------------
    def _run_serial(self, waiting, results) -> None:
        """Evaluate the lowest-index waiting point in this process, after
        its backoff, until every point is settled."""
        report = self.report
        while waiting:
            task = min(waiting, key=lambda t: t.index)
            waiting.remove(task)
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            report.running = 1
            report.current = task.point.label()
            self._report()
            try:
                payload = run_sweep_point(self.config, task.point)
            except Exception as exc:  # noqa: BLE001 - quarantine, not crash
                report.running = 0
                self._handle_failure(task, f"{type(exc).__name__}: {exc}", waiting)
            else:
                report.running = 0
                self._finish(task, payload, results)

    # ------------------------------------------------------------------
    def _run_supervised(self, waiting, results) -> None:
        """Per-point worker processes under timeout/retry supervision."""
        ctx = multiprocessing.get_context()
        report = self.report
        active: Dict[object, List] = {}  # conn -> [task, process, deadline]
        try:
            while waiting or active:
                now = time.monotonic()
                launched = False
                while len(active) < self.jobs:
                    ready = [t for t in waiting if t.not_before <= now]
                    if not ready:
                        break
                    task = min(ready, key=lambda t: t.index)
                    waiting.remove(task)
                    parent, child = ctx.Pipe(duplex=False)
                    process = ctx.Process(
                        target=_supervised_worker,
                        args=(child, self.config, task.point),
                        daemon=True,
                    )
                    process.start()
                    child.close()
                    deadline = (
                        now + self.point_timeout
                        if self.point_timeout is not None
                        else None
                    )
                    active[parent] = [task, process, deadline]
                    launched = True
                report.running = len(active)
                if launched:
                    self._report()

                if not active:
                    # Every remaining task is backing off; sleep until the
                    # earliest becomes launchable.
                    wake = min(t.not_before for t in waiting)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                ready_conns = connection.wait(
                    list(active), timeout=self._wait_timeout(active, waiting)
                )
                for conn in ready_conns:
                    task, process, _deadline = active.pop(conn)
                    outcome, value = self._collect(conn, process)
                    report.running = len(active)
                    if outcome == "ok":
                        self._finish(task, value, results)
                    else:
                        if outcome == "death":
                            report.worker_deaths += 1
                        self._handle_failure(task, value, waiting)

                now = time.monotonic()
                for conn in list(active):
                    task, process, deadline = active[conn]
                    if deadline is not None and now >= deadline:
                        del active[conn]
                        self._kill(process)
                        conn.close()
                        report.timeouts += 1
                        report.running = len(active)
                        self._handle_failure(
                            task, f"timed out after {self.point_timeout:g}s", waiting
                        )
        finally:
            for conn, (task, process, _deadline) in active.items():
                self._kill(process)
                conn.close()

    def _wait_timeout(self, active, waiting) -> Optional[float]:
        """How long :func:`connection.wait` may block: until the nearest
        worker deadline, or the nearest backoff expiry if a slot is free
        (a dead worker needs no timeout — its pipe hits EOF)."""
        now = time.monotonic()
        candidates = [
            deadline - now
            for _task, _process, deadline in active.values()
            if deadline is not None
        ]
        if len(active) < self.jobs and waiting:
            candidates.append(min(t.not_before for t in waiting) - now)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    def _collect(self, conn, process):
        """Drain one finished worker; classify its outcome."""
        try:
            message = conn.recv()
        except (EOFError, OSError):
            message = None
        finally:
            conn.close()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - stuck after sending
            self._kill(process)
        if message is None:
            return "death", f"worker died (exitcode {process.exitcode})"
        status, value = message
        if status == "ok":
            return "ok", value
        return "error", value

    @staticmethod
    def _kill(process) -> None:
        if not process.is_alive():
            process.join(timeout=1.0)
            return
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - terminate ignored
            process.kill()
            process.join(timeout=2.0)

    # ------------------------------------------------------------------
    def _handle_failure(self, task, reason, waiting) -> None:
        """Put a failed point back in ``waiting`` behind its backoff, or
        quarantine it once its retries are spent."""
        report = self.report
        task.attempts += 1
        label = task.point.label()
        if task.attempts > self.max_retries:
            report.quarantined.append(label)
            report.current = label
            logger.error(
                "point %s quarantined after %d attempt(s): %s",
                label, task.attempts, reason,
            )
        else:
            report.retries += 1
            delay = _backoff_delay(task.key, task.attempts)
            task.not_before = time.monotonic() + delay
            waiting.append(task)
            logger.warning(
                "point %s failed (%s); retry %d/%d in %.2fs",
                label, reason, task.attempts, self.max_retries, delay,
            )
        self._report()

    def _finish(self, task, payload, results) -> None:
        if self.cache:
            # Flush incrementally: a kill between points loses nothing.
            self.cache.store(task.key, task.point, payload)
        report = self.report
        report.completed += 1
        report.executed_seconds.append(payload["elapsed"])
        results[task.index] = _payload_to_result(task.point, payload, cached=False)
        report.current = task.point.label()
        self._report()

    def _report(self) -> None:
        if self.progress is not None:
            self.progress(self.report)
