"""Parallel sweep orchestration with on-disk result caching.

The paper's evaluation (Figs 6-10) is a grid of (design x error-rate x
traffic x seed) measurement runs.  Each point is an independent,
deterministic simulation, so the grid parallelizes perfectly and every
completed point is worth persisting.  This module provides:

* :class:`SweepSpec` — a declarative grid specification that expands into
  :class:`SweepPoint` jobs, one per simulation;
* :func:`run_sweep_point` — the process-safe evaluator for a single
  point (also the ``--jobs 1`` serial path, so serial and parallel runs
  execute byte-identical code);
* :class:`SweepRunner` — fans pending points out over supervised
  ``multiprocessing`` workers, caches every result as JSON under
  ``.sweep_cache/`` keyed by a stable content hash of (config, point),
  and reports structured progress (done / cached / running, ETA).
  Re-running an identical grid — or resuming an interrupted one —
  replays cached points without executing a single simulation.

  The runner is a *supervisor*, not a fire-and-forget pool: each point
  runs in its own worker process with an optional wall-clock timeout,
  a crashed or killed worker is detected by its exit code and its slot
  replenished, and a failed point is retried with seeded exponential
  backoff before being quarantined.  Results flush to the cache the
  moment each point lands, so a SIGKILL mid-sweep loses at most the
  points in flight.  :attr:`SweepRunner.report` summarizes the outcome
  (completed / retried / quarantined / elapsed) as a
  :class:`SweepReport`.

Point kinds
-----------
``load``
    The classic load sweep: one design under open-loop synthetic traffic
    at one injection rate; reports latency / throughput / saturation.
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

Determinism contract: every evaluator seeds all randomness from the
point's ``seed`` field (the simulators use only local
``random.Random`` instances), so a point's result is a pure function of
(config, point) — which is precisely what the cache key hashes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import multiprocessing
import os
import random
import sys
import time
import uuid
import zlib
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.modes import OperationMode
from repro.faults.hardfaults import HardFaultModel, HardFaultSchedule
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.routing import ROUTING_FUNCTIONS
from repro.noc.topology import MeshTopology
from repro.noc.watchdog import NoCInvariantError
from repro.sim.checkpoint import load_policy_artifact
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    DESIGN_ORDER,
    clone_policy,
    default_design_factories,
    run_design_on_trace,
    synthesize_benchmark_trace,
)
from repro.sim.metrics import RunResult
from repro.sim.simulator import Simulator
from repro.traffic.synthetic import NullTraffic, SyntheticTraffic

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "SweepPoint",
    "SweepSpec",
    "PointResult",
    "SweepProgress",
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
CACHE_SCHEMA = 7

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
    error_scale: float = 1.0
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
                    f"chaos points take routings "
                    f"{tuple(sorted(ROUTING_FUNCTIONS))}, got {self.design!r}"
                )
        elif self.design not in DESIGN_ORDER:
            raise ValueError(
                f"unknown design {self.design!r}; pick one of {', '.join(DESIGN_ORDER)}"
            )
        if self.cycles < 1:
            raise ValueError("cycles must be positive")

    def label(self) -> str:
        """Short human-readable identifier used in progress lines."""
        parts = [self.kind, self.design, self.traffic, f"s{self.seed}"]
        if self.kind in _RATED_KINDS and self.rate:
            parts.append(f"r{self.rate:g}")
        if self.kind == "mode_error":
            parts.append(f"p{self.error_probability:g}")
        if self.error_scale != 1.0:
            parts.append(f"x{self.error_scale:g}")
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

    Expansion order is deterministic — traffic (outer), error scale,
    rate / error probability, seed, design (inner) — so result lists
    line up across runs and ``--jobs`` settings.
    """

    config: SimulationConfig
    kind: str
    designs: Tuple[str, ...] = DESIGN_ORDER
    traffics: Tuple[str, ...] = ("canneal",)
    seeds: Tuple[int, ...] = (0,)
    error_scales: Tuple[float, ...] = (1.0,)
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
        for name in ("designs", "traffics", "seeds", "error_scales",
                     "fault_specs", "sensor_specs", "soft_error_specs"):
            if not getattr(self, name):
                raise ValueError(f"{name} cannot be empty")

    def expand(self) -> List[SweepPoint]:
        """The grid's jobs, in deterministic order."""
        closed_loop = self.kind == "control_chaos"
        axes = itertools.product(
            self.traffics,
            self.error_scales,
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
                error_scale=scale,
                rate=extra if self.kind in _RATED_KINDS else 0.0,
                error_probability=extra if self.kind == "mode_error" else 0.0,
                fault_spec=fault_spec,
                sensor_spec=sensor_spec,
                soft_error_spec=soft_error_spec,
            )
            for (traffic, scale, fault_spec, sensor_spec, soft_error_spec,
                 extra, seed, design) in axes
        ]

    def _extra_axis(self) -> Tuple[float, ...]:
        if self.kind in _RATED_KINDS:
            return self.rates
        if self.kind == "mode_error":
            return self.error_probabilities
        return (0.0,)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (inverse of :meth:`from_dict`)."""
        out = dataclasses.asdict(self)
        out["config"] = dataclasses.asdict(self.config)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        """Build a spec from a plain dict (e.g. a JSON grid file)."""
        kwargs = dict(data)
        config = kwargs.pop("config", {})
        if not isinstance(config, SimulationConfig):
            config = dict(config)
            if "error_severity" in config:
                config["error_severity"] = tuple(config["error_severity"])
            config = SimulationConfig(**config)
        for name in ("designs", "traffics", "seeds", "error_scales",
                     "rates", "error_probabilities", "fault_specs",
                     "sensor_specs", "soft_error_specs"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(config=config, **kwargs)


# ----------------------------------------------------------------------
# Point evaluators (run inside worker processes — keep module-level)
# ----------------------------------------------------------------------
def _eval_campaign(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    """One campaign cell: a single (benchmark, design) measurement run
    cloned from a pretrained, frozen policy artifact.

    The artifact container is validated (magic, version, body CRC) and
    its content key checked against the point's ``artifact_hash`` before
    the state is loaded — a missing, torn, or mismatched artifact is an
    evaluator failure, which the supervisor retries and then
    quarantines instead of measuring garbage.
    """
    config = dataclasses.replace(config, error_scale=point.error_scale)
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
    return {"run": result.constructor_dict()}


def _eval_load(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    config = dataclasses.replace(config, error_scale=point.error_scale)
    policy = default_design_factories(point.seed)[point.design]()
    sim = Simulator(config, policy, seed=point.seed)
    if sim.policy.trainable:
        sim.pretrain()
    sim.policy.freeze()
    source = SyntheticTraffic(
        sim.network.topology,
        pattern=point.traffic,
        injection_rate=point.rate,
        packet_size=config.packet_size,
        flit_bits=config.flit_bits,
        rng=random.Random(point.seed + 9),
    )
    sim.run(source, point.cycles, learn=True)
    try:
        sim.run_until_drained(NullTraffic(), lambda: True, learn=True)
    except RuntimeError:
        return {
            "load": {"rate": point.rate, "latency": None,
                     "throughput": 0.0, "saturated": True},
        }
    stats = sim.network.stats
    return {
        "load": {"rate": point.rate, "latency": stats.mean_latency,
                 "throughput": stats.throughput, "saturated": False},
    }


def _eval_mode_error(config: SimulationConfig, point: SweepPoint) -> Dict[str, object]:
    mode = OperationMode(int(point.design[len("mode"):]))
    rng = random.Random(point.seed)
    net = Network(
        MeshTopology(config.width, config.height), rng=random.Random(point.seed + 1)
    )
    net.set_all_modes(mode)
    for _, model in net.channel_models():
        model.event_probability = point.error_probability
    nodes = net.topology.num_nodes
    created = 0
    while created < point.cycles or not net.quiescent:
        if created < point.cycles and net.now % 2 == 0:
            src, dst = rng.randrange(nodes), rng.randrange(nodes)
            if src != dst:
                net.inject(
                    Packet(
                        src, dst, config.packet_size, config.flit_bits, net.now,
                        payloads=[
                            rng.getrandbits(config.flit_bits)
                            for _ in range(config.packet_size)
                        ],
                    )
                )
                created += 1
        net.cycle()
        if net.now > 500_000:
            raise RuntimeError("network failed to drain")
    net.harvest_epoch_counters(1)
    stats = net.stats
    return {
        "stats": {
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
    topology = MeshTopology(config.width, config.height)
    network = Network(
        topology,
        routing_fn=point.design,
        num_vcs=config.num_vcs,
        vc_depth=config.vc_depth,
        flit_bits=config.flit_bits,
        arq_capacity=config.arq_capacity,
        channel_latency=config.channel_latency,
        rng=random.Random(point.seed + 1),
        routing_seed=point.seed,
        watchdog_interval=config.watchdog_interval,
        deadlock_cycles=config.deadlock_cycles,
        max_packet_age=config.max_packet_age,
    )
    if tracer is not None:
        network.attach_tracer(tracer)
    model = HardFaultModel(network, HardFaultSchedule.parse(point.fault_spec))
    network.hard_faults = model
    rate = point.rate if point.rate > 0.0 else 0.1
    rng = random.Random(point.seed + 7)
    nodes = topology.num_nodes
    diagnosis = None
    message_id = 0
    try:
        for _ in range(point.cycles):
            if rng.random() < rate:
                src = rng.randrange(nodes)
                dst = rng.randrange(nodes)
                if src != dst:
                    network.inject(
                        Packet(
                            src, dst, config.packet_size, config.flit_bits,
                            network.now, message_id=message_id,
                        )
                    )
                    message_id += 1
            network.cycle()
        deadline = network.now + config.max_drain_cycles
        while not network.quiescent and network.now < deadline:
            network.cycle()
    except NoCInvariantError as exc:
        diagnosis = {
            "error": type(exc).__name__,
            "message": str(exc),
            "report": exc.report,
        }
    network.harvest_epoch_counters(0)
    stats = network.stats
    outstanding = sum(ni.outstanding_messages for ni in network.interfaces)
    return {
        "chaos": {
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
    scrubber's, and one ``injected`` dict (sensor kinds drop/stuck/
    noise/stale and SEU kinds qtable/mode/burst never collide).
    Invariant-watchdog trips during the measured window come back as a
    structured ``diagnosis``; with sensor defenses disabled corrupted
    telemetry may crash the policy, which surfaces as an evaluator
    failure (retry -> quarantine) — exactly the behavior the hardened
    path exists to prevent.
    """
    config = dataclasses.replace(
        config,
        error_scale=point.error_scale,
        fault_spec=point.fault_spec,
        sensor_spec=point.sensor_spec,
        soft_error_spec=point.soft_error_spec,
    )
    policy = default_design_factories(point.seed)[point.design]()
    sim = Simulator(config, policy, seed=point.seed, tracer=tracer)
    if sim.policy.trainable and config.pretrain_cycles > 0:
        sim.pretrain()
    sim.policy.freeze()
    if config.warmup_cycles > 0:
        sim.warmup()
    sim.begin_measurement()
    start = sim.network.now
    rate = point.rate if point.rate > 0.0 else 0.05
    source = SyntheticTraffic(
        sim.network.topology,
        pattern=point.traffic or "uniform",
        injection_rate=rate,
        packet_size=config.packet_size,
        flit_bits=config.flit_bits,
        rng=random.Random(point.seed + 7),
    )
    diagnosis = None
    try:
        sim.run(source, point.cycles, learn=True)
        deadline = sim.network.now + config.max_drain_cycles
        while not sim.network.quiescent and sim.network.now < deadline:
            sim._cycle()
            if sim.network.now % config.epoch_cycles == 0:
                sim._epoch_boundary(learn=True)
    except NoCInvariantError as exc:
        diagnosis = {
            "error": type(exc).__name__,
            "message": str(exc),
            "report": exc.report,
        }
    result = sim.finish_measurement(point.traffic or "uniform", sim.network.now - start)
    guard = sim.obs_guard
    injected: Dict[str, int] = {}
    for model in (sim.sensors, sim.soft_errors):
        if model is not None:
            injected.update(model.injected)
    peek = sim.metrics.peek
    return {
        "control_chaos": {
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
            "quarantined_routers": sorted(guard.quarantined) if guard is not None else [],
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
    fingerprint = {
        "schema": CACHE_SCHEMA,
        "config": dataclasses.asdict(config),
        "point": point_dict,
    }
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _payload_crc(payload: Dict[str, object]) -> int:
    """CRC32 over the canonical (sorted, compact) payload JSON.

    Computed on the dumps->loads round trip so the checksum stored at
    write time matches what a reader recomputes from the parsed entry
    (tuples become lists, keys become strings) — the two serializations
    are then byte-identical.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    normalized = json.dumps(
        json.loads(canonical), sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(normalized.encode("utf-8")) & 0xFFFFFFFF


class SweepCache:
    """One JSON file per completed point under ``root``.

    Files are written atomically (uniquely-named temp + rename) so an
    interrupted sweep never leaves a truncated entry and two workers
    finishing the same key never trample each other's temp file; on
    resume, valid entries replay and only the missing points execute.

    :meth:`load` is a *validating* miss-on-anything-suspect reader: a
    truncated file, a non-JSON file, a wrong schema, a malformed entry
    shape, or a checksum mismatch all return None (cache miss) — the
    cache never raises and never replays a corrupt payload.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, object]]:
        path = self.path(key)
        try:
            with path.open() as handle:
                entry = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            return None
        try:
            if _payload_crc(payload) != entry.get("crc32"):
                return None
        except (TypeError, ValueError):
            return None
        return payload

    def store(self, key: str, point: SweepPoint, payload: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "point": dataclasses.asdict(point),
            "crc32": _payload_crc(payload),
            "payload": payload,
        }
        # The temp name must be unique per writer: concurrent workers (or
        # two sweeps sharing a cache dir) finishing the same key would
        # otherwise write through the same ".tmp" path and race the
        # rename, publishing an interleaved file.
        tmp = self.root / f"{key}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        try:
            with tmp.open("w") as handle:
                json.dump(entry, handle, indent=2)
            os.replace(tmp, self.path(key))
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed write
                tmp.unlink()


# ----------------------------------------------------------------------
# Results and progress
# ----------------------------------------------------------------------
@dataclass
class PointResult:
    """One point's outcome, decoded back into rich objects."""

    point: SweepPoint
    cached: bool
    elapsed: float
    run: Optional[RunResult] = None
    load: Optional[Dict[str, float]] = None
    mode_stats: Optional[Dict[str, float]] = None
    chaos: Optional[Dict[str, object]] = None
    control: Optional[Dict[str, object]] = None


def _payload_to_result(
    point: SweepPoint, payload: Dict[str, object], cached: bool
) -> PointResult:
    result = PointResult(
        point=point, cached=cached, elapsed=float(payload.get("elapsed", 0.0))
    )
    if payload.get("run") is not None:
        result.run = RunResult.from_dict(payload["run"])
    if payload.get("load") is not None:
        load = dict(payload["load"])
        if load.get("saturated"):
            load["latency"] = float("inf")
        result.load = load
    if payload.get("stats") is not None:
        result.mode_stats = dict(payload["stats"])
    if payload.get("chaos") is not None:
        result.chaos = dict(payload["chaos"])
    if payload.get("control_chaos") is not None:
        result.control = dict(payload["control_chaos"])
    return result


@dataclass
class SweepProgress:
    """Structured progress snapshot handed to the reporter callback."""

    total: int
    done: int = 0
    cached: int = 0
    running: int = 0
    retried: int = 0
    quarantined: int = 0
    executed_seconds: List[float] = field(default_factory=list)
    jobs: int = 1
    current: Optional[str] = None

    @property
    def pending(self) -> int:
        return self.total - self.done

    def eta_seconds(self) -> Optional[float]:
        """Wall-clock estimate for the remaining points, or None before
        the first executed point lands."""
        if not self.executed_seconds or not self.pending:
            return None
        mean = sum(self.executed_seconds) / len(self.executed_seconds)
        return mean * self.pending / max(1, self.jobs)


def stderr_progress(progress: SweepProgress) -> None:
    """Default human-readable reporter: one status line per event."""
    eta = progress.eta_seconds()
    eta_text = f", eta ~{eta:.0f}s" if eta is not None else ""
    trouble = ""
    if progress.retried or progress.quarantined:
        trouble = (
            f", {progress.retried} retried, "
            f"{progress.quarantined} quarantined"
        )
    tail = f" [{progress.current}]" if progress.current else ""
    print(
        f"[sweep] {progress.done}/{progress.total} done "
        f"({progress.cached} cached, {progress.running} running"
        f"{trouble}{eta_text}){tail}",
        file=sys.stderr,
    )


@dataclass
class SweepReport:
    """Structured outcome of one :meth:`SweepRunner.run` invocation.

    ``quarantined`` lists the labels of points that kept failing after
    every retry (their result slots are None); ``retries`` counts retry
    *attempts* across all points, ``timeouts`` and ``worker_deaths``
    break down why workers were replaced.
    """

    total: int = 0
    completed: int = 0
    from_cache: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    quarantined: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True when every point produced a result."""
        return not self.quarantined

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


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Expand a spec, replay cached points, supervise the rest.

    ``jobs=1`` runs pending points serially in-process through the exact
    same evaluator the workers use, so results are bit-identical across
    job counts.  ``use_cache=False`` disables both lookup and storage;
    ``refresh=True`` skips lookup but stores fresh results.  After
    :meth:`run`, ``executed`` counts simulations actually performed
    (i.e. cache misses) and :attr:`report` holds the structured
    :class:`SweepReport`.

    Supervision knobs:

    ``point_timeout``
        Wall-clock seconds one point may run before its worker is killed
        and the point retried (None = no limit).  Only enforced on the
        parallel path — a serial run cannot preempt itself.
    ``max_retries``
        How many times a failing point (evaluator exception, timeout, or
        hard worker death) is relaunched before being *quarantined*: its
        result slot stays None and the sweep carries on, so one poison
        point cannot take down a thousand-point grid.
    ``retry_base_delay`` / ``retry_jitter``
        Exponential backoff between attempts:
        ``base * 2**(attempt-1) * (1 + jitter * u)`` with ``u`` drawn
        from a :class:`random.Random` seeded by (cache key, attempt) —
        deterministic per point, decorrelated across points.
    """

    def __init__(
        self,
        spec: SweepSpec,
        jobs: int = 1,
        cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        refresh: bool = False,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        point_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_base_delay: float = 0.5,
        retry_jitter: float = 0.5,
        registry=None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if retry_base_delay < 0 or retry_jitter < 0:
            raise ValueError("backoff parameters cannot be negative")
        self.spec = spec
        self.jobs = jobs
        self.cache = SweepCache(cache_dir) if use_cache else None
        self.refresh = refresh
        self.progress = progress
        self.point_timeout = point_timeout
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self.retry_jitter = retry_jitter
        self.executed = 0
        self.report: Optional[SweepReport] = None
        #: optional repro.obs MetricRegistry that absorbs the final
        #: SweepReport counts as ``sweep.*`` gauges after each run
        self.registry = registry

    # ------------------------------------------------------------------
    def run(self) -> List[Optional[PointResult]]:
        """Execute the grid; results are in spec expansion order.

        A quarantined point's slot is None — the merge helpers skip
        None, and :attr:`report` names every quarantined point.
        """
        started = time.monotonic()
        points = self.spec.expand()
        results: List[Optional[PointResult]] = [None] * len(points)
        state = SweepProgress(total=len(points), jobs=self.jobs)
        report = SweepReport(total=len(points))
        self.executed = 0
        self.report = report

        pending: List[_PendingTask] = []
        for index, point in enumerate(points):
            key = point_cache_key(self.spec.config, point)
            payload = (
                self.cache.load(key) if self.cache and not self.refresh else None
            )
            if payload is not None:
                results[index] = _payload_to_result(point, payload, cached=True)
                state.cached += 1
                state.done += 1
                report.from_cache += 1
                report.completed += 1
            else:
                pending.append(_PendingTask(index, key, point))
        self._report(state)

        if pending:
            if self.jobs == 1:
                self._run_serial(pending, results, state, report)
            else:
                self._run_supervised(pending, results, state, report)
        report.elapsed_seconds = time.monotonic() - started
        if self.registry is not None:
            self.registry.ingest("sweep", report.as_dict())
        return results

    # ------------------------------------------------------------------
    def _backoff_delay(self, key: str, attempt: int) -> float:
        """Seeded exponential backoff with jitter for retry ``attempt``."""
        rng = random.Random(zlib.crc32(key.encode("utf-8")) + attempt)
        return (
            self.retry_base_delay
            * (2.0 ** (attempt - 1))
            * (1.0 + self.retry_jitter * rng.random())
        )

    def _run_serial(self, pending, results, state, report) -> None:
        for task in pending:
            state.running = 1
            state.current = task.point.label()
            self._report(state)
            payload = None
            reason = ""
            while payload is None:
                try:
                    payload = run_sweep_point(self.spec.config, task.point)
                except Exception as exc:  # noqa: BLE001 - quarantine, not crash
                    task.attempts += 1
                    reason = f"{type(exc).__name__}: {exc}"
                    if task.attempts > self.max_retries:
                        break
                    report.retries += 1
                    state.retried += 1
                    delay = self._backoff_delay(task.key, task.attempts)
                    logger.warning(
                        "point %s failed (%s); retry %d/%d in %.2fs",
                        task.point.label(), reason,
                        task.attempts, self.max_retries, delay,
                    )
                    if delay > 0:
                        time.sleep(delay)
            state.running = 0
            if payload is None:
                self._quarantine(task, reason, report, state)
            else:
                self._finish(task.index, task.key, task.point, payload,
                             results, state, report)

    # ------------------------------------------------------------------
    def _run_supervised(self, pending, results, state, report) -> None:
        """Per-point worker processes under timeout/retry supervision."""
        ctx = multiprocessing.get_context()
        waiting = list(pending)
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
                        args=(child, self.spec.config, task.point),
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
                state.running = len(active)
                if launched:
                    self._report(state)

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
                    state.running = len(active)
                    if outcome == "ok":
                        self._finish(task.index, task.key, task.point, value,
                                     results, state, report)
                    else:
                        if outcome == "death":
                            report.worker_deaths += 1
                        self._handle_failure(task, value, waiting, report, state)

                now = time.monotonic()
                for conn in list(active):
                    task, process, deadline = active[conn]
                    if deadline is not None and now >= deadline:
                        del active[conn]
                        self._kill(process)
                        conn.close()
                        report.timeouts += 1
                        state.running = len(active)
                        self._handle_failure(
                            task,
                            f"timed out after {self.point_timeout:g}s",
                            waiting, report, state,
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

    def _handle_failure(self, task, reason, waiting, report, state) -> None:
        task.attempts += 1
        if task.attempts > self.max_retries:
            self._quarantine(task, reason, report, state)
            return
        report.retries += 1
        state.retried += 1
        delay = self._backoff_delay(task.key, task.attempts)
        task.not_before = time.monotonic() + delay
        waiting.append(task)
        logger.warning(
            "point %s failed (%s); retry %d/%d in %.2fs",
            task.point.label(), reason, task.attempts, self.max_retries, delay,
        )
        self._report(state)

    def _quarantine(self, task, reason, report, state) -> None:
        label = task.point.label()
        report.quarantined.append(label)
        state.quarantined += 1
        state.done += 1
        state.current = label
        logger.error(
            "point %s quarantined after %d attempt(s): %s",
            label, task.attempts, reason,
        )
        self._report(state)

    # ------------------------------------------------------------------
    def _finish(self, index, key, point, payload, results, state, report) -> None:
        if self.cache:
            # Flush incrementally: a kill between points loses nothing.
            self.cache.store(key, point, payload)
        self.executed += 1
        report.executed += 1
        report.completed += 1
        state.executed_seconds.append(float(payload.get("elapsed", 0.0)))
        results[index] = _payload_to_result(point, payload, cached=False)
        state.done += 1
        state.current = point.label()
        self._report(state)

    def _report(self, state: SweepProgress) -> None:
        if self.progress is not None:
            self.progress(state)
