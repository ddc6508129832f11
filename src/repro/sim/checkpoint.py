"""Crash-resilient checkpoint/resume for long simulation runs.

A multi-hour RL training run that evaporates on the first SIGKILL is not
a production harness.  This module makes the full ``run`` pipeline
(pre-train -> warm-up -> measured trace replay) durable:

* **Container format** — a checkpoint file is ``MAGIC | header-length |
  JSON header | pickle body``.  The header carries the format version, a
  CRC32 over the body, and human-readable metadata (design, benchmark,
  cycle), so tooling can inspect a snapshot without unpickling it and a
  torn or bit-rotted file is rejected loudly instead of resuming
  garbage.  Writes are atomic (unique tmp + ``os.replace``), so a kill
  mid-write never corrupts the previous snapshot.

* **Bit-identical resume** — the body pickles the entire
  :class:`~repro.sim.simulator.Simulator` object graph (network buffers,
  in-flight flits, RNG states, Q-tables, thermal state) plus the active
  traffic source and the run-plan cursor.  Because serialization never
  mutates state and restores it exactly, a run that is killed and
  resumed produces the same final metrics, bit for bit, as one that was
  never interrupted — the determinism contract the integration tests
  pin down.

* **Validated Q-state** — alongside the pickle, the policy's learned
  state is stored through ``ControlPolicy.to_state`` and re-loaded
  through ``load_state`` on resume, which routes every Q-table through
  :meth:`QLearningAgent.from_state` validation.  A table with NaN/inf
  entries or a wrong action count does not crash the resume: the
  affected router is pinned to safe mode (mode 3, timing relaxation)
  and the degradation is logged.

The run plan mirrors ``Simulator.pretrain`` / ``warmup`` /
``measure_trace`` exactly — same segment spans, same RNG seeds, same
epoch-boundary cadence — so ``ResumableRun`` with no checkpointing is
byte-equivalent to the classic ``pretrain -> freeze -> warmup ->
measure_trace`` pipeline.  ``repro run`` executes every run, with or
without ``--checkpoint``, through ``ResumableRun``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pickle
import random
import struct
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.modes import OperationMode
from repro.noc.network import resolve_kernel
from repro.noc.packet import Packet
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    default_design_factories,
    synthesize_benchmark_trace,
)
from repro.sim.metrics import RunResult
from repro.sim.simulator import Simulator
from repro.traffic.synthetic import SyntheticTraffic

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "ARTIFACT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "save_policy_artifact",
    "load_policy_artifact",
    "read_policy_artifact_meta",
    "ResumableRun",
]

logger = logging.getLogger("repro.sim.checkpoint")

CHECKPOINT_MAGIC = b"RNOCCKPT"
#: Version 2: the pickled object graph gained the activity-driven kernel
#: state (active-set registries, skip-sampler gap countdowns, the O(1)
#: outstanding-message counter) and reshaped several slotted hot classes
#: — version-1 bodies cannot restore into this build, so they are
#: rejected by the header check instead of failing deep in pickle.
#: Version 3: the simulator gained the degraded-telemetry control plane
#: (sensor-fault model countdowns, observation-guard hold/quarantine
#: state, the epoch index and per-router mode-switch debounce clocks) —
#: version-2 bodies would restore into a simulator missing those
#: attributes and die at the first epoch boundary.
#: Version 4: the simulator gained the memory soft-error subsystem (SEU
#: model one-shot flags and master RNG, SECDED Q-table storages with
#: codeword tables and dirty sets, the TMR mode-register bank, ECC
#: escalation state) and the metric registry's instruments grew a
#: non-finite guard backref — version-3 bodies would restore into
#: objects missing those attributes and die at the first epoch boundary
#: or scrub pass.
#: Version 5: channel delivery moved to network-owned due lists and the
#: sideband became a one-cycle wire of plain ints (credits are VC
#: indices, ACK/NACKs are ``seq``/``~seq`` codes) — version-4 bodies carry
#: timestamped sideband tuples, ``AckMessage`` objects and the removed
#: active-channel set, which this build's kernels cannot deliver.
CHECKPOINT_VERSION = 5

#: Pretrained-policy campaign artifacts share the container format but
#: version independently: an artifact body is a ``ControlPolicy.to_state``
#: snapshot, not a pickled Simulator graph, so simulator reshapes that
#: bump CHECKPOINT_VERSION do not invalidate artifacts (and vice versa).
#: Version 1: {"state": <policy.to_state()>} bodies.
ARTIFACT_VERSION = 1

_HEADER_LEN = struct.Struct("<I")


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, corrupt, or incompatible."""


def save_checkpoint(
    path: Union[str, Path],
    payload: object,
    meta: Dict[str, object],
    version: int = CHECKPOINT_VERSION,
) -> Path:
    """Atomically write a versioned, CRC-guarded checkpoint.

    The body is pickled ``payload``; ``meta`` must be JSON-serializable
    and is readable later via :func:`read_checkpoint_meta` without
    touching the pickle.  The write goes to a uniquely-named temp file
    first and is published with ``os.replace``, so a crash mid-write
    leaves any previous checkpoint intact.  ``version`` defaults to the
    run-snapshot format; other container users (campaign artifacts)
    stamp their own version so readers reject foreign bodies cleanly.
    """
    path = Path(path)
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "version": version,
            "crc32": zlib.crc32(body) & 0xFFFFFFFF,
            "body_bytes": len(body),
            "meta": meta,
        },
        sort_keys=True,
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(_HEADER_LEN.pack(len(header)))
            handle.write(header)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()
    return path


def _read_container(
    path: Union[str, Path], version: int = CHECKPOINT_VERSION
) -> Tuple[Dict[str, object], bytes]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(blob) < len(CHECKPOINT_MAGIC) + _HEADER_LEN.size:
        raise CheckpointError(f"{path} is truncated (not a checkpoint)")
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path} is not a repro checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = _HEADER_LEN.unpack_from(blob, offset)
    offset += _HEADER_LEN.size
    if offset + header_len > len(blob):
        raise CheckpointError(f"{path} is truncated (header cut short)")
    try:
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from None
    found = header.get("version")
    if found != version:
        raise CheckpointError(
            f"{path} is checkpoint version {found!r}; this reader expects "
            f"version {version}"
        )
    body = blob[offset + header_len:]
    if len(body) != header.get("body_bytes"):
        raise CheckpointError(
            f"{path} is truncated: body is {len(body)} bytes, header "
            f"promises {header.get('body_bytes')}"
        )
    if (zlib.crc32(body) & 0xFFFFFFFF) != header.get("crc32"):
        raise CheckpointError(f"{path} failed its CRC check (corrupt body)")
    return header, body


def read_checkpoint_meta(
    path: Union[str, Path], version: int = CHECKPOINT_VERSION
) -> Dict[str, object]:
    """Validate the container and return the JSON metadata only."""
    header, _ = _read_container(path, version=version)
    return dict(header.get("meta", {}))


def load_checkpoint(
    path: Union[str, Path], version: int = CHECKPOINT_VERSION
) -> Tuple[object, Dict[str, object]]:
    """Validate and unpickle a checkpoint; returns (payload, meta)."""
    header, body = _read_container(path, version=version)
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointError(f"{path} body failed to unpickle: {exc}") from None
    return payload, dict(header.get("meta", {}))


# ----------------------------------------------------------------------
# Pretrained-policy campaign artifacts
# ----------------------------------------------------------------------
def save_policy_artifact(
    path: Union[str, Path], state: Dict[str, object], meta: Dict[str, object]
) -> Path:
    """Persist a frozen policy snapshot as a campaign artifact.

    Same atomic, CRC-guarded container as run checkpoints, stamped with
    :data:`ARTIFACT_VERSION`; ``state`` is a ``ControlPolicy.to_state``
    snapshot and ``meta`` should carry the campaign's content key so
    readers can verify they got the artifact they asked for.
    """
    return save_checkpoint(path, {"state": state}, meta, version=ARTIFACT_VERSION)


def load_policy_artifact(
    path: Union[str, Path],
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Validate an artifact and return ``(policy_state, meta)``."""
    payload, meta = load_checkpoint(path, version=ARTIFACT_VERSION)
    if not isinstance(payload, dict) or "state" not in payload:
        raise CheckpointError(f"{path} is not a policy artifact")
    return payload["state"], meta


def read_policy_artifact_meta(path: Union[str, Path]) -> Dict[str, object]:
    """Validate an artifact container and return its metadata only."""
    return read_checkpoint_meta(path, version=ARTIFACT_VERSION)


# ----------------------------------------------------------------------
# The resumable run plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Segment:
    """One deterministic slice of the run plan.

    ``new_source`` is ``(pattern, injection_rate, rng_seed)`` when the
    segment starts a fresh synthetic source (shared by the following
    segments until replaced); ``None`` keeps the current source.
    """

    phase: str  # pretrain | drain | freeze | warmup | measure
    cycles: int = 0
    forced_mode: Optional[int] = None
    new_source: Optional[Tuple[str, float, int]] = None


def _plan_segments(
    config: SimulationConfig, trainable: bool
) -> List[_Segment]:
    """The full run plan; mirrors Simulator.pretrain/warmup exactly."""
    segments: List[_Segment] = []
    cycles = config.pretrain_cycles
    if cycles > 0 and trainable:
        base = config.pretrain_injection_rate
        rates = [0.6 * base, base, 2.2 * base]
        span = cycles // len(rates)
        curriculum_share = 0.6
        forced_span = int(span * curriculum_share) // len(OperationMode)
        free_span = span - forced_span * len(OperationMode)
        for i, rate in enumerate(rates):
            source = (config.pretrain_pattern, min(rate, 1.0), 101 + i)
            for mode in OperationMode:
                segments.append(
                    _Segment(
                        "pretrain", forced_span, forced_mode=int(mode),
                        new_source=source,
                    )
                )
                source = None
            segments.append(_Segment("pretrain", free_span))
        segments.append(_Segment("drain"))
    segments.append(_Segment("freeze"))
    if config.warmup_cycles > 0:
        segments.append(
            _Segment(
                "warmup",
                config.warmup_cycles,
                new_source=(
                    config.pretrain_pattern,
                    config.pretrain_injection_rate,
                    202,
                ),
            )
        )
    segments.append(_Segment("measure"))
    return segments


class ResumableRun:
    """One checkpointable (design, benchmark) measurement run.

    Drives the classic ``Simulator`` phase pipeline through an explicit
    segment cursor, snapshotting the whole simulation every
    ``checkpoint_every`` cycles (and at every segment boundary) when a
    ``checkpoint_path`` is set.  :meth:`resume` restores a snapshot and
    continues to the same final :class:`RunResult` an uninterrupted run
    produces.
    """

    def __init__(
        self,
        config: SimulationConfig,
        design: str,
        benchmark: str,
        seed: int = 0,
        trace_cycles: int = 3_000,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every cannot be negative")
        self.config = config
        self.design = design
        self.benchmark = benchmark
        self.seed = seed
        self.trace_cycles = trace_cycles
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = checkpoint_every

        policy = default_design_factories(seed)[design]()
        self.sim = Simulator(config, policy, seed=seed)
        self.segments = _plan_segments(config, policy.trainable)
        self.segment_index = 0
        self.segment_offset = 0
        self.source = None
        self.measure_origin: Optional[int] = None
        self.measure_start: Optional[int] = None
        self.result: Optional[RunResult] = None
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _meta(self) -> Dict[str, object]:
        segment = (
            self.segments[self.segment_index].phase
            if self.segment_index < len(self.segments)
            else "done"
        )
        return {
            "design": self.design,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "trace_cycles": self.trace_cycles,
            "cycle": self.sim.network.now,
            "segment": self.segment_index,
            "phase": segment,
            "finished": self.result is not None,
            "checkpoint_every": self.checkpoint_every,
            # Informational: which cycle kernel produced the snapshot.
            # Both kernels are bit-identical and the snapshot carries the
            # activity registries either way, so a checkpoint written
            # under one kernel resumes correctly under the other.
            "kernel": self.sim.network.kernel,
            "config": dataclasses.asdict(self.config),
        }

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Snapshot the run (atomic, versioned, CRC-guarded)."""
        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        # Emit before pickling, so the snapshot's own trace buffer
        # already contains this save marker — a run that checkpoints and
        # one that checkpoints *and later resumes* then carry identical
        # save events (the canonical digest excludes the checkpoint
        # category anyway; see repro.obs.trace.DIGEST_EXCLUDE).
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.emit(
                self.sim.network.now,
                "checkpoint",
                "save",
                segment=self.segment_index,
                offset=self.segment_offset,
            )
        payload = {
            "config": self.config,
            "design": self.design,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "trace_cycles": self.trace_cycles,
            "sim": self.sim,
            "source": self.source,
            "segment_index": self.segment_index,
            "segment_offset": self.segment_offset,
            "measure_origin": self.measure_origin,
            "measure_start": self.measure_start,
            "result": self.result,
            "policy_state": self.sim.policy.to_state(),
            # Packet ids come from a process-global counter.  Without it
            # a fresh process would reissue ids already carried by the
            # pickled in-flight packets, and the NI reassembly / ARQ
            # bookkeeping (keyed by pid / message_id) would collide.
            "next_pid": Packet._next_pid,
        }
        saved = save_checkpoint(target, payload, self._meta())
        self.checkpoints_written += 1
        return saved

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
    ) -> "ResumableRun":
        """Restore a snapshot; continues checkpointing to the same file
        (at the snapshot's cadence) unless ``checkpoint_path`` /
        ``checkpoint_every`` override it.

        The policy's learned state is re-validated on the way in: any
        rejected Q-table pins its router to safe mode instead of
        aborting the resume.
        """
        payload, meta = load_checkpoint(path)
        if not isinstance(payload, dict) or "sim" not in payload:
            raise CheckpointError(f"{path} is not a run checkpoint")
        run = cls.__new__(cls)
        run.config = payload["config"]
        run.design = payload["design"]
        run.benchmark = payload["benchmark"]
        run.seed = payload["seed"]
        run.trace_cycles = payload["trace_cycles"]
        run.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else Path(path)
        )
        run.checkpoint_every = (
            checkpoint_every
            if checkpoint_every is not None
            else int(meta.get("checkpoint_every", 0) or 0)
        )
        run.sim = payload["sim"]
        # The kernel choice is an execution detail, not simulation state:
        # re-resolve it for the resuming process (REPRO_NAIVE_KERNEL)
        # rather than pinning whatever the snapshotting process used.
        # Safe either way — both kernels keep the channel due lists exact,
        # the router/NI registries in the snapshot are always a superset
        # of the live entities, and both kernels are bit-identical.
        run.sim.network.kernel = resolve_kernel(None)
        run.source = payload["source"]
        run.segments = _plan_segments(run.config, run.sim.policy.trainable)
        run.segment_index = payload["segment_index"]
        run.segment_offset = payload["segment_offset"]
        run.measure_origin = payload["measure_origin"]
        run.measure_start = payload["measure_start"]
        run.result = payload["result"]
        run.checkpoints_written = 0
        # Restore the packet-id counter so ids issued after the resume
        # pick up exactly where the interrupted process left off — both
        # for bit-identity with the uninterrupted run and to keep new
        # pids disjoint from the pickled in-flight packets'.
        run.sim.restore_packet_counter(payload.get("next_pid"))
        # Route the learned state through validation: a poisoned table
        # degrades its router to safe mode rather than resuming garbage.
        run.sim.policy.load_state(payload.get("policy_state"))
        if getattr(run.sim.policy, "safe_mode_routers", None):
            logger.warning(
                "resume degraded %d router(s) to safe mode",
                len(run.sim.policy.safe_mode_routers),
            )
        # The trace buffer (if any) travelled inside the pickled sim; the
        # restore marker is the only event a resumed stream has that the
        # uninterrupted one lacks, and the canonical digest excludes it.
        tracer = getattr(run.sim, "tracer", None)
        if tracer is not None:
            tracer.emit(
                run.sim.network.now,
                "checkpoint",
                "restore",
                segment=run.segment_index,
                offset=run.segment_offset,
            )
        return run

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _checkpoint_cb(self, base_offset: int):
        if self.checkpoint_path is None or not self.checkpoint_every:
            return None, 0

        def callback(done: int) -> None:
            self.segment_offset = base_offset + done
            self.save()

        return callback, self.checkpoint_every

    def _build_source(self, spec: Tuple[str, float, int]) -> SyntheticTraffic:
        pattern, rate, seed_offset = spec
        return SyntheticTraffic(
            self.sim.network.topology,
            pattern=pattern,
            injection_rate=rate,
            packet_size=self.config.packet_size,
            flit_bits=self.config.flit_bits,
            rng=random.Random(self.seed + seed_offset),
        )

    def run(self) -> RunResult:
        """Execute (or continue) the plan to completion."""
        while self.result is None and self.segment_index < len(self.segments):
            segment = self.segments[self.segment_index]
            handler = getattr(self, f"_run_{segment.phase}")
            handler(segment)
            self.segment_index += 1
            self.segment_offset = 0
            if self.checkpoint_path is not None:
                self.save()
        if self.result is None:  # pragma: no cover - plan always measures
            raise RuntimeError("run plan finished without a measurement")
        return self.result

    def _run_pretrain(self, segment: _Segment) -> None:
        sim = self.sim
        if segment.new_source is not None and self.segment_offset == 0:
            self.source = self._build_source(segment.new_source)
        sim.forced_mode = (
            OperationMode(segment.forced_mode)
            if segment.forced_mode is not None
            else None
        )
        remaining = segment.cycles - self.segment_offset
        callback, every = self._checkpoint_cb(self.segment_offset)
        if remaining > 0:
            sim.run(
                self.source, remaining, learn=True,
                checkpoint_every=every, on_checkpoint=callback,
            )
        sim.forced_mode = None

    def _run_drain(self, segment: _Segment) -> None:
        sim = self.sim
        callback, every = self._checkpoint_cb(self.segment_offset)
        done = 0
        while not sim.network.quiescent:
            sim._cycle()
            if sim.network.now % self.config.epoch_cycles == 0:
                sim._epoch_boundary(learn=True)
            done += 1
            if every and callback is not None and done % every == 0:
                callback(done)

    def _run_freeze(self, segment: _Segment) -> None:
        self.sim.policy.freeze()

    def _run_warmup(self, segment: _Segment) -> None:
        sim = self.sim
        if segment.new_source is not None and self.segment_offset == 0:
            self.source = self._build_source(segment.new_source)
        remaining = segment.cycles - self.segment_offset
        callback, every = self._checkpoint_cb(self.segment_offset)
        if remaining > 0:
            sim.run(
                self.source, remaining, learn=True,
                checkpoint_every=every, on_checkpoint=callback,
            )

    def _run_measure(self, segment: _Segment) -> None:
        sim = self.sim
        if self.segment_offset == 0:
            records = synthesize_benchmark_trace(
                self.benchmark, self.config, self.trace_cycles, self.seed
            )
            self.source = sim.make_replayer(records)
            sim.begin_measurement()
            self.measure_origin = sim.network.now
            self.measure_start = sim.network.now
        replayer = self.source
        callback, every = self._checkpoint_cb(self.segment_offset)
        sim.run_until_drained(
            replayer,
            lambda: replayer.exhausted,
            learn=True,
            time_origin=self.measure_origin,
            checkpoint_every=every,
            on_checkpoint=callback,
        )
        execution = sim.network.now - self.measure_start
        self.result = sim.finish_measurement(self.benchmark, execution)
        self.source = None
