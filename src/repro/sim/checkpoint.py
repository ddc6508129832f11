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
  in-flight flits, RNG states, Q-tables, thermal state, the active
  traffic source and the measurement's start cycle) plus the run-plan
  cursor.  Because serialization never mutates state and restores it
  exactly, a run that is killed and resumed produces the same final
  metrics, bit for bit, as one that was never interrupted — the
  determinism contract the integration tests pin down.

* **Validated Q-state** — on resume the unpickled policy's learned
  state is re-loaded through ``ControlPolicy.to_state`` and
  ``load_state``, which routes every Q-table through
  :meth:`QLearningAgent.from_state` validation.  A table with NaN/inf
  entries or a wrong action count, or a router the snapshot has no
  table for, does not crash the resume: ``load_state`` reports the
  affected routers, and ``Simulator.restore_policy`` degrades each to
  safe mode (mode 3, timing relaxation) in the simulator's ledger,
  which logs it.

The same container holds campaign policy artifacts and sweep cache
entries, each stamped with its own version; :func:`content_key` is the
one content hash their file names and cache keys use.

``ResumableRun`` is a cursor over ``Simulator.plan()``: it runs every
segment through ``Simulator.run_segment``, the same code the classic
``pretrain -> freeze -> warmup -> measure_trace`` calls execute, so a
run with no checkpointing is byte-equivalent to that pipeline.  A
segment resumed mid-way continues from its cycle count, which is also
where its ``MAX_DRAIN_CYCLES`` budget counts from.  ``repro run``
executes every run, with or without ``--checkpoint``, through
``ResumableRun``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import uuid
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.noc.network import resolve_kernel
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    default_design_factories,
    synthesize_benchmark_trace,
)
from repro.sim.metrics import RunResult
from repro.sim.simulator import Simulator

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "ARTIFACT_VERSION",
    "CheckpointError",
    "content_key",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "save_policy_artifact",
    "load_policy_artifact",
    "read_policy_artifact_meta",
    "ResumableRun",
]


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
#: Version 6: the simulator owns the run schedule — it carries the
#: current traffic source and the measurement's start cycle, which the
#: payload no longer stores beside it, so a version-5 body would resume
#: without its traffic source.
#: Version 7: one degradation ledger (``Simulator.degraded``, router ->
#: reason) replaces the simulator's safe-router, ECC-escalation and
#: trip-log attributes, and the RL policy's pins became a dict — a
#: version-6 body has no ledger for the select stage to read.
#: Version 8: ``LatencyAccumulator`` keeps only its count and total, so
#: a version-7 body's minimum, maximum and histogram slots have nowhere
#: to go (routers, topologies and trace replayers also dropped their
#: ``arq_capacity``, ``torus`` and ``stretch`` attributes).
#: Version 9: the network no longer stores a ``routing_policy`` wrapper
#: beside its routers' routing functions.
#: Version 10: routers keep stage wake state (``_sa_wake``, ``_va_due``,
#: ``local_pops``, ``_send_mode``) and map active VCs to their output
#: links, output links count in-flight ARQ entries per VC, NIs remember
#: refused injections, VCs dropped ``sent`` and ARQ windows keep a plain
#: ``entries`` dict without counters — a version-9 body lacks them.
#: Version 11: routers book mode residency (``mode_since``,
#: ``mode_cycles``), and the ``yx``/``o1turn`` routings are gone.
#: Version 12: message ids come from the network's creation count, so
#: packets lost their per-attempt id, the payload its copy of the
#: process-wide id counter and the simulator its own id counter; channel
#: error models keep the substrate's probability and a burst floor,
#: hard-fault models lost their restore map, and Q-table storages and
#: TMR mode banks lost their test-only tallies.
#: Version 13: flits keep only packet, payload, error mask and head/tail
#: flags, packets lost ``injected_at`` and ``payloads``, the fault
#: injector its ``current`` copy, the sensor and soft-error models their
#: ``injected`` tallies and router counts, hard-fault models their
#: schedule and fault states their version — a version-12 body carries
#: slots this build's classes no longer have.
#: Version 14: only the simulator's ledger records degraded routers (the
#: RL policy and its snapshot lost their pins) and no policy learns or
#: selects for one, so a version-13 DT pre-training would resume wrongly.
#: Version 15: the ledger maps a router to ``(cause, reason)`` instead of
#: a reason string, and the observation guard lost its quarantine set.
#: Version 16: the payload no longer carries ``config``, ``seed`` and
#: ``policy_state`` beside the pickled simulator that holds them; resume
#: validates the simulator's own policy state.
CHECKPOINT_VERSION = 16

#: Pretrained-policy campaign artifacts share the container format but
#: version independently: an artifact body is a ``ControlPolicy.to_state``
#: snapshot, not a pickled Simulator graph, so simulator reshapes that
#: bump CHECKPOINT_VERSION do not invalidate artifacts (and vice versa).
#: Version 1: {"state": <policy.to_state()>} bodies.
ARTIFACT_VERSION = 1

_HEADER_LEN = struct.Struct("<I")


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, corrupt, or incompatible."""


def content_key(fingerprint: Dict[str, object]) -> str:
    """sha256 of ``fingerprint``'s canonical JSON form, 24 hex digits."""
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


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
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
        raise CheckpointError(f"{path} has a corrupt header: not a JSON object")
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
class ResumableRun:
    """One checkpointable (design, benchmark) measurement run.

    Walks ``Simulator.plan()`` with a segment cursor, snapshotting the
    whole simulation every ``checkpoint_every`` cycles (and at every
    segment boundary) when a ``checkpoint_path`` is set.
    :meth:`resume` restores a snapshot and continues to the same final
    :class:`RunResult` an uninterrupted run produces.
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
        if trace_cycles < 1:
            raise ValueError("trace_cycles must be positive")
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
        self.segments = self.sim.plan()
        self.segment_index = 0
        self.segment_offset = 0
        self.result: Optional[RunResult] = None

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
            "design": self.design,
            "benchmark": self.benchmark,
            "trace_cycles": self.trace_cycles,
            "sim": self.sim,
            "segment_index": self.segment_index,
            "segment_offset": self.segment_offset,
            "result": self.result,
        }
        return save_checkpoint(target, payload, self._meta())

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

        The policy's learned state is re-validated on the way in: the
        simulator degrades every router whose Q-table ``load_state``
        rejected instead of aborting the resume.
        """
        if checkpoint_every is not None and checkpoint_every < 0:
            raise ValueError("checkpoint_every cannot be negative")
        payload, meta = load_checkpoint(path)
        if not isinstance(payload, dict) or "sim" not in payload:
            raise CheckpointError(f"{path} is not a run checkpoint")
        run = cls.__new__(cls)
        run.sim = payload["sim"]
        run.config = run.sim.config
        run.seed = run.sim.seed
        run.design = payload["design"]
        run.benchmark = payload["benchmark"]
        run.trace_cycles = payload["trace_cycles"]
        run.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else Path(path)
        )
        run.checkpoint_every = (
            checkpoint_every
            if checkpoint_every is not None
            else int(meta.get("checkpoint_every", 0) or 0)
        )
        # The kernel choice is an execution detail, not simulation state:
        # re-resolve it for the resuming process (REPRO_NAIVE_KERNEL)
        # rather than pinning whatever the snapshotting process used.
        # Safe either way — both kernels keep the channel due lists exact,
        # the router/NI registries in the snapshot are always a superset
        # of the live entities, and both kernels are bit-identical.
        run.sim.network.kernel = resolve_kernel()
        run.segments = run.sim.plan()
        run.segment_index = payload["segment_index"]
        run.segment_offset = payload["segment_offset"]
        run.result = payload["result"]
        # Route the learned state through validation: a poisoned table
        # degrades its router to safe mode rather than resuming garbage.
        run.sim.restore_policy(run.sim.policy.to_state())
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
    def run(self) -> RunResult:
        """Execute (or continue) the plan to completion."""
        sim = self.sim
        every = self.checkpoint_every if self.checkpoint_path is not None else 0
        while self.result is None:
            segment = self.segments[self.segment_index]
            measure = segment.phase == "measure"
            if measure and not self.segment_offset:
                sim.source = sim.make_replayer(
                    synthesize_benchmark_trace(
                        self.benchmark, self.config, self.trace_cycles, self.seed
                    )
                )
            sim.run_segment(segment, self.segment_offset, every, self._snapshot)
            if measure:
                self.result = sim.finish_measurement(self.benchmark)
            self.segment_index += 1
            self.segment_offset = 0
            if self.checkpoint_path is not None:
                self.save()
        return self.result

    def _snapshot(self, done: int) -> None:
        self.segment_offset = done
        self.save()
