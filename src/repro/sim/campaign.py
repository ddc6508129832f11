"""Paper-figure campaign runner: pretrain once, evaluate everywhere.

The headline claims of the paper (Figs 6-10) are a benchmarks x designs
grid.  Running that grid naively has two failure modes this module
removes:

* **Repaid pre-training** — every invocation used to re-run the
  synthetic pre-training phase for every trainable design, even though
  the phase is a pure function of (config, design, seed).  A campaign
  pretrains each combination exactly once and persists the frozen
  policy as a versioned, CRC-guarded artifact (the PR-3 checkpoint
  container, ``ARTIFACT_VERSION`` body); later invocations — and every
  grid cell — reuse it.

* **Cross-benchmark state leakage** — chaining one live policy object
  across benchmarks leaked what benchmark N learned into benchmark N+1,
  making measured numbers depend on iteration order.  Each campaign
  cell clones a fresh policy from the pretrained artifact, so online
  adaptation stays cell-local and per-cell results are bit-identical
  across benchmark orderings and ``--jobs`` settings.

Cells execute through the :class:`~repro.sim.sweep.SweepRunner`
supervision machinery (timeouts, retries, quarantine, incremental cache
flushing), so a campaign is resumable: killed mid-flight, a rerun
replays finished cells from the result cache and reuses the artifacts.
``repro.sim.report`` turns the merged grid into the normalized Figs
6-10 tables.  :func:`run_campaign` is the only code that compares
designs on a benchmark trace: the ``repro campaign`` and ``repro
compare`` CLI commands, the ``benchmarks/`` figure and scaling benches
and the paper-shape tests all call it.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.checkpoint import (
    ARTIFACT_VERSION,
    CheckpointError,
    content_key,
    read_policy_artifact_meta,
    save_policy_artifact,
)
from repro.sim.config import SimulationConfig
from repro.sim.experiment import (
    DESIGN_ORDER,
    default_design_factories,
    pretrain_policy,
)
from repro.sim.metrics import RunResult
from repro.sim.sweep import (
    DEFAULT_CACHE_DIR,
    PointResult,
    SweepPoint,
    SweepReport,
    SweepRunner,
)
from repro.traffic.parsec import PARSEC_PROFILES

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "CampaignSpec",
    "CampaignResult",
    "artifact_key",
    "artifact_file",
    "ensure_artifact",
    "build_artifacts",
    "run_campaign",
    "merge_campaign",
]

logger = logging.getLogger("repro.sim.campaign")

#: Artifacts live beside the point cache by default, so one
#: ``--cache-dir``-style override relocates the whole campaign state.
DEFAULT_ARTIFACT_DIR = str(Path(DEFAULT_CACHE_DIR) / "artifacts")


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
def artifact_key(config: SimulationConfig, design: str, seed: int) -> str:
    """Content hash of everything a pretrained artifact depends on.

    The *full* config is hashed, not just the pre-training knobs: an
    artifact must never be served for a platform it was not trained on,
    and config fields are cheap to hash compared to diagnosing a
    silently mismatched mesh.
    """
    return content_key({
        "artifact_version": ARTIFACT_VERSION,
        "config": dataclasses.asdict(config),
        "design": design,
        "seed": seed,
    })


def artifact_file(
    artifact_dir: Union[str, Path], design: str, seed: int, key: str
) -> Path:
    """Canonical artifact location; the key in the name makes a stale
    file for the same (design, seed) a cache miss, not a wrong hit."""
    return Path(artifact_dir) / f"{design}-s{seed}-{key}.ckpt"


def ensure_artifact(
    config: SimulationConfig,
    design: str,
    seed: int,
    artifact_dir: Union[str, Path] = DEFAULT_ARTIFACT_DIR,
    refresh: bool = False,
    tracer=None,
) -> Tuple[Path, str, bool]:
    """Build — or reuse — the pretrained artifact for one design.

    Returns ``(path, key, built)``.  An existing artifact is reused only
    when its container validates (magic, version, body CRC) AND its
    stored content key matches the requested one; anything suspect is
    rebuilt in place.  ``built=False`` is the warm-cache fast path that
    lets a campaign skip the entire pre-training phase.
    """
    key = artifact_key(config, design, seed)
    path = artifact_file(artifact_dir, design, seed, key)
    if not refresh:
        try:
            meta = read_policy_artifact_meta(path)
        except CheckpointError:
            pass  # missing, torn, or foreign-version artifact: rebuild
        else:
            if meta.get("key") == key:
                logger.info("reusing pretrained artifact %s", path)
                if tracer is not None:
                    tracer.emit(
                        0, "campaign", "artifact_reuse",
                        design=design, seed=seed, key=key,
                    )
                return path, key, False
    policy = default_design_factories(seed)[design]()
    started = time.perf_counter()
    pretrain_policy(policy, config, seed=seed)
    elapsed = time.perf_counter() - started
    save_policy_artifact(
        path,
        policy.to_state(),
        meta={
            "key": key,
            "design": design,
            "seed": seed,
            "policy": policy.name,
            "pretrain_cycles": config.pretrain_cycles,
            "pretrain_seconds": elapsed,
            "config": dataclasses.asdict(config),
        },
    )
    logger.info(
        "pretrained %s (seed %d) in %.1fs -> %s", design, seed, elapsed, path
    )
    if tracer is not None:
        tracer.emit(
            0, "campaign", "artifact_build", design=design, seed=seed, key=key,
        )
    return path, key, True


# ----------------------------------------------------------------------
# Campaign specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """Declarative benchmarks x designs paper-figure grid."""

    config: SimulationConfig
    benchmarks: Tuple[str, ...] = tuple(sorted(PARSEC_PROFILES))
    designs: Tuple[str, ...] = DESIGN_ORDER
    seed: int = 0
    trace_cycles: int = 3_000

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("benchmarks cannot be empty")
        if not self.designs:
            raise ValueError("designs cannot be empty")
        for benchmark in self.benchmarks:
            if benchmark not in PARSEC_PROFILES:
                raise ValueError(
                    f"unknown benchmark {benchmark!r}; pick from "
                    f"{', '.join(sorted(PARSEC_PROFILES))}"
                )
        for design in self.designs:
            if design not in DESIGN_ORDER:
                raise ValueError(
                    f"unknown design {design!r}; pick one of {', '.join(DESIGN_ORDER)}"
                )
        if self.trace_cycles < 1:
            raise ValueError("trace_cycles must be positive")


def build_artifacts(
    spec: CampaignSpec,
    artifact_dir: Union[str, Path] = DEFAULT_ARTIFACT_DIR,
    refresh: bool = False,
    tracer=None,
) -> Dict[str, Tuple[Path, str, bool]]:
    """Phase 1: one pretrained artifact per *trainable* design.

    Stateless designs (crc, arq_ecc) have nothing to pre-train and get
    no artifact; their cells run directly from a fresh policy.
    """
    artifacts: Dict[str, Tuple[Path, str, bool]] = {}
    factories = default_design_factories(spec.seed)
    for design in spec.designs:
        if not factories[design]().trainable:
            continue
        artifacts[design] = ensure_artifact(
            spec.config, design, spec.seed, artifact_dir,
            refresh=refresh, tracer=tracer,
        )
    return artifacts


def campaign_points(
    spec: CampaignSpec, artifacts: Dict[str, Tuple[Path, str, bool]]
) -> Tuple[SweepPoint, ...]:
    """The grid's cells in deterministic order (benchmark outer, design
    inner — the same nesting convention ``SweepSpec.expand`` uses)."""
    points: List[SweepPoint] = []
    for benchmark in spec.benchmarks:
        for design in spec.designs:
            path, key, _built = artifacts.get(design, (None, "", False))
            points.append(
                SweepPoint(
                    kind="campaign",
                    design=design,
                    traffic=benchmark,
                    seed=spec.seed,
                    cycles=spec.trace_cycles,
                    artifact_hash=key,
                    artifact_path=str(path) if path is not None else "",
                )
            )
    return tuple(points)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything one campaign invocation produced."""

    spec: CampaignSpec
    #: {benchmark: {design: RunResult}}, the shape ``campaign_report`` reads
    suite: Dict[str, Dict[str, RunResult]]
    #: {design: {"path", "key", "built"}} for the trainable designs
    artifacts: Dict[str, Dict[str, object]]
    #: raw per-cell results in grid order (None = quarantined)
    results: List[Optional[PointResult]]
    report: SweepReport
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.report.succeeded

    def counters(self) -> Dict[str, float]:
        """Flat campaign counters (``campaign.*`` gauges when ingested
        into a :class:`repro.obs.MetricRegistry`)."""
        built = sum(1 for a in self.artifacts.values() if a["built"])
        return {
            "artifacts_built": built,
            "artifacts_reused": len(self.artifacts) - built,
            "cells_total": self.report.total,
            "cells_executed": self.report.executed,
            "cells_cached": self.report.from_cache,
            "cells_quarantined": len(self.report.quarantined),
            "elapsed_seconds": self.elapsed_seconds,
        }


def merge_campaign(
    results: Sequence[Optional[PointResult]],
) -> Dict[str, Dict[str, RunResult]]:
    """Merge campaign cells into the {benchmark: {design: RunResult}}
    grid (quarantined cells skipped)."""
    suite: Dict[str, Dict[str, RunResult]] = {}
    for result in results:
        if result is None or result.run is None:
            continue
        suite.setdefault(result.point.traffic, {})[result.point.design] = result.run
    return suite


# ----------------------------------------------------------------------
# The campaign itself
# ----------------------------------------------------------------------
def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    artifact_dir: Optional[Union[str, Path]] = None,
    cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    refresh: bool = False,
    refresh_artifacts: bool = False,
    progress: Optional[Callable[[SweepReport], None]] = None,
    point_timeout: Optional[float] = None,
    max_retries: int = 2,
    registry=None,
    tracer=None,
) -> CampaignResult:
    """Run the full paper-figure grid; returns a :class:`CampaignResult`.

    Phase 1 pretrains (or reuses) one frozen artifact per trainable
    design; phase 2 fans the benchmarks x designs cells out through
    :class:`SweepRunner` supervision, each cell cloning its policy from
    the artifact.  Per-cell results are a pure function of
    (config, cell, artifact content), so they are bit-identical across
    benchmark orderings and ``jobs`` settings, and replay from the point
    cache on reruns.  ``artifact_dir`` defaults to
    ``<cache_dir>/artifacts``, so one ``cache_dir`` relocates the whole
    campaign state.  ``registry`` absorbs the runner's ``sweep.*`` and
    then the ``campaign.*`` counters as gauges; ``tracer`` receives
    artifact build/reuse events (campaign category).
    """
    started = time.monotonic()
    if artifact_dir is None:
        artifact_dir = Path(cache_dir) / "artifacts"
    artifacts = build_artifacts(
        spec, artifact_dir, refresh=refresh_artifacts, tracer=tracer
    )
    runner = SweepRunner(
        spec.config,
        campaign_points(spec, artifacts),
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        refresh=refresh,
        progress=progress,
        point_timeout=point_timeout,
        max_retries=max_retries,
    )
    results = runner.run()
    result = CampaignResult(
        spec=spec,
        suite=merge_campaign(results),
        artifacts={
            design: {"path": str(path), "key": key, "built": built}
            for design, (path, key, built) in artifacts.items()
        },
        results=results,
        report=runner.report,
        elapsed_seconds=time.monotonic() - started,
    )
    counters = result.counters()
    if registry is not None:
        registry.ingest("sweep", runner.report.as_dict())
        registry.ingest("campaign", counters)
    if tracer is not None:
        tracer.emit(
            0, "campaign", "complete",
            cells=int(counters["cells_total"]),
            executed=int(counters["cells_executed"]),
            cached=int(counters["cells_cached"]),
            quarantined=int(counters["cells_quarantined"]),
        )
    return result
