"""Experiment building blocks: the four compared designs of Section VI.

The paper compares static CRC, static ARQ+ECC, the decision-tree
baseline and the proposed RL policy in one way: each learning design
pre-trains once on synthetic traffic (:func:`pretrain_policy`), then
every design warms up and replays the same benchmark trace
(:func:`run_design_on_trace`), and every metric is normalized to the
CRC baseline (:func:`normalize_to_baseline`, :func:`geometric_mean`),
exactly as Figs 6-10 do.  :func:`repro.sim.campaign.run_campaign` runs
that protocol over a benchmarks x designs grid; it is the only code
that compares designs on a benchmark trace.
"""

from __future__ import annotations

import logging
import math
import random
import zlib
from typing import Callable, Dict, Iterable, List

from repro.baselines.decision_tree import DecisionTreePolicy
from repro.baselines.static import arq_ecc_policy, crc_policy
from repro.core.controller import ControlPolicy
from repro.core.rl_policy import RLControlPolicy
from repro.noc.topology import MeshTopology
from repro.sim.config import SimulationConfig
from repro.sim.metrics import RunResult
from repro.sim.simulator import Simulator
from repro.traffic.parsec import PARSEC_PROFILES, ParsecTraceSynthesizer
from repro.traffic.trace import TraceRecord

__all__ = [
    "DESIGN_ORDER",
    "default_design_factories",
    "run_design_on_trace",
    "pretrain_policy",
    "clone_policy",
    "benchmark_trace_seed",
    "normalize_to_baseline",
    "geometric_mean",
]

logger = logging.getLogger("repro.sim.experiment")

#: Plot order used by every figure in the paper.
DESIGN_ORDER = ("crc", "arq_ecc", "dt", "rl")


def default_design_factories(seed: int = 0) -> Dict[str, Callable[[], ControlPolicy]]:
    """Fresh-policy factories for the four compared designs.

    The RL design shares one Q-table across routers, the scaled-run
    accelerator (see :class:`repro.core.rl_policy.RLControlPolicy`).
    """
    return {
        "crc": crc_policy,
        "arq_ecc": arq_ecc_policy,
        "dt": DecisionTreePolicy,
        "rl": lambda: RLControlPolicy(share_table=True, seed=seed),
    }


def run_design_on_trace(
    policy: ControlPolicy,
    records: List[TraceRecord],
    config: SimulationConfig,
    benchmark: str = "trace",
    seed: int = 0,
) -> RunResult:
    """Warm up, then measure one design on one trace.

    ``policy`` is stateless or already pre-trained and frozen
    (:func:`pretrain_policy`, or a :func:`clone_policy` of such a
    snapshot); a campaign cell is this call on a policy cloned from its
    design's artifact.
    """
    sim = Simulator(config, policy, seed=seed)
    sim.warmup()
    return sim.measure_trace(records, benchmark)


def pretrain_policy(policy: ControlPolicy, config: SimulationConfig, seed: int = 0) -> None:
    """Run the synthetic pre-training phase once on a throwaway platform."""
    if policy.trainable:
        sim = Simulator(config, policy, seed=seed)
        sim.pretrain()
    policy.freeze()


def clone_policy(
    factory: Callable[[], ControlPolicy], state: Dict[str, object]
) -> ControlPolicy:
    """Fresh policy restored to a ``to_state`` snapshot.

    Learning policies serialize their full model plus RNG state, so a
    clone behaves bit-identically to the snapshotted original; stateless
    policies round-trip trivially (their snapshot is just the name).
    Raises ``ValueError`` when ``load_state`` rejects any router's table.
    """
    policy = factory()
    rejected = policy.load_state(state)
    if rejected:
        first = min(rejected)
        raise ValueError(f"router {first} (of {len(rejected)} rejected): {rejected[first]}")
    return policy


def benchmark_trace_seed(benchmark: str, seed: int = 0) -> int:
    """Trace-RNG seed for one benchmark, stable across processes.

    zlib.crc32, not hash(): str hashing is salted per interpreter
    (PYTHONHASHSEED), which would give every process — and every sweep
    worker — a different trace for the same (benchmark, seed).  The full
    32-bit CRC is mixed in; folding it (an earlier ``% 1000``) would let
    distinct benchmark names collide onto identical traces.
    """
    return seed + zlib.crc32(benchmark.encode("utf-8"))


def synthesize_benchmark_trace(
    benchmark: str,
    config: SimulationConfig,
    cycles: int,
    seed: int = 0,
) -> List[TraceRecord]:
    """PARSEC-like trace for one benchmark on the configured mesh."""
    profile = PARSEC_PROFILES[benchmark]
    topology = MeshTopology(config.width, config.height)
    rng = random.Random(benchmark_trace_seed(benchmark, seed))
    synthesizer = ParsecTraceSynthesizer(profile, topology, rng)
    return synthesizer.synthesize(cycles)


#: the design every figure is normalized to (Figs 6-10)
BASELINE = "crc"


def normalize_to_baseline(
    results: Dict[str, RunResult], metric: Callable[[RunResult], float]
) -> Dict[str, float]:
    """Per-design metric values divided by :data:`BASELINE`'s (Figs 6-10).

    A zero or non-finite baseline reference cannot anchor a ratio: every
    design then reports NaN.  (Reporting 0.0 — as an earlier version did
    — is indistinguishable from "every design measured zero", which
    silently poisoned downstream geomeans.)
    """
    reference = metric(results[BASELINE])
    if reference == 0 or not math.isfinite(reference):
        logger.warning(
            "baseline %r reference is %r; normalized metrics are undefined (NaN)",
            BASELINE, reference,
        )
        return {name: float("nan") for name in results}
    return {name: metric(result) / reference for name, result in results.items()}


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean over the positive, finite entries of ``values``.

    Non-positive and non-finite entries cannot enter a geometric mean;
    they are skipped with a counted warning instead of zeroing the whole
    figure (one degenerate cell used to silently report 0.0 for the
    entire suite).  Returns NaN when nothing survives.
    """
    values = [v for v in values]
    survivors = [v for v in values if v > 0 and math.isfinite(v)]
    skipped = len(values) - len(survivors)
    if skipped:
        logger.warning(
            "geometric_mean skipped %d non-positive/non-finite value(s) of %d",
            skipped, len(values),
        )
    if not survivors:
        return float("nan")
    product = 1.0
    for v in survivors:
        product *= v
    return product ** (1.0 / len(survivors))
