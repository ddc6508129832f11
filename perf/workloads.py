"""The benchmark's workloads, driven through the public ``repro`` API only.

Each workload is a batch job: one process builds its inputs from a seed,
simulates to completion and produces a result whose sha256 digest pins
correctness.  Inside the job, traffic is open-loop trace replay at the
benchmark profile's rate.  Sizes are scaled so that one job takes a few
seconds, which lets a timed run repeat it and report medians.

``run_workload`` imports ``repro`` lazily, so the caller can time the
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, Union


@dataclass(frozen=True)
class ClosedLoop:
    """One RL-controlled closed-loop run: pretrain, warm up, replay a trace."""

    width: int
    height: int
    benchmark: str
    epoch: int
    pretrain: int
    warmup: int
    trace: int
    injection: float = 0.015
    fault_spec: str = ""
    sensor_spec: str = ""
    hysteresis: int = 0
    soft_error_spec: str = ""

    #: operations one job attempts: the run itself
    operations = 1


@dataclass(frozen=True)
class FigureGrid:
    """The Figs 6-10 campaign: cold run and report, then a warm rerun."""

    benchmarks: Tuple[str, ...]
    designs: Tuple[str, ...]
    width: int
    height: int
    epoch: int
    pretrain: int
    warmup: int
    trace: int

    @property
    def operations(self) -> int:
        """Operations one job attempts: every campaign cell."""
        return len(self.benchmarks) * len(self.designs)


Workload = Union[ClosedLoop, FigureGrid]

WORKLOADS: Dict[str, Workload] = {
    # Table II 8x8 mesh on the heaviest PARSEC profile: the mesh runs past
    # saturation, so the router pipeline does nearly all the work.
    "busy_8x8": ClosedLoop(
        width=8, height=8, benchmark="canneal",
        epoch=250, pretrain=1_500, warmup=250, trace=1_500,
    ),
    # Lightest profile on an almost idle 4x4 mesh with 50-cycle epochs and
    # all three fault families on: the epoch boundary (power, thermal,
    # observe, guard, learn, SEU, scrub) takes about half the time.  The
    # link dies in the middle of the measured trace.
    "control_4x4": ClosedLoop(
        width=4, height=4, benchmark="blackscholes",
        epoch=50, pretrain=30_000, warmup=2_000, trace=6_000, injection=0.005,
        fault_spec="link@35000:5E",
        sensor_spec="drop@0.2:util;stuck@r5.temp=0.9;noise@0.05:nack;stale@r2+1500:4",
        hysteresis=2,
        soft_error_spec="qtable@2e-5;mode@r3+2000;burst@3000:4",
    ),
    # The job users run to regenerate the figures; the only workload that
    # exercises the campaign, sweep, artifact, cache and CART layers.
    "figure_grid": FigureGrid(
        benchmarks=("blackscholes", "canneal", "x264"),
        designs=("crc", "arq_ecc", "dt", "rl"),
        width=4, height=4, epoch=250, pretrain=8_000, warmup=500, trace=1_000,
    ),
}

#: Counter prefixes folded into a closed-loop digest: fault and defence
#: tallies, never timings or kernel activity counters.
DIGEST_COUNTERS = ("sensor.", "softerror.", "ecc.")


def digest(payload: object) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_workload(
    spec: Workload,
    seed: int,
    work_dir: Optional[Path] = None,
    started: Optional[float] = None,
    mark: Callable[[str], None] = lambda window: None,
) -> Dict[str, object]:
    """Run one job; returns its timings, simulated work and digest.

    ``started`` is the ``time.perf_counter()`` reading set-up time is
    measured from (default: now).  ``mark("run")`` is called between
    set-up and the first simulated cycle, ``mark("after")`` when the
    timed run ends.  A figure grid keeps its artifacts and caches in a
    fresh temporary directory under ``work_dir``, removed afterwards.
    """
    started = time.perf_counter() if started is None else started
    if isinstance(spec, ClosedLoop):
        return _closed_loop(spec, seed, started, mark)
    with tempfile.TemporaryDirectory(dir=work_dir) as root:
        return _figure_grid(spec, seed, Path(root), started, mark)


class SimulatedWork:
    """Cycles and kernel activity advanced inside ``Simulator`` phases.

    Wraps the three phase methods, which together advance every cycle a
    run or campaign simulates; three calls per simulator, so the cost is
    nil even in untraced runs.
    """

    PHASES = ("pretrain", "warmup", "measure_trace")

    def __init__(self) -> None:
        self.cycles = 0
        self.node_cycles = 0
        self.activity: Counter = Counter()

    @contextlib.contextmanager
    def counting(self) -> Iterator["SimulatedWork"]:
        from repro.sim.simulator import Simulator

        originals = {name: vars(Simulator)[name] for name in self.PHASES}
        for name, fn in originals.items():
            setattr(Simulator, name, self._counted(fn))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(Simulator, name, fn)

    def _counted(self, fn):
        def phase(sim, *args, **kwargs):
            network = sim.network
            now = network.now
            activity = network.activity.counters()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                self.cycles += network.now - now
                self.node_cycles += (network.now - now) * len(network.routers)
                self.activity.update(network.activity.counters())
                self.activity.subtract(activity)

        return phase

    def as_dict(self) -> Dict[str, object]:
        return {
            "sim_cycles": self.cycles,
            "node_cycles": self.node_cycles,
            "activity": dict(self.activity),
        }


def _closed_loop(spec: ClosedLoop, seed, started, mark) -> Dict[str, object]:
    from repro.sim import (
        Simulator,
        default_design_factories,
        scaled_config,
        synthesize_benchmark_trace,
    )

    config = scaled_config(
        width=spec.width,
        height=spec.height,
        epoch_cycles=spec.epoch,
        pretrain_cycles=spec.pretrain,
        warmup_cycles=spec.warmup,
        pretrain_injection_rate=spec.injection,
        fault_spec=spec.fault_spec,
        sensor_spec=spec.sensor_spec,
        mode_hysteresis_epochs=spec.hysteresis,
        soft_error_spec=spec.soft_error_spec,
    )
    policy = default_design_factories(seed)["rl"]()
    sim = Simulator(config, policy, seed=seed)
    records = synthesize_benchmark_trace(spec.benchmark, config, spec.trace, seed)
    with SimulatedWork().counting() as work:
        mark("run")
        run_start = time.perf_counter()
        sim.pretrain()
        policy.freeze()
        sim.warmup()
        result = sim.measure_trace(records, spec.benchmark)
        run_end = time.perf_counter()
        mark("after")

    counters = sim.metrics.snapshot()["counters"]
    return {
        "setup_s": run_start - started,
        "run_s": run_end - run_start,
        "failed_operations": 0,
        **work.as_dict(),
        "digest": digest({
            "result": result.as_dict(),
            "final_cycle": sim.network.now,
            "counters": {
                name: value for name, value in counters.items()
                if name.startswith(DIGEST_COUNTERS)
            },
        }),
    }


def _figure_grid(spec: FigureGrid, seed, root: Path, started, mark):
    from repro.sim import CampaignSpec, report, run_campaign, scaled_config

    config = scaled_config(
        width=spec.width,
        height=spec.height,
        epoch_cycles=spec.epoch,
        pretrain_cycles=spec.pretrain,
        warmup_cycles=spec.warmup,
    )
    campaign = CampaignSpec(
        config=config,
        benchmarks=spec.benchmarks,
        designs=spec.designs,
        seed=seed,
        trace_cycles=spec.trace,
    )
    dirs = {"artifact_dir": root / "artifacts", "cache_dir": root / "cache"}
    designs = list(spec.designs)

    with SimulatedWork().counting() as work:
        mark("run")
        run_start = time.perf_counter()
        cold = run_campaign(campaign, jobs=1, **dirs)
        table = report.campaign_report(cold.suite, designs=designs)
        report.render_report_markdown(table)
        run_end = time.perf_counter()
        mark("after")
        warm = run_campaign(campaign, jobs=1, **dirs)
        warm_table = report.campaign_report(warm.suite, designs=designs)
        warm_end = time.perf_counter()

    cells = cold.counters()
    # The warm rerun must replay every cell from the cache and reproduce
    # the cold report; anything else fails the whole grid.
    warm_ok = warm_table == table and warm.counters()["cells_cached"] == cells["cells_total"]
    return {
        "setup_s": run_start - started,
        "run_s": run_end - run_start,
        "warm_rerun_s": warm_end - run_end,
        "failed_operations": (
            int(cells["cells_quarantined"]) if warm_ok else int(cells["cells_total"])
        ),
        **work.as_dict(),
        "digest": digest(table),
    }
