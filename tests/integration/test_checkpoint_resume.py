"""End-to-end determinism of checkpoint/resume.

The tentpole contract: a run that is snapshotted, killed, and resumed
from disk produces *exactly* the RunResult of a run that was never
interrupted — and the ResumableRun plan itself is byte-equivalent to the
classic ``pretrain -> freeze -> warmup -> measure_trace`` pipeline.
``repro run`` executes every run through the plan, so that equivalence
is also what keeps its numbers those of the classic pipeline.
"""

import shutil

import pytest

from repro.sim import (
    ResumableRun,
    Simulator,
    default_design_factories,
    read_checkpoint_meta,
    scaled_config,
    synthesize_benchmark_trace,
)


# A link dies in the measured window while telemetry drops out and SEUs
# hit the Q-table SRAM (pre-training and warm-up end near cycle 1 900).
COMPOSED_FAULTS = {
    "fault_spec": "link@2100:4E",
    "sensor_spec": "drop@0.2:util;stuck@r5.temp=0.9",
    "soft_error_spec": "qtable@5e-4;mode@r4+1900",
}


def small_config(**faults):
    return scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_500,
        warmup_cycles=300, **faults,
    )


def classic_run(config, design, benchmark, trace_cycles, seed=0):
    policy = default_design_factories(seed)[design]()
    sim = Simulator(config, policy, seed=seed)
    if policy.trainable:
        sim.pretrain()
    policy.freeze()
    sim.warmup()
    trace = synthesize_benchmark_trace(benchmark, config, trace_cycles, seed)
    return sim.measure_trace(trace, benchmark)


@pytest.mark.parametrize(
    "design, faults",
    [
        pytest.param("rl", {}, id="rl"),
        pytest.param("crc", {}, id="crc"),
        pytest.param("dt", {}, id="dt"),
        pytest.param("rl", COMPOSED_FAULTS, id="rl-composed-faults"),
    ],
)
def test_plan_matches_classic_pipeline(design, faults):
    """ResumableRun with no checkpointing is the classic pipeline."""
    config = small_config(**faults)
    classic = classic_run(config, design, "swaptions", 300)
    planned = ResumableRun(config, design, "swaptions", trace_cycles=300).run()
    assert planned == classic


def test_interrupted_run_resumes_bit_identically(tmp_path):
    """Snapshots from every phase of a checkpointed run resume to the
    uninterrupted result (the CI kill-and-resume smoke in miniature)."""
    config = small_config()
    baseline = ResumableRun(config, "rl", "swaptions", trace_cycles=300).run()

    run = ResumableRun(
        config, "rl", "swaptions", trace_cycles=300,
        checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=90,
    )
    copies = []
    original_save = run.save

    def keep(path=None):
        saved = original_save(path)
        copy = tmp_path / f"{run.sim.network.now}.snap"
        if not copy.exists():
            shutil.copy(saved, copy)
            copies.append(copy)
        return saved

    run.save = keep
    assert run.run() == baseline

    by_phase = {}
    for copy in copies:
        meta = read_checkpoint_meta(copy)
        if not meta["finished"]:
            by_phase.setdefault(meta["phase"], copy)
    assert "pretrain" in by_phase  # plan must checkpoint during training
    for phase, snap in sorted(by_phase.items()):
        resumed = ResumableRun.resume(
            snap, checkpoint_path=tmp_path / "scratch.ckpt", checkpoint_every=0
        ).run()
        assert resumed == baseline, f"resume from {phase} diverged"
