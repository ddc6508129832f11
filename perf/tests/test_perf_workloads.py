"""Tiny instances of every workload through ``run_workload``."""

import dataclasses

import pytest

from layers import LAYERS, LayerClock
from run import IDLE_SOMEWHERE
from workloads import WORKLOADS, run_workload

TINY = {
    "busy_8x8": dict(pretrain=300, warmup=50, trace=200),
    "control_4x4": dict(pretrain=2_000, warmup=200, trace=600, fault_spec="link@2500:5E"),
    "figure_grid": dict(pretrain=1_000, warmup=100, trace=200),
}


@pytest.fixture(params=sorted(TINY))
def tiny(request):
    return request.param, dataclasses.replace(WORKLOADS[request.param], **TINY[request.param])


def test_digest_is_stable_and_tracing_is_behaviour_neutral(tiny, tmp_path):
    name, spec = tiny
    first = run_workload(spec, seed=0, work_dir=tmp_path)
    second = run_workload(spec, seed=0, work_dir=tmp_path)
    clock = LayerClock()
    windows = []
    with clock.installed():
        traced = run_workload(
            spec, seed=0, work_dir=tmp_path, mark=lambda window: windows.append(clock.take())
        )
    assert first["digest"] == second["digest"] == traced["digest"]
    assert first["failed_operations"] == 0
    assert first["sim_cycles"] == traced["sim_cycles"] > 0
    assert first["activity"] == traced["activity"]
    assert not clock.missing
    # windows: set-up, then the timed run; its layers account for it, and
    # every layer whose time the result line carries does work in it.
    run_window = windows[1]
    assert sum(run_window["self_s"].values()) <= traced["run_s"]
    busy_everywhere = {layer for layer, _ in LAYERS if layer not in IDLE_SOMEWHERE}
    assert busy_everywhere <= set(run_window["calls"])
    assert list(tmp_path.iterdir()) == []


def test_another_seed_gives_another_digest(tiny, tmp_path):
    _, spec = tiny
    assert (
        run_workload(spec, seed=0, work_dir=tmp_path)["digest"]
        != run_workload(spec, seed=1, work_dir=tmp_path)["digest"]
    )
