"""Checking, summarizing and the command line of ``perf/run.py``."""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = Path(run.ROOT) / "BENCHMARK.json"


def fake_job(seed, traced, digest="ab" * 32, run_s=2.0, cpu_util=1.0):
    job = {
        "seed": seed, "traced": traced, "setup_s": 0.25, "run_s": run_s,
        "sim_cycles": 4_000, "node_cycles": 64_000,
        "activity": {key: 100 for key in run.ACTIVITY},
        "peak_rss_mb": 40.0, "cpu_util": cpu_util,
        "failed_operations": 0, "digest": digest,
    }
    if traced:
        job["missing"] = []
        job["layers"] = {
            "setup": {"calls": {}, "self_s": {"traffic.synthesize": 0.05}, "samples_s": {}},
            "run": {
                "calls": {"noc.cycle": 4_000, "sim.epoch": 16},
                "self_s": {"noc.cycle": 0.9 * run_s, "sim.epoch": 0.09 * run_s},
                "samples_s": {"sim.epoch": [0.001 * i for i in range(1, 17)]},
            },
            "after": {"calls": {}, "self_s": {}, "samples_s": {}},
        }
    return job


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_injected_digest_mismatch_fails_every_operation(monkeypatch, tmp_path, capsys):
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"figure_grid": {"0": "00" * 32}}))
    monkeypatch.setattr(run, "DIGESTS", pins)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "run_job", lambda workload, seed, traced: fake_job(seed, traced))
    out = tmp_path / "out.json"
    code = run.main(["--workload", "figure_grid", "--seconds", "0", "--json", str(out)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] == WORKLOADS["figure_grid"].operations
    assert result["failed"] == result["attempted"]
    assert json.loads(out.read_text())["figure_grid"]["failed_fraction"] == 1


def test_jobs_on_one_unpinned_input_must_agree():
    jobs = [fake_job(9, False), fake_job(9, False, digest="cd" * 32), fake_job(10, False)]
    problems = run.check(jobs, pins={}, operations=1)
    assert [job["failed"] for job in jobs] == [0, 1, 0]
    assert len(problems) == 1 and "digest" in problems[0]


def test_traced_summary_reports_every_per_layer_metric():
    jobs = []
    for index in range(3):
        order = (False, True) if index % 2 == 0 else (True, False)
        jobs += [fake_job(index, traced, run_s=3.0 if traced else 2.0) for traced in order]
    jobs[0]["cpu_util"] = 0.5
    summary = run.summarize("busy_8x8", jobs, traced=True, pins={})
    result = summary["result"]
    assert result["correct"] is True and result["attempted"] == 6
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    metrics = summary["metrics"]
    assert metrics["trace_overhead"] == pytest.approx(1.5)
    assert metrics["unattributed.share"] == pytest.approx(0.01)
    assert metrics["group.noc.share"] == pytest.approx(0.9)
    assert metrics["sim.epoch.samples"] == 48
    assert metrics["setup.traffic.synthesize.self_s"] == pytest.approx(0.05)
    assert any(line.startswith("NOISY HOST: job 0") for line in summary["flags"])


def test_a_failed_job_drops_its_pair_from_trace_overhead():
    jobs = [
        fake_job(0, False, run_s=2.0), fake_job(0, True, run_s=3.0),
        {"seed": 1, "traced": True, "error": "exit code 1: boom"}, fake_job(1, False, run_s=2.0),
        fake_job(2, False, run_s=2.0), fake_job(2, True, run_s=2.4),
    ]
    summary = run.summarize("busy_8x8", jobs, traced=True, pins={})
    assert summary["metrics"]["trace_overhead"] == pytest.approx(1.35)
    assert summary["result"]["failed"] == 1
    assert summary["result"]["correct"] is False


def test_untraced_summary_reports_end_to_end_metrics():
    summary = run.summarize("control_4x4", [fake_job(0, False)], traced=False, pins={})
    metrics = summary["result"]["metrics"]
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert metrics["sim_cycles_per_s"] == {"value": 2_000.0, "unit": "cycles/s"}


def test_without_sources_exits_nonzero_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "busy_8x8", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""
