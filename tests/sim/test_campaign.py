"""Tests for the paper-figure campaign runner and its report tables."""

import json

import pytest

from repro.baselines import DecisionTreePolicy
from repro.obs import MetricRegistry, TraceBuffer
from repro.sim import (
    REPORT_SCHEMA,
    CampaignSpec,
    artifact_key,
    campaign_report,
    clone_policy,
    default_design_factories,
    ensure_artifact,
    load_policy_artifact,
    pretrain_policy,
    read_policy_artifact_meta,
    render_report_markdown,
    run_campaign,
    save_checkpoint,
    save_policy_artifact,
    scaled_config,
)
from repro.sim.campaign import build_artifacts, campaign_points
from repro.sim.checkpoint import CheckpointError
from repro.sim.metrics import RunResult
from repro.sim.sweep import SweepPoint, _eval_campaign


def tiny_config(**overrides):
    defaults = dict(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_500,
        warmup_cycles=200,
    )
    defaults.update(overrides)
    return scaled_config(**defaults)


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_build_then_reuse(self, tmp_path):
        config = tiny_config()
        path, key, built = ensure_artifact(config, "rl", 0, tmp_path)
        assert built and path.exists()
        meta = read_policy_artifact_meta(path)
        assert meta["key"] == key
        assert meta["design"] == "rl"

        path2, key2, built2 = ensure_artifact(config, "rl", 0, tmp_path)
        assert (path2, key2) == (path, key)
        assert not built2  # warm path: no re-pretraining

    def test_refresh_rebuilds(self, tmp_path):
        config = tiny_config()
        ensure_artifact(config, "rl", 0, tmp_path)
        _, _, built = ensure_artifact(config, "rl", 0, tmp_path, refresh=True)
        assert built

    def test_key_covers_config_design_and_seed(self):
        config = tiny_config()
        base = artifact_key(config, "rl", 0)
        assert artifact_key(config, "rl", 1) != base
        assert artifact_key(config, "dt", 0) != base
        assert artifact_key(tiny_config(pretrain_cycles=1_600), "rl", 0) != base

    def test_torn_artifact_is_rebuilt(self, tmp_path):
        config = tiny_config()
        path, _, _ = ensure_artifact(config, "rl", 0, tmp_path)
        path.write_bytes(path.read_bytes()[:-7])  # tear the container
        with pytest.raises(CheckpointError):
            load_policy_artifact(path)
        _, _, built = ensure_artifact(config, "rl", 0, tmp_path)
        assert built

    def test_foreign_version_container_rejected(self, tmp_path):
        # A full-simulation checkpoint is not a policy artifact even
        # though it shares the container format.
        path = tmp_path / "imposter.ckpt"
        save_checkpoint(str(path), {"state": {"policy": "rl"}}, meta={})
        with pytest.raises(CheckpointError):
            load_policy_artifact(str(path))

    def test_clone_from_artifact_restores_policy(self, tmp_path):
        config = tiny_config()
        path, _, _ = ensure_artifact(config, "dt", 0, tmp_path)
        state, meta = load_policy_artifact(path)
        clone = DecisionTreePolicy()
        clone.load_state(state)
        assert clone.to_state() == state
        assert meta["policy"] == clone.name

    def test_only_trainable_designs_get_artifacts(self, tmp_path):
        spec = CampaignSpec(
            config=tiny_config(),
            benchmarks=("swaptions",),
            designs=("crc", "arq_ecc", "rl"),
        )
        artifacts = build_artifacts(spec, tmp_path)
        assert set(artifacts) == {"rl"}
        points = campaign_points(spec, artifacts)
        assert len(points) == 3
        by_design = {p.design: p for p in points}
        assert by_design["crc"].artifact_path == ""
        assert by_design["rl"].artifact_path.endswith(".ckpt")


# ----------------------------------------------------------------------
# Campaign execution
# ----------------------------------------------------------------------
BENCHMARKS = ("swaptions", "blackscholes")
DESIGNS = ("crc", "rl")


@pytest.fixture(scope="module")
def campaign_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    spec = CampaignSpec(
        config=tiny_config(), benchmarks=BENCHMARKS, designs=DESIGNS,
        seed=3, trace_cycles=400,
    )
    result = run_campaign(
        spec, jobs=2,
        artifact_dir=root / "artifacts", cache_dir=root / "cache",
    )
    return spec, result, root


class TestRunCampaign:
    def test_grid_shape(self, campaign_setup):
        spec, result, _root = campaign_setup
        assert result.succeeded
        assert set(result.suite) == set(BENCHMARKS)
        for results in result.suite.values():
            assert set(results) == set(DESIGNS)
        counters = result.counters()
        assert counters["cells_total"] == len(BENCHMARKS) * len(DESIGNS)
        assert counters["artifacts_built"] == 1  # rl only

    def test_warm_rerun_is_pure_cache(self, campaign_setup):
        spec, _result, root = campaign_setup
        rerun = run_campaign(
            spec, jobs=1,
            artifact_dir=root / "artifacts", cache_dir=root / "cache",
        )
        counters = rerun.counters()
        assert counters["artifacts_built"] == 0
        assert counters["artifacts_reused"] == 1
        assert counters["cells_executed"] == 0
        assert counters["cells_cached"] == counters["cells_total"]

    def test_serial_cold_run_bit_identical(self, campaign_setup):
        # jobs=1 with a cold cache (shared artifacts) must reproduce the
        # jobs=2 grid exactly.
        spec, result, root = campaign_setup
        serial = run_campaign(
            spec, jobs=1,
            artifact_dir=root / "artifacts", cache_dir=root / "cache-serial",
        )
        for bench in result.suite:
            for design in result.suite[bench]:
                assert serial.suite[bench][design] == result.suite[bench][design]

    def test_registry_and_tracer_observe_campaign(self, campaign_setup):
        spec, _result, root = campaign_setup
        registry = MetricRegistry()
        tracer = TraceBuffer()
        run_campaign(
            spec, artifact_dir=root / "artifacts", cache_dir=root / "cache",
            registry=registry, tracer=tracer,
        )
        scalars = registry.scalars()
        cells = len(BENCHMARKS) * len(DESIGNS)
        assert scalars["campaign.cells_total"] == cells
        # the runner's ledger, replayed from the fixture's cell cache
        assert scalars["sweep.total"] == cells
        assert scalars["sweep.executed"] == 0
        assert scalars["sweep.from_cache"] == cells
        kinds = {ev.kind for ev in tracer.events(["campaign"])}
        assert "artifact_reuse" in kinds
        assert "complete" in kinds


class TestOrderIndependence:
    def test_cells_independent_of_benchmark_order(self, tmp_path):
        # Regression for the cross-benchmark policy-state leak: each
        # cell must clone its policy from the frozen pretrain artifact,
        # so permuting the benchmark list cannot change any cell.
        config = tiny_config(pretrain_cycles=2_000)
        grids = []
        for benchmarks in (BENCHMARKS, BENCHMARKS[::-1]):
            spec = CampaignSpec(
                config=config, benchmarks=benchmarks, designs=DESIGNS,
                seed=3, trace_cycles=400,
            )
            result = run_campaign(
                spec, artifact_dir=tmp_path / "artifacts",
                cache_dir=tmp_path / "-".join(benchmarks),
            )
            grids.append(result.suite)
        forward, reversed_ = grids
        assert set(forward) == set(reversed_) == set(BENCHMARKS)
        for benchmark, results in forward.items():
            for design, result in results.items():
                assert result == reversed_[benchmark][design], (
                    f"{benchmark}/{design} changed with benchmark order"
                )


class TestCampaignCell:
    def test_trainable_cell_without_artifact_raises(self):
        point = SweepPoint(
            kind="campaign", design="rl", traffic="swaptions", seed=0, cycles=200,
        )
        with pytest.raises(ValueError, match="no pretrained artifact"):
            _eval_campaign(tiny_config(), point)

    def test_artifact_hash_mismatch_raises(self, tmp_path):
        config = tiny_config()
        path, key, _ = ensure_artifact(config, "rl", 0, tmp_path)
        point = SweepPoint(
            kind="campaign", design="rl", traffic="swaptions", seed=0,
            cycles=200, artifact_hash="deadbeef" * 3, artifact_path=str(path),
        )
        with pytest.raises(ValueError, match="key"):
            _eval_campaign(config, point)

    def test_clone_of_a_poisoned_snapshot_raises(self, tmp_path):
        path, _, _ = ensure_artifact(tiny_config(), "rl", 0, tmp_path)
        state, _ = load_policy_artifact(path)
        factory = default_design_factories(0)["rl"]
        assert clone_policy(factory, state).to_state() == state
        poison_shared_table(state)
        with pytest.raises(ValueError, match="rejected Q-table"):
            clone_policy(factory, state)

    def test_poisoned_artifact_quarantines_its_cells(self, tmp_path):
        """A cell cloned from an artifact with a rejected table fails
        instead of measuring a mesh pinned to mode 3."""
        spec = CampaignSpec(
            config=tiny_config(), benchmarks=BENCHMARKS, designs=DESIGNS,
            seed=3, trace_cycles=200,
        )
        artifact_dir = tmp_path / "artifacts"
        path, _, _ = ensure_artifact(spec.config, "rl", spec.seed, artifact_dir)
        state, meta = load_policy_artifact(path)
        poison_shared_table(state)
        save_policy_artifact(path, state, meta)
        result = run_campaign(
            spec, artifact_dir=artifact_dir, cache_dir=tmp_path / "cache",
            max_retries=0,
        )
        assert result.artifacts["rl"]["built"] is False
        assert len(result.report.quarantined) == len(BENCHMARKS)
        assert [r is None for r in result.results] == [False, True] * len(BENCHMARKS)
        assert {b: set(designs) for b, designs in result.suite.items()} == {
            benchmark: {"crc"} for benchmark in BENCHMARKS
        }


def poison_shared_table(state):
    """Write a NaN into the first row of an RL snapshot's shared table."""
    table = state["agents"][0]["table"]
    table[next(iter(table))][0] = float("nan")


# ----------------------------------------------------------------------
# Decision-tree state round trip
# ----------------------------------------------------------------------
class TestDecisionTreeState:
    def test_pretrained_round_trip(self):
        policy = DecisionTreePolicy()
        pretrain_policy(policy, tiny_config(), seed=2)
        state = policy.to_state()
        assert state["frozen"]
        clone = DecisionTreePolicy()
        clone.load_state(state)
        assert clone.to_state() == state

    def test_rejected_state_keeps_model(self):
        policy = DecisionTreePolicy()
        before = policy.to_state()
        policy.load_state({"thresholds": [3.0, 2.0, 1.0]})  # not increasing
        assert policy.to_state() == before


# ----------------------------------------------------------------------
# Report tables
# ----------------------------------------------------------------------
def make_result(design, benchmark, *, cycles=1_000, latency=10.0, retx=4,
                dynamic_pj=1e6, static_pj=5e5, flits=100):
    return RunResult(
        design=design, benchmark=benchmark, execution_cycles=cycles,
        mean_latency=latency, packets_delivered=90, flits_delivered=flits,
        packet_retransmissions=retx, flit_retransmissions=0,
        corrected_errors=0, escaped_errors=0, silent_corruptions=0,
        duplicate_flits=0, dynamic_energy_pj=dynamic_pj,
        static_energy_pj=static_pj,
    )


class TestReport:
    def suite(self):
        return {
            "canneal": {
                "crc": make_result("crc", "canneal", cycles=1_000, latency=10.0),
                "rl": make_result("rl", "canneal", cycles=500, latency=8.0),
            },
            "x264": {
                "crc": make_result("crc", "x264", cycles=2_000, latency=20.0),
                "rl": make_result("rl", "x264", cycles=1_000, latency=15.0),
            },
        }

    def test_structure_and_values(self):
        report = campaign_report(self.suite())
        assert report["schema"] == REPORT_SCHEMA
        assert report["baseline"] == "crc"
        assert report["benchmarks"] == ["canneal", "x264"]
        assert set(report["figures"]) == {"fig6", "fig7", "fig8", "fig9", "fig10"}
        fig8 = report["figures"]["fig8"]
        assert fig8["per_benchmark"]["canneal"]["rl"] == pytest.approx(0.8)
        assert fig8["geomean"]["crc"] == pytest.approx(1.0)
        # Fig 7 is a speed-UP: crc_cycles / design_cycles, so halving the
        # cycle count doubles the reported ratio.
        fig7 = report["figures"]["fig7"]
        assert fig7["direction"] == "higher"
        assert fig7["per_benchmark"]["canneal"]["rl"] == pytest.approx(2.0)
        assert fig7["geomean"]["rl"] == pytest.approx(2.0)

    def test_zero_baseline_yields_none_not_zero(self):
        suite = self.suite()
        # A zero-energy baseline makes energy efficiency ratios undefined.
        suite["canneal"]["crc"] = make_result(
            "crc", "canneal", dynamic_pj=0.0, static_pj=0.0
        )
        report = campaign_report(suite)
        fig9 = report["figures"]["fig9"]
        assert fig9["per_benchmark"]["canneal"]["rl"] is None
        assert fig9["per_benchmark"]["x264"]["rl"] is not None
        # The geomean skips the undefined benchmark instead of zeroing.
        assert fig9["geomean"]["rl"] == pytest.approx(
            fig9["per_benchmark"]["x264"]["rl"]
        )

    def test_benchmark_missing_baseline_dropped(self):
        suite = self.suite()
        del suite["x264"]["crc"]  # e.g. a quarantined baseline cell
        report = campaign_report(suite)
        assert "x264" not in report["figures"]["fig8"]["per_benchmark"]
        assert report["figures"]["fig8"]["geomean"]["rl"] == pytest.approx(0.8)

    def test_markdown_render(self):
        report = campaign_report(self.suite())
        text = render_report_markdown(report)
        assert "| Figure | Direction | crc | rl |" in text
        assert "Execution speed-up (fig7)" in text
        assert "| **geomean** |" in text
        # Undefined cells render as n/a, never 0.000.
        suite = self.suite()
        suite["canneal"]["crc"] = make_result(
            "crc", "canneal", dynamic_pj=0.0, static_pj=0.0
        )
        assert "n/a" in render_report_markdown(campaign_report(suite))

    def test_markdown_render_survives_json_round_trip(self):
        # The CLI writes the report JSON with sort_keys, which puts fig10
        # before fig6; the rendered tables must not follow that order.
        report = campaign_report(self.suite())
        reread = json.loads(json.dumps(report, sort_keys=True))
        assert list(reread["figures"])[0] == "fig10"
        assert render_report_markdown(reread) == render_report_markdown(report)
