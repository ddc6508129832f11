"""Tests for the experiment runner."""

import math
import zlib

import pytest

from repro.baselines import crc_policy
from repro.core.rl_policy import RLControlPolicy
from repro.sim import (
    DESIGN_ORDER,
    benchmark_trace_seed,
    compare_designs,
    default_design_factories,
    geometric_mean,
    normalize_to_baseline,
    pretrain_policy,
    run_design_on_trace,
    scaled_config,
    synthesize_benchmark_trace,
)
from repro.traffic import PARSEC_PROFILES


def tiny_config():
    return scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=2000, warmup_cycles=200
    )


class TestFactories:
    def test_four_designs_in_order(self):
        factories = default_design_factories()
        assert set(factories) == set(DESIGN_ORDER)

    def test_factories_produce_fresh_policies(self):
        factories = default_design_factories()
        assert factories["rl"]() is not factories["rl"]()
        assert factories["crc"]().profile.name == "crc"


class TestTraceSynthesis:
    def test_benchmark_trace_on_config_mesh(self):
        config = tiny_config()
        records = synthesize_benchmark_trace("ferret", config, cycles=500, seed=0)
        assert records
        assert all(r.src < config.num_nodes and r.dest < config.num_nodes for r in records)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            synthesize_benchmark_trace("doom", tiny_config(), cycles=100)


class TestRunners:
    def test_run_design_on_trace(self):
        config = tiny_config()
        records = synthesize_benchmark_trace("swaptions", config, cycles=600, seed=1)
        result = run_design_on_trace(crc_policy(), records, config, "swaptions", seed=1)
        assert result.design == "crc"
        assert result.benchmark == "swaptions"
        assert result.packets_delivered >= len(records)

    def test_pretrain_policy_trains_rl(self):
        policy = RLControlPolicy(share_table=True, seed=1)
        pretrain_policy(policy, tiny_config(), seed=1)
        assert policy.total_updates() > 0

    def test_compare_designs_covers_all(self):
        config = tiny_config()
        records = synthesize_benchmark_trace("swaptions", config, cycles=500, seed=1)
        results = compare_designs(records, config, "swaptions", seed=1)
        assert set(results) == set(DESIGN_ORDER)
        delivered = {r.packets_delivered for r in results.values()}
        # All designs carried (at least) the same offered trace.
        assert min(delivered) >= len(records)


class TestNormalization:
    def test_normalize_to_baseline(self):
        config = tiny_config()
        records = synthesize_benchmark_trace("swaptions", config, cycles=400, seed=1)
        results = compare_designs(
            records, config, seed=1,
            designs={"crc": crc_policy, "arq_ecc": default_design_factories()["arq_ecc"]},
        )
        normalized = normalize_to_baseline(results, lambda r: r.mean_latency)
        assert normalized["crc"] == pytest.approx(1.0)
        assert normalized["arq_ecc"] > 0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_empty_is_nan(self):
        # An empty geomean is undefined, not "everything matched the
        # baseline perfectly" — 0.0 used to read as a real ratio.
        assert math.isnan(geometric_mean([]))

    def test_geometric_mean_skips_non_positive(self):
        # Non-positive/non-finite values are excluded (with a warning),
        # not allowed to zero out the whole aggregate.
        assert geometric_mean([1.0, 0.0]) == pytest.approx(1.0)
        assert geometric_mean([4.0, -2.0, 9.0]) == pytest.approx(6.0)
        assert geometric_mean([2.0, float("nan"), 8.0]) == pytest.approx(4.0)
        assert math.isnan(geometric_mean([0.0, -1.0]))

    def test_normalize_to_baseline_zero_reference_is_nan(self):
        config = tiny_config()
        records = synthesize_benchmark_trace("swaptions", config, cycles=300, seed=1)
        results = compare_designs(
            records, config, seed=1,
            designs={"crc": crc_policy, "arq_ecc": default_design_factories()["arq_ecc"]},
        )
        # A metric that is 0 for the baseline has no meaningful ratio;
        # every design must come out NaN, never a masked 0.0 or a crash.
        normalized = normalize_to_baseline(results, lambda r: 0.0)
        assert set(normalized) == set(results)
        assert all(math.isnan(v) for v in normalized.values())


class TestTraceSeeding:
    def test_full_crc_mixed_into_seed(self):
        # The seed mixes the full 32-bit CRC of the name, not a mod-1000
        # truncation of it.
        assert benchmark_trace_seed("canneal", 7) == 7 + zlib.crc32(b"canneal")

    def test_profiles_get_distinct_seeds(self):
        seeds = {name: benchmark_trace_seed(name) for name in PARSEC_PROFILES}
        assert len(set(seeds.values())) == len(seeds)

    def test_mod_1000_collision_no_longer_collides(self):
        # Regression for the truncated seed: find two names whose CRCs
        # collide mod 1000 (as the old `% 1000` seeding used) and check
        # the full-width seeds still differ.
        reference = zlib.crc32(b"canneal") % 1000
        collider = next(
            name
            for name in (f"bench{i}" for i in range(100_000))
            if zlib.crc32(name.encode()) % 1000 == reference
            and zlib.crc32(name.encode()) != zlib.crc32(b"canneal")
        )
        assert benchmark_trace_seed(collider) != benchmark_trace_seed("canneal")
