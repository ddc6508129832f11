"""Tests for the parallel sweep runner and its result cache."""

import dataclasses
import os
import time

import pytest

from repro.noc.packet import PACKET_FLITS
from repro.sim import (
    SweepCache,
    SweepPoint,
    SweepReport,
    SweepRunner,
    SweepSpec,
    merge_campaign,
    point_cache_key,
    scaled_config,
)
from repro.sim.checkpoint import load_checkpoint, read_checkpoint_meta, save_checkpoint
from repro.sim.sweep import CACHE_SCHEMA, MODE_DESIGNS, _backoff_delay, run_sweep_point


def tiny_config(**overrides):
    kwargs = dict(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=0,
        warmup_cycles=200,
    )
    kwargs.update(overrides)
    return scaled_config(**kwargs)


def runner_for(spec, **kwargs):
    """A runner over ``spec``'s expanded grid."""
    return SweepRunner(spec.config, spec.expand(), **kwargs)


def tiny_campaign_spec(**overrides):
    """Stateless designs only: their campaign cells need no artifact."""
    kwargs = dict(
        config=tiny_config(),
        kind="campaign",
        designs=("crc", "arq_ecc"),
        traffics=("swaptions",),
        cycles=400,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestGridExpansion:
    def test_trace_cross_product_order(self):
        spec = SweepSpec(
            config=tiny_config(),
            kind="campaign",
            designs=("crc", "rl"),
            traffics=("canneal", "x264"),
            seeds=(0, 1),
            cycles=500,
        )
        points = spec.expand()
        assert len(points) == 2 * 2 * 2
        # Deterministic order: traffic, seed, design.
        assert [(p.traffic, p.seed, p.design) for p in points[:4]] == [
            ("canneal", 0, "crc"),
            ("canneal", 0, "rl"),
            ("canneal", 1, "crc"),
            ("canneal", 1, "rl"),
        ]
        assert points[-1] == SweepPoint(
            kind="campaign", design="rl", traffic="x264", seed=1, cycles=500,
        )

    def test_load_rate_axis(self):
        spec = SweepSpec(
            config=tiny_config(), kind="load", designs=("crc",),
            traffics=("uniform",), rates=(0.005, 0.01), cycles=400,
        )
        points = spec.expand()
        assert [p.rate for p in points] == [0.005, 0.01]
        assert all(p.kind == "load" for p in points)

    def test_mode_error_designs(self):
        spec = SweepSpec(
            config=tiny_config(), kind="mode_error", designs=MODE_DESIGNS,
            traffics=("uniform",), error_probabilities=(0.0, 0.05), cycles=50,
        )
        assert len(spec.expand()) == 8

    def test_chaos_expands_fault_spec_axis(self):
        spec = SweepSpec(
            config=tiny_config(), kind="chaos", designs=("xy", "adaptive"),
            traffics=("uniform",), rates=(0.1,),
            fault_specs=("", "link@500:5E"), cycles=400,
        )
        points = spec.expand()
        assert len(points) == 4
        assert sorted({p.fault_spec for p in points}) == ["", "link@500:5E"]
        assert all(p.rate == 0.1 for p in points)

    def test_fault_specs_ignored_outside_chaos(self):
        spec = tiny_campaign_spec(fault_specs=("", "link@500:5E"))
        assert all(p.fault_spec == "" for p in spec.expand())

    def test_sensor_chaos_expands_sensor_spec_axis(self):
        spec = SweepSpec(
            config=tiny_config(), kind="control_chaos", designs=("rl",),
            traffics=("uniform",), rates=(0.05,),
            fault_specs=("",),
            sensor_specs=("drop@0.2:util", "stuck@r1.temp=0.9"),
            cycles=400,
        )
        points = spec.expand()
        assert len(points) == 2
        assert sorted(p.sensor_spec for p in points) == [
            "drop@0.2:util", "stuck@r1.temp=0.9",
        ]
        assert all(p.kind == "control_chaos" and p.rate == 0.05 for p in points)

    def test_sensor_specs_ignored_outside_sensor_chaos(self):
        spec = tiny_campaign_spec(sensor_specs=("", "drop@0.2:util"))
        assert all(p.sensor_spec == "" for p in spec.expand())

    def test_soft_error_expands_soft_error_spec_axis(self):
        spec = SweepSpec(
            config=tiny_config(), kind="control_chaos", designs=("rl",),
            traffics=("uniform",), rates=(0.05,),
            fault_specs=("",),
            soft_error_specs=("qtable@1e-5", "qtable@1e-5;burst@800:4"),
            cycles=400,
        )
        points = spec.expand()
        assert len(points) == 2
        assert sorted(p.soft_error_spec for p in points) == [
            "qtable@1e-5", "qtable@1e-5;burst@800:4",
        ]
        assert all(p.kind == "control_chaos" and p.rate == 0.05 for p in points)

    def test_soft_error_specs_ignored_outside_soft_error(self):
        spec = tiny_campaign_spec(soft_error_specs=("", "qtable@1e-5"))
        assert all(p.soft_error_spec == "" for p in spec.expand())

    def test_sensor_chaos_takes_control_designs(self):
        spec = SweepSpec(
            config=tiny_config(), kind="control_chaos", designs=("xy",),
            traffics=("uniform",), sensor_specs=("drop@0.2:util",), cycles=400,
        )
        with pytest.raises(ValueError, match="unknown design"):
            spec.expand()

    def test_chaos_rejects_rl_designs(self):
        spec = SweepSpec(
            config=tiny_config(), kind="chaos", designs=("rl",),
            traffics=("uniform",), cycles=400,
        )
        with pytest.raises(ValueError, match="routings"):
            spec.expand()

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            tiny_campaign_spec(designs=("fpga",)).expand()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            SweepSpec(config=tiny_config(), kind="quantum")
        # The retired per-design "suite" kind: the Figs 6-10 grid runs
        # only through repro.sim.campaign.
        with pytest.raises(ValueError, match="unknown sweep kind 'suite'"):
            SweepSpec(config=tiny_config(), kind="suite")
        # The retired in-place "trace" kind: designs are compared on a
        # benchmark trace only through repro.sim.campaign.
        with pytest.raises(ValueError, match="unknown sweep kind 'trace'"):
            SweepSpec(config=tiny_config(), kind="trace")

    def test_control_chaos_composes_every_spec_axis(self):
        spec = SweepSpec(
            config=tiny_config(), kind="control_chaos", designs=("rl",),
            traffics=("uniform",), rates=(0.05,),
            fault_specs=("", "link@300:4E"),
            sensor_specs=("drop@0.2:util",),
            soft_error_specs=("qtable@1e-5", "mode@r3+500"),
            cycles=400,
        )
        points = spec.expand()
        assert len(points) == 4
        assert {(p.fault_spec, p.soft_error_spec) for p in points} == {
            ("", "qtable@1e-5"), ("", "mode@r3+500"),
            ("link@300:4E", "qtable@1e-5"), ("link@300:4E", "mode@r3+500"),
        }
        assert all(p.sensor_spec == "drop@0.2:util" for p in points)


class TestControlChaos:
    """The closed-loop kind applies every fault family a point names."""

    def test_soft_error_point_keeps_its_hard_faults(self):
        spec = SweepSpec(
            config=tiny_config(width=4, height=4), kind="control_chaos",
            designs=("rl",), traffics=("uniform",), rates=(0.05,),
            fault_specs=("link@300:5E",),
            soft_error_specs=("qtable@1e-5",),
            cycles=400,
        )
        [point] = spec.expand()
        assert point.fault_spec == "link@300:5E"
        ledger = run_sweep_point(spec.config, point)["ledger"]
        assert ledger["fault_spec"] == "link@300:5E"
        assert ledger["soft_error_spec"] == "qtable@1e-5"
        assert [clause for clause, _cycle in ledger["applied"]] == ["link@300:5E"]
        assert ledger["diagnosis"] is None


class TestModeError:
    """A ``mode_error`` point simulates the network its config describes."""

    POINT = SweepPoint(
        kind="mode_error", design="mode1", traffic="uniform", seed=5,
        cycles=120, error_probability=0.05,
    )

    def test_drains_within_the_config_budget(self, monkeypatch):
        # 120 packets, one every other cycle: injection alone outlasts
        # a 100-cycle budget.
        monkeypatch.setattr("repro.sim.sweep.MAX_DRAIN_CYCLES", 100)
        with pytest.raises(RuntimeError, match=r"MAX_DRAIN_CYCLES \(100\)"):
            run_sweep_point(tiny_config(), self.POINT)


class TestLoadWindow:
    """A ``load`` point measures its injection span and drain, not the
    pre-training and warm-up before them."""

    CONFIG = tiny_config(pretrain_cycles=1200)
    #: offered load in flits per cycle
    OFFERED = 0.01 * CONFIG.num_nodes * PACKET_FLITS

    def _load(self, design, **overrides):
        point = SweepPoint(
            kind="load", design=design, traffic="uniform", seed=0,
            cycles=300, rate=0.01,
        )
        config = dataclasses.replace(self.CONFIG, **overrides)
        return run_sweep_point(config, point)["ledger"]

    def test_trainable_design_excludes_pretraining(self):
        load = self._load("rl")
        assert load["throughput"] <= self.OFFERED
        assert load["latency"] == pytest.approx(21.08)
        assert load["throughput"] == pytest.approx(100 / 300)

    def test_static_design_has_nothing_to_exclude(self):
        assert self._load("crc") == {
            "rate": 0.01, "latency": 20.04, "throughput": 100 / 398,
        }

    def test_warmup_drains_before_the_window(self):
        # The warm-up changes the platform the span runs on, but none
        # of its packets may land in the window.
        short, long = self._load("rl"), self._load("rl", warmup_cycles=2000)
        assert short != long
        assert short["throughput"] <= self.OFFERED
        assert long["throughput"] <= self.OFFERED


class TestCacheKeys:
    def test_key_stable_across_calls(self):
        spec = tiny_campaign_spec()
        point = spec.expand()[0]
        assert point_cache_key(spec.config, point) == point_cache_key(
            spec.config, point
        )

    def test_key_sensitive_to_point_fields(self):
        config = tiny_config()
        base = SweepPoint(
            kind="campaign", design="crc", traffic="canneal", seed=0, cycles=400
        )
        keys = {point_cache_key(config, base)}
        for change in (
            {"design": "rl"},
            {"seed": 1},
            {"traffic": "x264"},
            {"cycles": 500},
        ):
            keys.add(point_cache_key(config, dataclasses.replace(base, **change)))
        assert len(keys) == 5

    def test_key_sensitive_to_fault_spec(self):
        config = tiny_config()
        base = SweepPoint(
            kind="chaos", design="adaptive", traffic="uniform", seed=0,
            cycles=400, rate=0.1,
        )
        keys = {point_cache_key(config, base)}
        for change in (
            {"fault_spec": "link@500:5E"},
            {"fault_spec": "router@800:7"},
        ):
            keys.add(point_cache_key(config, dataclasses.replace(base, **change)))
        assert len(keys) == 3

    def test_key_sensitive_to_sensor_spec(self):
        """Schema 4: a cached healthy point must never be served for a
        sensor-faulted one (or vice versa)."""
        config = tiny_config()
        base = SweepPoint(
            kind="control_chaos", design="rl", traffic="uniform", seed=0,
            cycles=400, rate=0.05,
        )
        keys = {point_cache_key(config, base)}
        for change in (
            {"sensor_spec": "drop@0.2:util"},
            {"sensor_spec": "drop@0.2:util;stuck@r1.temp=0.9"},
        ):
            keys.add(point_cache_key(config, dataclasses.replace(base, **change)))
        assert len(keys) == 3

    def test_key_sensitive_to_soft_error_spec(self):
        """Schema 5: a cached healthy point must never be served for an
        SEU campaign (or one campaign for another)."""
        config = tiny_config()
        base = SweepPoint(
            kind="control_chaos", design="rl", traffic="uniform", seed=0,
            cycles=400, rate=0.05,
        )
        keys = {point_cache_key(config, base)}
        for change in (
            {"soft_error_spec": "qtable@1e-5"},
            {"soft_error_spec": "qtable@1e-5;mode@r3+500"},
        ):
            keys.add(point_cache_key(config, dataclasses.replace(base, **change)))
        assert len(keys) == 3

    def test_key_sensitive_to_config(self):
        point = SweepPoint(
            kind="campaign", design="crc", traffic="canneal", seed=0, cycles=400
        )
        assert point_cache_key(tiny_config(), point) != point_cache_key(
            tiny_config(warmup_cycles=300), point
        )

    def test_corrupt_entries_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.root.mkdir(exist_ok=True)
        cache.path("deadbeef").write_text("{truncated")
        assert cache.load("deadbeef") is None


def _torn(cache, key):
    blob = cache.path(key).read_bytes()
    cache.path(key).write_bytes(blob[: len(blob) // 2])
    return key


def _bit_flipped(cache, key):
    blob = bytearray(cache.path(key).read_bytes())
    blob[-1] ^= 0x01  # inside the pickled body, under its CRC
    cache.path(key).write_bytes(bytes(blob))
    return key


def _foreign_version(cache, key):
    payload, meta = load_checkpoint(cache.path(key), version=CACHE_SCHEMA)
    save_checkpoint(cache.path(key), payload, meta, version=CACHE_SCHEMA - 1)
    return key


def _renamed(cache, key):
    other = "0" * 24
    cache.path(key).rename(cache.path(other))
    return other


class TestCacheCorruption:
    """Every corruption path misses quietly, never raises."""

    def _stored(self, tmp_path):
        cache = SweepCache(tmp_path)
        point = SweepPoint(
            kind="campaign", design="crc", traffic="canneal", seed=0, cycles=400
        )
        key = point_cache_key(tiny_config(), point)
        cache.store(key, point, {"run": {"mean_latency": 12.5}, "elapsed": 1.0})
        return cache, key

    @pytest.mark.parametrize(
        "damage", [_torn, _bit_flipped, _foreign_version, _renamed],
        ids=["torn", "bit-flipped", "foreign-version", "renamed"],
    )
    def test_damaged_entry_misses(self, tmp_path, damage):
        """An entry is a checkpoint container stamped with the schema and
        its key; one the container or the key check rejects is a miss."""
        cache, key = self._stored(tmp_path)
        meta = read_checkpoint_meta(cache.path(key), version=CACHE_SCHEMA)
        assert meta["key"] == key
        assert cache.load(damage(cache, key)) is None

    def test_binary_garbage_misses(self, tmp_path):
        cache, key = self._stored(tmp_path)
        cache.path(key).write_bytes(b"\x00\xff\xfe garbage \x80")
        assert cache.load(key) is None

    def test_non_dict_entry_misses(self, tmp_path):
        cache, key = self._stored(tmp_path)
        cache.path(key).write_text("[1, 2, 3]")
        assert cache.load(key) is None

    def test_non_dict_payload_misses(self, tmp_path):
        cache, key = self._stored(tmp_path)
        save_checkpoint(cache.path(key), "oops", {"key": key}, version=CACHE_SCHEMA)
        assert cache.load(key) is None

    def test_intact_entry_still_hits(self, tmp_path):
        cache, key = self._stored(tmp_path)
        payload = cache.load(key)
        assert payload is not None
        assert payload["run"]["mean_latency"] == 12.5

    def test_store_uses_unique_tmp_name(self, tmp_path, monkeypatch):
        """Concurrent sweeps sharing a cache dir must not race on a shared
        `<key>.tmp` — the tmp name carries pid + random part."""
        cache = SweepCache(tmp_path)
        point = SweepPoint(
            kind="campaign", design="crc", traffic="canneal", seed=0, cycles=400
        )
        key = point_cache_key(tiny_config(), point)
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.sim.checkpoint.os.replace", spy)
        cache.store(key, point, {"run": None})
        (src, dst) = seen[0]
        assert dst.endswith(f"{key}.ckpt")
        assert src != f"{dst}.tmp"
        assert str(os.getpid()) in os.path.basename(src)
        # no tmp residue either way
        assert [p.name for p in cache.root.iterdir()] == [f"{key}.ckpt"]


# ----------------------------------------------------------------------
# Supervision: retries, quarantine, timeouts, worker death
# ----------------------------------------------------------------------
_FLAKY_CALLS = {"n": 0}


def _always_failing_point(config, point):
    raise RuntimeError("poison point")


def _flaky_point(config, point):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise RuntimeError("transient glitch")
    from repro.sim.sweep import _EVALUATORS

    payload = _EVALUATORS[point.kind](config, point)
    payload["elapsed"] = 0.0
    return payload


def _hanging_point(config, point):
    time.sleep(60)


def _dying_point(config, point):
    os._exit(13)


class TestSupervision:
    @pytest.fixture(autouse=True)
    def _short_backoff(self, monkeypatch):
        monkeypatch.setattr("repro.sim.sweep.RETRY_BASE_DELAY", 0.01)

    def _runner(self, tmp_path, **kwargs):
        kwargs.setdefault("cache_dir", tmp_path)
        return runner_for(tiny_campaign_spec(), **kwargs)

    def test_serial_quarantines_poison_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.sweep.run_sweep_point", _always_failing_point
        )
        runner = self._runner(tmp_path, jobs=1, max_retries=1)
        results = runner.run()
        assert results == [None, None]
        report = runner.report
        assert not report.succeeded
        assert len(report.quarantined) == 2
        assert report.retries == 2  # one retry per point
        assert report.completed == 0

    def test_serial_retry_recovers_flaky_point(self, tmp_path, monkeypatch):
        _FLAKY_CALLS["n"] = 0
        monkeypatch.setattr("repro.sim.sweep.run_sweep_point", _flaky_point)
        runner = self._runner(tmp_path, jobs=1, max_retries=2)
        results = runner.run()
        assert all(r is not None for r in results)
        assert runner.report.succeeded
        assert runner.report.retries == 1
        assert runner.report.completed == 2

    def test_supervised_quarantines_poison_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.sweep.run_sweep_point", _always_failing_point
        )
        runner = self._runner(tmp_path, jobs=2, max_retries=0)
        results = runner.run()
        assert results == [None, None]
        assert len(runner.report.quarantined) == 2
        assert runner.report.succeeded is False

    def test_supervised_timeout_kills_and_quarantines(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sim.sweep.run_sweep_point", _hanging_point)
        runner = self._runner(
            tmp_path, jobs=2, max_retries=0, point_timeout=0.5
        )
        started = time.monotonic()
        results = runner.run()
        elapsed = time.monotonic() - started
        assert results == [None, None]
        assert runner.report.timeouts == 2
        assert len(runner.report.quarantined) == 2
        assert elapsed < 30  # nowhere near the 60 s the points would hang

    def test_supervised_detects_hard_worker_death(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sim.sweep.run_sweep_point", _dying_point)
        runner = self._runner(tmp_path, jobs=2, max_retries=0)
        results = runner.run()
        assert results == [None, None]
        assert runner.report.worker_deaths == 2
        assert len(runner.report.quarantined) == 2

    def test_quarantine_does_not_block_healthy_points(self, tmp_path, monkeypatch):
        """One poison point must not take down the rest of the sweep, and
        surviving results are flushed to the cache incrementally."""
        real = run_sweep_point_original = __import__(
            "repro.sim.sweep", fromlist=["run_sweep_point"]
        ).run_sweep_point

        def poison_first(config, point):
            if point.design == "crc":
                raise RuntimeError("poison")
            return real(config, point)

        monkeypatch.setattr("repro.sim.sweep.run_sweep_point", poison_first)
        runner = self._runner(tmp_path, jobs=2, max_retries=0)
        results = runner.run()
        assert results[0] is None  # crc quarantined
        assert results[1] is not None  # arq_ecc survived
        assert len(runner.report.quarantined) == 1
        assert runner.report.completed == 1
        # the healthy point is in the cache despite the failed sweep
        spec = tiny_campaign_spec()
        key = point_cache_key(spec.config, spec.expand()[1])
        assert SweepCache(tmp_path).load(key) is not None

    def test_backoff_is_seeded_and_grows(self, monkeypatch):
        monkeypatch.setattr("repro.sim.sweep.RETRY_BASE_DELAY", 0.5)
        monkeypatch.setattr("repro.sim.sweep.RETRY_JITTER", 0.5)
        d1 = _backoff_delay("somekey", 1)
        assert d1 == _backoff_delay("somekey", 1)  # deterministic
        assert _backoff_delay("otherkey", 1) != d1  # decorrelated
        assert _backoff_delay("somekey", 3) > d1  # exponential
        assert 0.5 <= d1 <= 0.75 * 1.5

    def test_serial_and_supervised_settle_a_failure_alike(self, tmp_path, monkeypatch):
        """One failure policy: a grid with one always-failing point ends
        in the same ledger whether it runs in-process or in workers."""
        real = run_sweep_point

        def poison_crc(config, point):
            if point.design == "crc":
                raise RuntimeError("poison")
            return real(config, point)

        monkeypatch.setattr("repro.sim.sweep.run_sweep_point", poison_crc)
        reports = {}
        for jobs in (1, 2):
            runner = self._runner(tmp_path / f"jobs{jobs}", jobs=jobs, max_retries=2)
            runner.run()
            reports[jobs] = runner.report
        serial, supervised = reports[1], reports[2]
        for name in ("total", "completed", "executed", "retries",
                     "from_cache", "quarantined"):
            assert getattr(serial, name) == getattr(supervised, name), name
        assert serial.completed == serial.executed == 1
        assert serial.retries == 2
        assert serial.quarantined == [tiny_campaign_spec().expand()[0].label()]

    def test_report_counts_cache_hits(self, tmp_path):
        spec = tiny_campaign_spec()
        runner_for(spec, cache_dir=tmp_path).run()
        replay = runner_for(spec, cache_dir=tmp_path)
        replay.run()
        report = replay.report
        assert report.total == 2
        assert report.from_cache == 2
        assert report.completed == 2
        assert report.executed == 0
        assert report.succeeded
        assert report.elapsed_seconds >= 0.0

    def test_invalid_supervision_knobs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="point_timeout"):
            self._runner(tmp_path, point_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            self._runner(tmp_path, max_retries=-1)


class TestRunnerCaching:
    def test_cache_hit_skips_simulation(self, tmp_path):
        spec = tiny_campaign_spec()
        first = runner_for(spec, cache_dir=tmp_path)
        results = first.run()
        assert first.report.executed == 2
        assert all(not r.cached for r in results)

        second = runner_for(spec, cache_dir=tmp_path)
        replayed = second.run()
        assert second.report.executed == 0
        assert all(r.cached for r in replayed)
        for fresh, cached in zip(results, replayed):
            assert fresh.run == cached.run

    @pytest.mark.parametrize("kind, design, rate", [
        ("chaos", "adaptive", 0.1), ("control_chaos", "rl", 0.05),
    ])
    def test_replayed_point_equals_the_fresh_one(self, tmp_path, kind, design, rate):
        """A cached ledger comes back as the evaluator built it: the
        applied faults stay ``(clause, cycle)`` tuples."""
        spec = SweepSpec(
            config=tiny_config(), kind=kind, designs=(design,),
            traffics=("uniform",), rates=(rate,),
            fault_specs=("link@100:0E",), cycles=300,
        )
        [fresh] = runner_for(spec, cache_dir=tmp_path).run()
        [replayed] = runner_for(spec, cache_dir=tmp_path).run()
        assert replayed.cached and not fresh.cached
        assert fresh.ledger["applied"] == [("link@100:0E", 100)]
        assert dataclasses.replace(replayed, cached=False, elapsed=fresh.elapsed) == fresh

    def test_resume_after_interrupt(self, tmp_path):
        """Losing part of the cache re-runs only the missing points."""
        spec = tiny_campaign_spec()
        runner = runner_for(spec, cache_dir=tmp_path)
        runner.run()
        victim = point_cache_key(spec.config, spec.expand()[1])
        SweepCache(tmp_path).path(victim).unlink()

        resumed = runner_for(spec, cache_dir=tmp_path)
        results = resumed.run()
        assert resumed.report.executed == 1
        assert results[0].cached and not results[1].cached

    def test_no_cache_runs_everything(self, tmp_path):
        spec = tiny_campaign_spec()
        runner_for(spec, cache_dir=tmp_path).run()
        runner = runner_for(spec, cache_dir=tmp_path, use_cache=False)
        runner.run()
        assert runner.report.executed == 2

    def test_refresh_recomputes_but_stores(self, tmp_path):
        spec = tiny_campaign_spec()
        runner_for(spec, cache_dir=tmp_path).run()
        refresher = runner_for(spec, cache_dir=tmp_path, refresh=True)
        refresher.run()
        assert refresher.report.executed == 2
        replay = runner_for(spec, cache_dir=tmp_path)
        replay.run()
        assert replay.report.executed == 0

    def test_progress_reporting(self, tmp_path):
        snapshots = []

        def record(report):
            snapshots.append(
                (report.done, report.from_cache, report.running, report.total)
            )

        spec = tiny_campaign_spec()
        runner_for(spec, cache_dir=tmp_path, progress=record).run()
        assert snapshots[0] == (0, 0, 0, 2)
        assert snapshots[-1] == (2, 0, 0, 2)

        cached_run = runner_for(spec, cache_dir=tmp_path, progress=record)
        snapshots.clear()
        cached_run.run()
        assert snapshots == [(2, 2, 0, 2)]

    def test_eta_appears_after_first_executed_point(self):
        report = SweepReport(total=4, jobs=2)
        assert report.eta_seconds() is None
        report.executed_seconds.append(2.0)
        report.completed = 1
        assert report.eta_seconds() == pytest.approx(2.0 * 3 / 2)


class TestParallelEqualsSerial:
    def test_jobs1_and_jobs2_merge_identically(self, tmp_path):
        spec = tiny_campaign_spec(traffics=("swaptions", "blackscholes"))
        serial = runner_for(spec, jobs=1, cache_dir=tmp_path / "serial")
        parallel = runner_for(spec, jobs=2, cache_dir=tmp_path / "parallel")
        serial_grid = merge_campaign(serial.run())
        parallel_grid = merge_campaign(parallel.run())
        assert serial.report.executed == parallel.report.executed == 4
        assert serial_grid.keys() == parallel_grid.keys()
        for benchmark in serial_grid:
            for design in serial_grid[benchmark]:
                assert serial_grid[benchmark][design] == parallel_grid[benchmark][design]

    def test_load_points_match_across_jobs(self, tmp_path):
        spec = SweepSpec(
            config=tiny_config(), kind="load", designs=("crc",),
            traffics=("uniform",), rates=(0.005, 0.01), cycles=400,
        )
        serial = runner_for(spec, jobs=1, cache_dir=tmp_path / "s").run()
        parallel = runner_for(spec, jobs=2, cache_dir=tmp_path / "p").run()
        assert [r.ledger for r in serial] == [r.ledger for r in parallel]
        assert all(r.ledger["latency"] > 0 for r in serial)
