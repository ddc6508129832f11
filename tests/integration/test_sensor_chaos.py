"""Acceptance suite for the degraded-telemetry control plane.

The tentpole contract: with the hardened observation path, an RL
campaign under 20% telemetry dropout plus a wedged temperature sensor
completes with delivered fraction >= 0.95, no unhandled exceptions, and
bounded mode flapping — while the unhardened path demonstrably fails on
the same corruption.  Sensor faults must also preserve the repo's two
standing determinism contracts: fast == naive kernel, and a
killed-and-resumed run is bit-identical to an uninterrupted one.
"""

import shutil

import pytest

from repro.sim import (
    ResumableRun,
    Simulator,
    SweepSpec,
    default_design_factories,
    scaled_config,
    synthesize_benchmark_trace,
)
from repro.sim.sweep import _eval_control_chaos
from repro.obs import TraceBuffer

ACCEPTANCE_SPEC = "drop@0.2:util;stuck@r5.temp=0.9"


def small_config(**overrides):
    overrides.setdefault("width", 3)
    overrides.setdefault("height", 3)
    return scaled_config(
        epoch_cycles=100, pretrain_cycles=1_500, warmup_cycles=300,
        **overrides,
    )


def sensor_point(config, sensor_spec, rate=0.05, cycles=800, seed=0):
    spec = SweepSpec(
        config=config,
        kind="control_chaos",
        designs=("rl",),
        traffics=("uniform",),
        seeds=(seed,),
        rates=(rate,),
        fault_specs=("",),
        sensor_specs=(sensor_spec,),
        cycles=cycles,
    )
    return spec.expand()[0]


class TestAcceptance:
    def test_hardened_rl_survives_dropout_and_stuck_sensor(self):
        config = small_config(sensor_spec=ACCEPTANCE_SPEC, mode_hysteresis_epochs=2)
        point = sensor_point(config, ACCEPTANCE_SPEC)
        payload = _eval_control_chaos(config, point)["ledger"]
        assert payload["diagnosis"] is None
        assert payload["defenses"] is True
        assert payload["delivered_fraction"] >= 0.95
        assert payload["outstanding"] == 0
        # The campaign really injected and the guard really worked.
        assert payload["injected"]["drop"] > 0
        assert payload["injected"]["stuck"] > 0
        assert payload["rejected_observations"] > 0
        assert payload["sensor_holds"] + payload["sensor_defaults"] > 0
        # Bounded flapping: nowhere near one switch per router per epoch.
        epochs = (
            config.pretrain_cycles + config.warmup_cycles + point.cycles
        ) // config.epoch_cycles
        assert payload["mode_switches"] < 9 * epochs

    def test_unhardened_path_crashes_on_dropout(self):
        """Without defenses a dropped reading reaches discretization as
        None and raises — the failure mode the guard exists to absorb."""
        config = small_config(
            sensor_spec="drop@1.0:util", sensor_defenses=False,
        )
        policy = default_design_factories(0)["rl"]()
        sim = Simulator(config, policy, seed=0)
        with pytest.raises(TypeError):
            sim.pretrain()

    def test_hysteresis_bounds_flapping_under_noise(self):
        noisy = "noise@0.2:nack;noise@10.0:temp"
        results = {}
        for hysteresis in (0, 4):
            config = small_config(
                sensor_spec=noisy, mode_hysteresis_epochs=hysteresis,
            )
            point = sensor_point(config, noisy)
            results[hysteresis] = _eval_control_chaos(config, point)["ledger"]
        assert results[4]["debounced_switches"] > 0
        assert results[0]["debounced_switches"] == 0
        assert results[4]["mode_switches"] <= results[0]["mode_switches"]

    def test_full_dropout_quarantines_and_still_delivers(self, monkeypatch):
        monkeypatch.setattr("repro.sim.simulator.SENSOR_QUARANTINE_K", 4)
        config = small_config(sensor_spec="drop@1.0:all")
        point = sensor_point(config, "drop@1.0:all")
        payload = _eval_control_chaos(config, point)["ledger"]
        assert payload["diagnosis"] is None
        assert payload["quarantined_routers"] == list(range(9))
        assert payload["safe_mode_entries"] >= 9
        assert payload["delivered_fraction"] >= 0.95


class TestDeterminism:
    SPEC = "drop@0.3:util;noise@0.05:nack;stuck@r2.temp=0.8;stale@r4+600:3"

    def _classic(self, kernel, tracer=None):
        config = small_config(sensor_spec=self.SPEC, mode_hysteresis_epochs=2)
        policy = default_design_factories(0)["rl"]()
        sim = Simulator(config, policy, seed=0, tracer=tracer)
        sim.network.kernel = kernel
        sim.pretrain()
        policy.freeze()
        sim.warmup()
        trace = synthesize_benchmark_trace("swaptions", config, 400, 0)
        return sim, sim.measure_trace(trace, "swaptions")

    def test_kernels_agree_under_sensor_faults(self):
        fast_tracer, naive_tracer = TraceBuffer(), TraceBuffer()
        fast_sim, fast = self._classic("fast", fast_tracer)
        naive_sim, naive = self._classic("naive", naive_tracer)
        assert fast == naive
        assert fast_tracer.digest() == naive_tracer.digest()
        # The campaign actually fired, identically on both kernels, and
        # the guard absorbed it.
        fast_injected, naive_injected = (
            {name: n for name, n in sim.metrics.scalars().items() if ".injected." in name}
            for sim in (fast_sim, naive_sim)
        )
        assert fast_injected == naive_injected
        assert fast_injected["sensor.injected.drop"] > 0
        assert fast_injected["sensor.injected.stuck"] > 0
        assert fast.rejected_observations > 0
        assert fast.sensor_holds + fast.sensor_clamps > 0
        assert fast.packets_delivered > 0

    def test_kill_and_resume_bit_identical_with_sensor_faults(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sim.simulator.SENSOR_QUARANTINE_K", 4)
        config = small_config(sensor_spec=self.SPEC, mode_hysteresis_epochs=2)
        baseline = ResumableRun(config, "rl", "swaptions", trace_cycles=400).run()
        assert baseline.rejected_observations > 0

        run = ResumableRun(
            config, "rl", "swaptions", trace_cycles=400,
            checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=350,
        )
        copies = []
        original_save = run.save

        def keep(path=None):
            saved = original_save(path)
            if saved is not None:
                copy = tmp_path / f"snap_{len(copies)}.ckpt"
                shutil.copy(saved, copy)
                copies.append(copy)
            return saved

        run.save = keep
        uninterrupted = run.run()
        assert uninterrupted == baseline
        assert len(copies) >= 3
        # Resume from an early, a middle, and the last mid-run snapshot.
        for copy in (copies[0], copies[len(copies) // 2], copies[-2]):
            resumed = ResumableRun.resume(copy).run()
            assert resumed == baseline
