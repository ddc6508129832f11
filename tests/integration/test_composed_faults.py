"""Composed fault families: hard faults, sensor faults and SEUs at once.

The closed-loop ``control_chaos`` kind applies every fault family a
point names, so the realistic composed case — a link dies while
telemetry drops out and SEUs strike the Q-table SRAM — runs through one
evaluator and reports one union ledger.  Composition must keep each
family's defended contract and the repo's two standing determinism
contracts: fast == naive kernel, and a killed-and-resumed run is
bit-identical to an uninterrupted one.
"""

import shutil

from repro.obs import TraceBuffer
from repro.sim import (
    ResumableRun,
    Simulator,
    SweepSpec,
    default_design_factories,
    scaled_config,
    synthesize_benchmark_trace,
)
from repro.sim.sweep import _eval_control_chaos

# The link dies inside the measured window (pre-training and warm-up
# end near cycle 1 900 at this scale).
FAULTS = {
    "fault_spec": "link@2100:4E",
    "sensor_spec": "drop@0.2:util;stuck@r5.temp=0.9",
    "soft_error_spec": "qtable@5e-4;mode@r4+1900",
}


def small_config(**overrides):
    return scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_500,
        warmup_cycles=300, mode_hysteresis_epochs=2, **overrides,
    )


class TestAcceptance:
    def test_composed_campaign_is_absorbed(self):
        config = small_config()
        [point] = SweepSpec(
            config=config,
            kind="control_chaos",
            designs=("rl",),
            traffics=("uniform",),
            seeds=(2,),
            rates=(0.05,),
            fault_specs=(FAULTS["fault_spec"],),
            sensor_specs=(FAULTS["sensor_spec"],),
            soft_error_specs=(FAULTS["soft_error_spec"],),
            cycles=800,
        ).expand()
        ledger = _eval_control_chaos(config, point)["ledger"]
        assert ledger["diagnosis"] is None
        assert ledger["outstanding"] == 0
        assert ledger["delivered_fraction"] >= 0.95
        # Every family fired, and its defense layer absorbed it.
        assert [clause for clause, _cycle in ledger["applied"]] == ["link@2100:4E"]
        for kind in ("drop", "stuck", "qtable"):
            assert ledger["injected"][kind] > 0, kind
        assert ledger["rejected_observations"] > 0
        assert ledger["corrected"] == ledger["words_single"] > 0


class TestDeterminism:
    def _classic(self, kernel, tracer=None):
        config = small_config(**FAULTS)
        policy = default_design_factories(0)["rl"]()
        sim = Simulator(config, policy, seed=0, tracer=tracer)
        sim.network.kernel = kernel
        sim.pretrain()
        policy.freeze()
        sim.warmup()
        trace = synthesize_benchmark_trace("swaptions", config, 400, 0)
        return sim, sim.measure_trace(trace, "swaptions")

    def test_kernels_agree_under_composed_faults(self):
        fast_tracer, naive_tracer = TraceBuffer(), TraceBuffer()
        fast_sim, fast = self._classic("fast", fast_tracer)
        naive_sim, naive = self._classic("naive", naive_tracer)
        assert fast == naive
        assert fast_tracer.digest() == naive_tracer.digest()
        # All three campaigns actually fired, identically on both kernels.
        assert fast_sim.hard_faults.applied == naive_sim.hard_faults.applied != []
        fast_injected, naive_injected = (
            {name: n for name, n in sim.metrics.scalars().items() if ".injected." in name}
            for sim in (fast_sim, naive_sim)
        )
        assert fast_injected == naive_injected
        assert fast.rejected_observations > 0
        assert fast_injected["softerror.injected.qtable"] > 0

    def test_kill_and_resume_bit_identical_with_composed_faults(self, tmp_path):
        config = small_config(**FAULTS)
        baseline = ResumableRun(config, "rl", "swaptions", trace_cycles=400).run()

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
        # Resume from an early, a middle, and the last mid-run snapshot:
        # the hard-fault schedule, the sensor and SEU RNG streams, and
        # the guard and ECC state must all restore bit-exactly.
        for copy in (copies[0], copies[len(copies) // 2], copies[-2]):
            resumed = ResumableRun.resume(copy).run()
            assert resumed == baseline


class _ChannelProbe:
    """Stands in as ``network.hard_faults``: ticks the real model, if
    any, then records the probability every channel samples at."""

    def __init__(self, network, model):
        self.network = network
        self.model = model
        self.cycles = []

    def tick(self, now):
        if self.model is not None:
            self.model.tick(now)
        self.cycles.append({
            key: (channel.alive, channel.error_model.event_probability)
            for key, channel in self.network.channels.items()
        })


def _sampled_probabilities(fault_spec):
    """Per cycle, every channel's (alive, probability) in an idle 3x3 crc
    run whose epoch refresh rewrites the probabilities every 100 cycles."""
    config = scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=0, warmup_cycles=0,
        fault_spec=fault_spec,
    )
    sim = Simulator(config, default_design_factories()["crc"](), seed=0)
    probe = _ChannelProbe(sim.network, sim.hard_faults)
    sim.network.hard_faults = probe
    sim.run(None, 400)
    return probe.cycles


def test_error_burst_composes_with_the_epoch_refresh():
    """Through a burst every alive channel samples at or above its level,
    across the refresh at cycle 200; outside it every channel samples
    what a burst-free twin run samples."""
    burst = _sampled_probabilities("burst@150+100:0.2")
    twin = _sampled_probabilities("")
    assert len(burst) == len(twin) == 400
    for now, (seen, healthy) in enumerate(zip(burst, twin)):
        if 150 <= now < 250:
            assert all(p >= 0.2 for alive, p in seen.values() if alive), now
        else:
            assert seen == healthy, now
    # The refreshes moved the substrate's values, so the check has teeth.
    assert twin[0] != twin[100] != twin[200] != twin[300]


def _burst_observation(fault_spec):
    """A 3x3 crc run over a 1 000-cycle canneal trace; returns its
    result and each router's observed channel error probability."""
    config = scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=0, warmup_cycles=200,
        fault_spec=fault_spec,
    )
    sim = Simulator(config, default_design_factories()["crc"](), seed=0)
    sim.warmup()
    trace = synthesize_benchmark_trace("canneal", config, 1_000, 0)
    result = sim.measure_trace(trace, "canneal")
    return result, sim._channel_error_by_router()


def test_the_controller_observes_an_error_burst():
    """The error rate the controller observes and the run reports is the
    one flits sample at, a burst's floor included."""
    result, by_router = _burst_observation("burst@0+100000:0.2")
    assert result.mean_error_probability >= 0.2
    assert len(by_router) == 9
    assert all(p >= 0.2 for p in by_router.values()), by_router
    twin, _ = _burst_observation("")
    assert round(twin.mean_error_probability, 4) == 0.0545
