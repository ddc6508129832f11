"""Observability must be free when off and behaviour-neutral when on.

The tentpole contract from DESIGN.md §12: attaching a tracer changes
*nothing* about a simulation except that events get recorded.  These
tests pin that at the network level and at the full-simulation level.
They also cover the tally migration: per-run registry counters replace
the ad-hoc module tallies and start clean in every run.
"""

import random
import warnings

import pytest

from repro.core.controller import compute_reward
from repro.faults.hardfaults import HardFaultModel, parse_fault_spec
from repro.faults.injector import FaultInjector
from repro.faults.varius import VariusModel
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology
from repro.obs import MetricRegistry, TraceBuffer
from repro.sim import ResumableRun, scaled_config

CHAOS_SPEC = "link@300:1E;router@700:5;burst@500+200:0.1"

#: the quick chaos workload: an early east-link kill, a router kill and
#: an error burst in mid-run, under adaptive routing
LONG_CHAOS_SPEC = "link@2000:5E;router@8000:10;burst@4000+2000:0.05"


def _network(
    seed, tracer, spec=CHAOS_SPEC, error=0.01, rate=0.15, cycles=1_200, kernel="fast"
):
    net = Network(
        MeshTopology(4, 4),
        routing="adaptive",
        rng=random.Random(seed + 1),
    )
    net.kernel = kernel
    net.hard_faults = HardFaultModel(net, parse_fault_spec(spec))
    if error > 0.0:
        for _, model in net.channel_models():
            model.event_probability = error
            model.relax_factor = 0.5
    if tracer is not None:
        net.attach_tracer(tracer)
    rng = random.Random(seed + 7)
    while net.now < cycles:
        if rng.random() < rate:
            src, dst = rng.randrange(16), rng.randrange(16)
            if src != dst:
                net.inject(Packet(src, dst, 4, 128, net.now))
        net.cycle()
    deadline = net.now + 50_000
    while not net.quiescent and net.now < deadline:
        net.cycle()
    return net


class TestTracingIsBehaviourNeutral:
    def test_network_stats_identical_with_and_without_tracer(self):
        untraced = _network(5, None)
        traced = _network(5, TraceBuffer())
        assert traced.stats.as_dict() == untraced.stats.as_dict()
        assert len(traced.tracer) > 0
        assert traced.tracer.dropped == 0

    def test_full_simulation_result_identical_with_and_without_tracer(self):
        config = scaled_config(
            width=3, height=3, epoch_cycles=100, pretrain_cycles=1_200,
            warmup_cycles=300, fault_spec="router@2000:4",
        )
        untraced = ResumableRun(config, "rl", "swaptions", trace_cycles=300).run()
        run = ResumableRun(config, "rl", "swaptions", trace_cycles=300)
        run.sim.attach_tracer(TraceBuffer())
        assert run.run() == untraced


class TestBenchTracedScenario:
    def test_traced_scenario_matches_chaos_digest(self):
        """The 6 000-cycle chaos workload gives the same stats traced and
        untraced, and both kernels emit the same event stream."""

        def chaos(tracer, kernel="fast"):
            return _network(
                0, tracer, spec=LONG_CHAOS_SPEC, error=0.0, rate=0.1,
                cycles=6_000, kernel=kernel,
            )

        untraced = chaos(None)
        traced = {kernel: chaos(TraceBuffer(), kernel) for kernel in ("fast", "naive")}
        for net in traced.values():
            assert net.stats.as_dict() == untraced.stats.as_dict()
        fast, naive = traced["fast"].tracer, traced["naive"].tracer
        assert fast.digest() == naive.digest()
        assert len(fast) > 0
        assert fast.dropped == 0


def _injector_setup(registry=None, error_scale=1.0):
    net = Network(MeshTopology(4, 4), rng=random.Random(0))
    varius = VariusModel(4, 4, seed=2)
    return FaultInjector(net, varius, error_scale=error_scale, registry=registry)


class TestTallyMigration:
    def test_injector_saturation_lands_in_shared_registry(self):
        registry = MetricRegistry()
        injector = _injector_setup(registry=registry, error_scale=1e9)
        with pytest.warns(RuntimeWarning, match="saturated"):
            injector.refresh([100.0] * 16)
        assert injector.saturation_events > 0
        assert (
            registry.counter("injector.saturation_events").value
            == injector.saturation_events
        )

    def test_injector_without_registry_keeps_private_counter(self):
        injector = _injector_setup(error_scale=1e9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            injector.refresh([100.0] * 16)
        assert injector.saturation_events > 0

    def test_compute_reward_counts_into_the_given_counter(self):
        registry = MetricRegistry()
        counter = registry.counter("reward.guard_clamps")
        reward = compute_reward(float("nan"), float("inf"), counter=counter)
        assert reward == compute_reward(1.0, 1e-6)
        assert counter.value == 2
        assert registry.snapshot()["counters"]["reward.guard_clamps"] == 2

    def test_fresh_simulator_registry_starts_clean(self):
        from repro.sim import Simulator, default_design_factories

        config = scaled_config(width=3, height=3, epoch_cycles=100)
        policy = default_design_factories(0)["rl"]()
        sim = Simulator(config, policy, seed=0)
        counters = sim.metrics.snapshot()["counters"]
        assert counters["reward.guard_clamps"] == 0
        assert counters["injector.saturation_events"] == 0
