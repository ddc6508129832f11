"""Integration tests for platform variants beyond the paper's defaults:
alternate packet geometry, and synthesized traces replayed through a
live simulation."""

import random

import pytest

from repro.baselines import crc_policy
from repro.core.modes import OperationMode
from repro.noc import MeshTopology, Network, Packet
from repro.power import CorePowerParams
from repro.sim import Simulator, scaled_config
from repro.traffic import ParsecTraceSynthesizer, PARSEC_PROFILES


def run_uniform(net, n_packets=100, seed=5, size=4):
    rng = random.Random(seed)
    n = net.topology.num_nodes
    created = 0
    while created < n_packets or not net.quiescent:
        if created < n_packets and net.now % 2 == 0:
            src, dst = rng.randrange(n), rng.randrange(n)
            if src != dst:
                net.inject(Packet(src, dst, size, net.flit_bits, net.now))
                created += 1
        net.cycle()
        assert net.now < 100_000
    net.harvest_epoch_counters()
    return net.stats


class TestPacketGeometry:
    @pytest.mark.parametrize("size,bits", [(1, 32), (2, 64), (8, 128)])
    def test_alternate_packet_shapes(self, size, bits):
        net = Network(MeshTopology(3, 3), flit_bits=bits, rng=random.Random(4))
        net.set_all_modes(OperationMode.MODE_2)
        for _, model in net.channel_models():
            model.event_probability = 0.05
        stats = run_uniform(net, 60, size=size)
        assert stats.packets_delivered == 60
        assert stats.flits_delivered == 60 * size


class TestTraceReplay:
    def test_synthesized_trace_replays_to_completion(self):
        config = scaled_config(
            width=3, height=3, epoch_cycles=100, pretrain_cycles=0, warmup_cycles=0
        )
        topo = MeshTopology(3, 3)
        records = ParsecTraceSynthesizer(
            PARSEC_PROFILES["dedup"], topo, random.Random(6)
        ).synthesize(500)
        sim = Simulator(config, crc_policy(), seed=6)
        result = sim.measure_trace(records, "dedup")
        assert result.packets_delivered == len(records)


class TestCorePowerParams:
    def test_monotone_and_capped(self):
        params = CorePowerParams()
        assert params.core_power(0.0) == params.idle_watts
        assert params.core_power(0.1) > params.core_power(0.0)
        assert params.core_power(10.0) == params.max_watts

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            CorePowerParams().core_power(-0.1)
