"""Tests for simulation configuration (Table II)."""

import random

import pytest

from repro.core.state import DiscretizationConfig
from repro.faults.varius import VariusParams
from repro.noc.packet import FLIT_BITS, PACKET_FLITS
from repro.noc.router import NUM_VCS
from repro.noc.routing import xy_route
from repro.power.orion import CLOCK_HZ, EnergyParams
from repro.sim import SimulationConfig, paper_config, scaled_config
from repro.sim.simulator import build_network
from repro.traffic import BenchmarkProfile, SyntheticTraffic, TraceReplayer


class TestPaperConfig:
    def test_table_ii_values(self):
        config = paper_config()
        assert config.width == 8 and config.height == 8      # 8x8 2D mesh
        assert config.num_nodes == 64                        # 64 cores
        network = build_network(config, random.Random(0))
        router = network.routers[0]
        assert NUM_VCS == router.num_vcs == 4                # 4 VCs per port
        assert DiscretizationConfig().num_vcs == NUM_VCS
        assert FLIT_BITS == network.flit_bits == 128         # 128 bits/flit
        assert PACKET_FLITS == 4                             # 4 flits
        traffic = SyntheticTraffic(network.topology)
        assert (traffic.packet_size, traffic.flit_bits) == (PACKET_FLITS, FLIT_BITS)
        assert TraceReplayer([], network.topology).flit_bits == FLIT_BITS
        assert BenchmarkProfile("any", 0.01).packet_size == PACKET_FLITS
        assert router.routing_fn is xy_route                 # X-Y routing
        assert CLOCK_HZ == EnergyParams().clock_hz == 2.0e9  # 2.0 GHz
        assert VariusParams().v_nominal == 1.0               # 1.0 Volt

    def test_section_v_phases(self):
        config = paper_config()
        assert config.epoch_cycles == 1000        # TD rule every 1K cycles
        assert config.pretrain_cycles == 1_000_000
        assert config.warmup_cycles == 300_000


class TestScaledConfig:
    def test_same_topology_shorter_phases(self):
        config = scaled_config()
        paper = paper_config()
        assert (config.width, config.height) == (paper.width, paper.height)
        assert config.pretrain_cycles < paper.pretrain_cycles
        assert config.warmup_cycles < paper.warmup_cycles

    def test_overrides(self):
        config = scaled_config(width=4, height=4, pretrain_injection_rate=0.03)
        assert config.num_nodes == 16
        assert config.pretrain_injection_rate == 0.03


class TestValidation:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            SimulationConfig(width=1)

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            SimulationConfig(epoch_cycles=0)

    def test_fault_spec_defaults_healthy(self):
        config = SimulationConfig()
        assert config.fault_spec == ""

    def test_frozen(self):
        config = SimulationConfig()
        with pytest.raises(AttributeError):
            config.width = 16
