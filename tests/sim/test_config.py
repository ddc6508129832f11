"""Tests for simulation configuration (Table II)."""

import pytest

from repro.sim import SimulationConfig, paper_config, scaled_config


class TestPaperConfig:
    def test_table_ii_values(self):
        config = paper_config()
        assert config.width == 8 and config.height == 8      # 8x8 2D mesh
        assert config.num_nodes == 64                        # 64 cores
        assert config.num_vcs == 4                           # 4 VCs per port
        assert config.flit_bits == 128                       # 128 bits/flit
        assert config.packet_size == 4                       # 4 flits
        assert config.routing == "xy"                        # X-Y routing
        assert config.clock_hz == 2.0e9                      # 2.0 GHz
        assert config.voltage == 1.0                         # 1.0 Volt

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
        config = scaled_config(width=4, height=4, error_scale=2.0)
        assert config.num_nodes == 16
        assert config.error_scale == 2.0


class TestValidation:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            SimulationConfig(width=1)

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            SimulationConfig(epoch_cycles=0)

    def test_rejects_bad_packet_size(self):
        with pytest.raises(ValueError):
            SimulationConfig(packet_size=0)

    def test_rejects_unknown_routing(self):
        for routing in ("adaptive-zigzag", "yx", "o1turn"):
            with pytest.raises(ValueError) as err:
                SimulationConfig(routing=routing)
            assert str(err.value) == (
                f"unknown routing {routing!r}; pick one of adaptive, xy"
            )

    @pytest.mark.parametrize("routing", ["xy", "adaptive"])
    def test_accepts_registered_routings(self, routing):
        assert SimulationConfig(routing=routing).routing == routing

    def test_rejects_negative_watchdog_interval(self):
        with pytest.raises(ValueError):
            SimulationConfig(watchdog_interval=-1)

    def test_fault_spec_defaults_healthy(self):
        config = SimulationConfig()
        assert config.fault_spec == ""
        assert config.watchdog_interval == 256

    def test_frozen(self):
        config = SimulationConfig()
        with pytest.raises(AttributeError):
            config.width = 16
