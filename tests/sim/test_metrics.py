"""Tests for run metrics and stat snapshots."""

import pytest

from repro.noc.stats import NetworkStats
from repro.sim.metrics import RunResult, StatsSnapshot


def make_result(**overrides):
    defaults = dict(
        design="rl",
        benchmark="ferret",
        execution_cycles=10_000,
        mean_latency=25.0,
        packets_delivered=500,
        flits_delivered=2000,
        packet_retransmissions=10,
        flit_retransmissions=40,
        corrected_errors=30,
        escaped_errors=5,
        silent_corruptions=0,
        duplicate_flits=100,
        dynamic_energy_pj=1.0e6,
        static_energy_pj=5.0e5,
    )
    defaults.update(overrides)
    return RunResult(**defaults)


class TestRunResult:
    def test_retransmission_events_is_fig6_metric(self):
        assert make_result().retransmission_events == 50

    def test_total_energy(self):
        assert make_result().total_energy_pj == 1.5e6

    def test_execution_seconds(self):
        # 10K cycles at 2 GHz = 5 microseconds.
        assert make_result().execution_seconds == pytest.approx(5e-6)

    def test_energy_efficiency_flits_per_microjoule(self):
        r = make_result()
        assert r.energy_efficiency == pytest.approx(2000 / (1.5e6 * 1e-6))

    def test_dynamic_power(self):
        r = make_result()
        # 1e6 pJ = 1e-6 J over 5 us = 0.2 W.
        assert r.dynamic_power_watts == pytest.approx(0.2)

    def test_zero_guards(self):
        r = make_result(execution_cycles=0, dynamic_energy_pj=0.0, static_energy_pj=0.0)
        assert r.energy_efficiency == 0.0
        assert r.dynamic_power_watts == 0.0
        assert r.total_power_watts == 0.0

    def test_as_dict_round_numbers(self):
        d = make_result().as_dict()
        assert d["design"] == "rl"
        assert d["retransmission_events"] == 50
        assert "energy_efficiency" in d and "dynamic_power_watts" in d


class TestStatsSnapshot:
    def test_delta_isolates_window(self):
        stats = NetworkStats()
        stats.packets_delivered = 10
        stats.flit_retransmissions = 3
        stats.latency.record(20)
        before = StatsSnapshot(stats)

        stats.packets_delivered = 25
        stats.flit_retransmissions = 9
        stats.latency.record(40)
        stats.latency.record(60)
        stats.mode_cycles[2] += 500
        after = StatsSnapshot(stats)

        window = before.delta(after)
        assert window["packets_delivered"] == 15
        assert window["flit_retransmissions"] == 6
        assert after.latency_count - before.latency_count == 2
        assert window["mean_latency"] == pytest.approx(50.0)
        assert window["mode_cycles"][2] == 500
        assert window["mode_cycles"][0] == 0

    def test_empty_window(self):
        stats = NetworkStats()
        snap = StatsSnapshot(stats)
        window = snap.delta(StatsSnapshot(stats))
        assert window["mean_latency"] == 0.0
        assert window["packets_delivered"] == 0
