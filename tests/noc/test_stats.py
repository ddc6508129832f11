"""Tests for statistics counters and the latency accumulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import LatencyAccumulator, NetworkStats, RouterEpochStats


class TestLatencyAccumulator:
    def test_empty(self):
        acc = LatencyAccumulator()
        assert acc.count == 0
        assert acc.mean == 0.0

    def test_basic_statistics(self):
        acc = LatencyAccumulator()
        for v in (10, 20, 30):
            acc.record(v)
        assert acc.count == 3
        assert acc.mean == 20.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyAccumulator().record(-1)


class TestRouterEpochStats:
    def test_reset_zeroes_everything(self):
        epoch = RouterEpochStats()
        epoch.flits_in[1] = 5
        epoch.corrected_errors = 3
        epoch.core_activity_flits = 9
        epoch.reset()
        assert epoch.flits_in == [0] * 5
        assert epoch.corrected_errors == 0
        assert epoch.core_activity_flits == 0

    def test_utilization_per_cycle(self):
        epoch = RouterEpochStats()
        epoch.flits_in[2] = 50
        epoch.flits_out[3] = 25
        assert epoch.input_link_utilization(100)[2] == 0.5
        assert epoch.output_link_utilization(100)[3] == 0.25

    def test_nack_rates_guard_division(self):
        epoch = RouterEpochStats()
        assert epoch.input_nack_rate() == [0.0] * 5
        epoch.flits_out[1] = 10
        epoch.nacks_in[1] = 2
        assert epoch.input_nack_rate()[1] == 0.2
        epoch.flits_in[4] = 4
        epoch.nacks_out[4] = 1
        assert epoch.output_nack_rate()[4] == 0.25

    def test_mean_delivered_latency_default(self):
        epoch = RouterEpochStats()
        assert epoch.mean_delivered_latency(42.0) == 42.0
        epoch.delivered_latency_total = 60
        epoch.delivered_packets = 3
        assert epoch.mean_delivered_latency(42.0) == 20.0


class TestNetworkStats:
    def test_retransmission_events_combines_both(self):
        stats = NetworkStats()
        stats.packet_retransmissions = 3
        stats.flit_retransmissions = 7
        assert stats.retransmission_events == 10

    def test_throughput(self):
        stats = NetworkStats()
        stats.cycles = 100
        stats.flits_delivered = 25
        assert stats.throughput == 0.25

    def test_as_dict_complete(self):
        d = NetworkStats().as_dict()
        for key in (
            "cycles",
            "packets_delivered",
            "retransmission_events",
            "silent_corruptions",
            "mean_latency",
            "throughput",
        ):
            assert key in d


@settings(max_examples=100)
@given(values=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1))
def test_property_accumulator_consistency(values):
    acc = LatencyAccumulator()
    for v in values:
        acc.record(v)
    assert acc.count == len(values)
    assert acc.total == sum(values)
    assert acc.mean == pytest.approx(sum(values) / len(values))
