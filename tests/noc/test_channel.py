"""Tests for channels, transmissions, and the channel error model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Channel, ChannelErrorModel, MeshTopology, Packet, Transmission
from repro.noc.topology import ChannelSpec, Port


def make_channel(latency=1, p=0.0, severity=(0.33, 0.47, 0.20), seed=0):
    spec = ChannelSpec(0, Port.EAST, 1, Port.WEST)
    model = ChannelErrorModel(random.Random(seed), 128, p, severity)
    return Channel(spec, latency, model)


def flit():
    return Packet(0, 1, 1, 128, 0).flits[0]


class TestErrorModel:
    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            ChannelErrorModel(rng, 128, event_probability=1.5)
        with pytest.raises(ValueError):
            ChannelErrorModel(rng, 128, severity=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            ChannelErrorModel(rng, 128, severity=(-0.1, 0.9, 0.2))

    def test_zero_probability_never_errors(self):
        model = ChannelErrorModel(random.Random(1), 128, 0.0)
        assert all(model.sample_error_bits(False) == 0 for _ in range(500))

    def test_certain_probability_always_errors(self):
        model = ChannelErrorModel(random.Random(1), 128, 1.0)
        assert all(model.sample_error_bits(False) >= 1 for _ in range(200))

    def test_severity_mix_statistics(self):
        model = ChannelErrorModel(
            random.Random(2), 128, 1.0, severity=(0.5, 0.3, 0.2)
        )
        counts = {1: 0, 2: 0, 3: 0}
        n = 3000
        for _ in range(n):
            counts[model.sample_error_bits(False)] += 1
        assert abs(counts[1] / n - 0.5) < 0.05
        assert abs(counts[2] / n - 0.3) < 0.05
        assert abs(counts[3] / n - 0.2) < 0.05

    def test_relaxation_scales_probability(self):
        model = ChannelErrorModel(
            random.Random(3), 128, 0.5, relax_factor=0.0
        )
        assert all(model.sample_error_bits(True) == 0 for _ in range(300))
        assert any(model.sample_error_bits(False) > 0 for _ in range(100))

    def test_mask_has_exact_weight(self):
        model = ChannelErrorModel(random.Random(4), 128, 1.0)
        for k in (1, 2, 3):
            mask = model.sample_mask(k)
            assert bin(mask).count("1") == k
            assert mask < (1 << 128)


class TestChannel:
    def test_rejects_zero_latency(self):
        spec = ChannelSpec(0, Port.EAST, 1, Port.WEST)
        with pytest.raises(ValueError):
            Channel(spec, 0, ChannelErrorModel(random.Random(0), 128))

    def test_data_delivery_at_arrival_time(self):
        ch = make_channel()
        t = Transmission(flit(), None, 0, False, False, False, arrive_at=5)
        ch.send(t)
        assert ch.pop_arrivals(4) == []
        assert ch.pop_arrivals(5) == [t]
        assert ch.pop_arrivals(5) == []  # consumed
        assert not ch.busy

    def test_arrivals_sorted_by_time(self):
        ch = make_channel()
        late = Transmission(flit(), None, 0, False, False, False, arrive_at=7)
        early = Transmission(flit(), None, 0, False, False, False, arrive_at=5)
        ch.send(late)
        ch.send(early)
        assert ch.pop_arrivals(10) == [early, late]

    def test_ack_and_credit_sideband(self):
        """One-cycle sideband: a pop returns everything sent before it, in
        send order; an ACK travels as ``seq`` and a NACK as ``~seq``."""
        ch = make_channel()
        ch.send_ack(3)
        ch.send_credit(1)
        ch.send_ack(~4)
        ch.send_credit(0)
        assert ch.pop_acks() == [3, ~4]
        assert ch.pop_credits() == [1, 0]
        assert ch.pop_acks() == [] and ch.pop_credits() == []
        assert not ch.busy
        ch.send_credit(2)
        assert ch.pop_credits() == [2]

    def test_busy_reflects_any_traffic(self):
        ch = make_channel()
        assert not ch.busy
        ch.send_credit(0)
        assert ch.busy
        ch.pop_credits()
        assert not ch.busy


class TestTransmission:
    def test_fields(self):
        f = flit()
        t = Transmission(f, 9, 2, True, True, False, 11, paired=True)
        assert t.flit is f
        assert t.seq == 9 and t.vc == 2
        assert t.protected and t.relaxed and not t.duplicate and t.paired


@settings(max_examples=80)
@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    relaxed=st.booleans(),
)
def test_property_error_bits_in_range(p, relaxed):
    model = ChannelErrorModel(random.Random(5), 64, p)
    for _ in range(20):
        bits = model.sample_error_bits(relaxed)
        assert bits in (0, 1, 2, 3)


class TestSkipSampling:
    """The geometric skip-sampler must be a faithful Bernoulli stream."""

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.sampled_from([0.005, 0.02, 0.05, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_event_rate_matches_bernoulli(self, p, seed):
        """Observed event frequency ~ Binomial(n, p) within 5 sigma."""
        n = max(4_000, int(60 / p))
        model = ChannelErrorModel(random.Random(seed), 64, p)
        events = sum(1 for _ in range(n) if model.sample_error_bits(False))
        sigma = (n * p * (1.0 - p)) ** 0.5
        assert abs(events - n * p) < 5.0 * sigma + 1.0

    def test_gap_lengths_are_geometric(self):
        """Mean clean-run length ~ (1-p)/p, the geometric mean gap."""
        p = 0.05
        model = ChannelErrorModel(random.Random(11), 64, p)
        gaps, current = [], 0
        for _ in range(200_000):
            if model.sample_error_bits(False):
                gaps.append(current)
                current = 0
            else:
                current += 1
        mean_gap = sum(gaps) / len(gaps)
        expected = (1.0 - p) / p
        assert abs(mean_gap - expected) < 0.05 * expected + 0.5

    def test_probability_refresh_keeps_memoryless_countdown(self):
        """Setting the same p must not redraw (epoch refresh is a no-op)."""
        model = ChannelErrorModel(random.Random(3), 64, 0.1)
        model.sample_error_bits(False)  # force the countdown to exist
        before = model._gap
        model.set_probabilities(0.1, model.relax_factor)
        assert model._gap == before
        model.set_probabilities(0.2, model.relax_factor)
        assert model._gap is None  # an actual change invalidates it

    def test_pickle_roundtrip_preserves_stream(self):
        """A snapshot mid-stream must continue bit-identically."""
        import pickle

        model = ChannelErrorModel(random.Random(17), 64, 0.08)
        for _ in range(137):
            model.sample_error_bits(False)
            model.sample_error_bits(True)
        clone = pickle.loads(pickle.dumps(model))
        for _ in range(500):
            assert clone.sample_error_bits(False) == model.sample_error_bits(False)
            assert clone.sample_error_bits(True) == model.sample_error_bits(True)
