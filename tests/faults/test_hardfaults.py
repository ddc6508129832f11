"""Tests for the hard-fault spec grammar and the campaign model."""

import random

import pytest

from repro.faults import HardFaultEvent, HardFaultModel, parse_fault_spec
from repro.noc import MeshTopology, Network, Packet, Port


class TestSpecParsing:
    def test_link_clause(self):
        (event,) = parse_fault_spec("link@500:5E")
        assert event.kind == "link"
        assert event.cycle == 500
        assert event.node == 5
        assert event.port is Port.EAST

    def test_router_clause(self):
        (event,) = parse_fault_spec("router@800:7")
        assert (event.kind, event.cycle, event.node) == ("router", 800, 7)

    def test_burst_clause(self):
        (event,) = parse_fault_spec("burst@300+200:0.2")
        assert event.kind == "burst"
        assert event.cycle == 300
        assert event.duration == 200
        assert event.probability == pytest.approx(0.2)

    def test_multi_clause_sorted_by_cycle(self):
        events = parse_fault_spec("router@800:7;link@500:5E;burst@300+200:0.2")
        assert [e.cycle for e in events] == [300, 500, 800]

    def test_round_trip(self):
        """Each event formats back to its own clause, in canonical order
        whatever order the clauses were written in."""
        canonical = ["burst@300+200:0.2", "link@500:5E", "router@800:7"]
        for spec in (";".join(canonical), "router@800:7;burst@300+200:0.2;link@500:5E"):
            assert [event.format() for event in parse_fault_spec(spec)] == canonical

    def test_empty_spec_is_healthy(self):
        assert parse_fault_spec("") == []
        net = _mesh()
        model = HardFaultModel(net, parse_fault_spec(""))
        net.hard_faults = model
        net.run(20)
        assert model.applied == []
        assert model.first_fault_cycle is None

    @pytest.mark.parametrize(
        "bad",
        ["link@500:5X", "link@500", "router@:7", "burst@300:0.2",
         "burst@300+0:0.2", "burst@300+10:1.5", "fire@500:5E", "link@-2:5E"],
    )
    def test_bad_clauses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


def _mesh(routing="adaptive", **kwargs):
    return Network(
        MeshTopology(4, 4), routing=routing, rng=random.Random(0), **kwargs
    )


class TestModel:
    def test_link_kill_applies_at_cycle(self):
        net = _mesh()
        model = HardFaultModel(net, parse_fault_spec("link@10:5E"))
        net.hard_faults = model
        net.run(10)
        assert net.channels[(5, Port.EAST)].alive
        net.run(1)
        assert not net.channels[(5, Port.EAST)].alive
        assert net.stats.link_kills == 1
        assert model.applied == [("link@10:5E", 10)]
        assert model.first_fault_cycle == 10

    def test_router_kill(self):
        net = _mesh()
        model = HardFaultModel(net, parse_fault_spec("router@5:5"))
        net.hard_faults = model
        net.run(20)
        assert net.stats.router_kills == 1
        assert 5 in net.fault_state.dead_nodes
        assert not net.interfaces[5].alive

    def test_burst_raises_then_restores(self):
        net = _mesh()
        for _, em in net.channel_models():
            em.event_probability = 0.01
        model = HardFaultModel(net, parse_fault_spec("burst@5+10:0.3"))
        net.hard_faults = model
        net.run(6)
        probs = {em.event_probability for _, em in net.channel_models()}
        assert probs == {0.3}
        net.run(20)
        probs = {em.event_probability for _, em in net.channel_models()}
        assert probs == {0.01}

    def test_overlapping_events_idempotent(self):
        # A router kill implies its link kills; re-killing is a no-op.
        net = _mesh()
        spec = "link@5:5E;router@6:5;link@7:5E;router@8:5"
        net.hard_faults = HardFaultModel(net, parse_fault_spec(spec))
        net.run(20)
        assert net.stats.router_kills == 1

    @pytest.mark.parametrize("spec", [
        "router@150:42", "router@150:-1", "link@100:42E", "link@100:3E", "link@100:0S",
    ])
    def test_missing_target_rejected(self, spec):
        """A kill naming a router outside the 4x4 mesh, or a link at its
        edge, is refused before anything runs."""
        kind = spec.split("@")[0]
        message = f"bad fault clause '{spec}': the 4x4 mesh has no such {kind}"
        with pytest.raises(ValueError, match=message):
            HardFaultModel(_mesh(), parse_fault_spec(spec))

    def test_post_fault_latency_split(self):
        net = _mesh()
        model = HardFaultModel(net, parse_fault_spec("link@60:5E"))
        net.hard_faults = model
        mid = 0
        rng = random.Random(3)
        for _ in range(400):
            if rng.random() < 0.3:
                src, dst = rng.randrange(16), rng.randrange(16)
                if src != dst:
                    net.inject(Packet(src, dst, 4, net.flit_bits, net.now, message_id=mid))
                    mid += 1
            net.cycle()
        while not net.quiescent:
            net.cycle()
        assert model.pre_fault_latency > 0.0
        assert model.post_fault_latency > 0.0
        # The overall mean is a mixture of the two phases.
        overall = net.stats.latency.mean
        lo = min(model.pre_fault_latency, model.post_fault_latency)
        hi = max(model.pre_fault_latency, model.post_fault_latency)
        assert lo <= overall <= hi
