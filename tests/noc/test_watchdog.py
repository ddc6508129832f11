"""Tests for the runtime invariant watchdogs."""

import random

import pytest

from repro.noc import (
    ConservationError,
    DeadlockError,
    LivelockError,
    MeshTopology,
    Network,
    Packet,
    Port,
)


def _mesh(routing="xy", **kwargs):
    return Network(
        MeshTopology(4, 4), routing=routing, rng=random.Random(0), **kwargs
    )


class TestWiring:
    def test_enabled_by_default(self):
        net = _mesh()
        assert net.watchdog is not None
        assert net.watchdog.interval == 256

    def test_interval_zero_disables(self):
        net = _mesh(watchdog_interval=0)
        assert net.watchdog is None
        net.run(600)  # no watchdog, no crash

    def test_polled_on_interval(self):
        net = _mesh(watchdog_interval=16)
        net.run(64)
        assert net.watchdog.checks == 4


class TestConservation:
    def test_healthy_traffic_passes(self):
        net = _mesh(watchdog_interval=8)
        rng = random.Random(1)
        for i in range(500):
            if rng.random() < 0.2:
                src, dst = rng.randrange(16), rng.randrange(16)
                if src != dst:
                    net.inject(Packet(src, dst, 4, net.flit_bits, net.now, message_id=i))
            net.cycle()
        assert net.watchdog.checks > 0

    def test_tampered_counter_raises(self):
        net = _mesh(watchdog_interval=8)
        net.stats.messages_created += 3  # phantom messages
        with pytest.raises(ConservationError) as err:
            net.run(8)
        report = err.value.report
        assert report["kind"] == "conservation"
        assert report["messages_created"] == 3
        assert report["outstanding"] == 0


class TestDeadlock:
    def test_wedged_message_raises_within_window(self):
        net = _mesh(watchdog_interval=8, deadlock_cycles=64)
        ni = net.interfaces[0]
        net.inject(Packet(0, 5, 4, net.flit_bits, 0, message_id=1))
        # Simulate a wedged protocol: the message is outstanding at the
        # source but its flits will never enter the network.
        ni._inject_queue.clear()
        with pytest.raises(DeadlockError) as err:
            net.run(256)
        assert err.value.report["kind"] == "deadlock"
        assert err.value.report["outstanding"] == 1
        # Tripped within one watchdog poll after the detection window.
        assert net.now <= 64 + 8

    def test_structured_report_lists_stuck_vcs(self):
        net = _mesh(watchdog_interval=8, deadlock_cycles=32)
        net.inject(Packet(0, 5, 4, net.flit_bits, 0, message_id=1))
        # Let the head enter the local VC, then freeze the router so the
        # worm wedges inside the pipeline.
        net.run(2)
        net.routers[0].step = lambda now: None
        with pytest.raises(DeadlockError) as err:
            net.run(256)
        stuck = err.value.report["stuck"]
        assert any(entry.get("router") == 0 for entry in stuck)
        assert any(
            entry.get("packet", {}) and entry["packet"]["message_id"] == 1
            for entry in stuck
            if entry.get("packet")
        )


class TestLivelock:
    def test_overaged_message_raises(self):
        net = _mesh(watchdog_interval=8, deadlock_cycles=10**9, max_packet_age=100)
        ni = net.interfaces[0]
        net.inject(Packet(0, 5, 4, net.flit_bits, 0, message_id=1))
        ni._inject_queue.clear()
        with pytest.raises(LivelockError) as err:
            net.run(512)
        report = err.value.report
        assert report["kind"] == "livelock"
        assert report["overage_messages"][0]["message_id"] == 1

    def test_age_zero_disables_livelock_only(self):
        net = _mesh(watchdog_interval=8, deadlock_cycles=10**9, max_packet_age=0)
        ni = net.interfaces[0]
        net.inject(Packet(0, 5, 4, net.flit_bits, 0, message_id=1))
        ni._inject_queue.clear()
        net.run(512)  # neither deadlock (huge window) nor livelock fires


class TestUnreachable:
    @staticmethod
    def _isolate_node_zero(net):
        # Corner node 0 touches exactly two bidirectional links.
        net.kill_link(0, Port.EAST)
        net.kill_link(0, Port.NORTH)
        net.kill_link(1, Port.WEST)
        net.kill_link(4, Port.SOUTH)

    def test_drop_mode_counts_and_conserves(self):
        net = _mesh(routing="adaptive", watchdog_interval=8)
        self._isolate_node_zero(net)
        net.inject(Packet(5, 0, 4, net.flit_bits, net.now, message_id=1))
        net.run(256)
        assert net.stats.unreachable_drops == 1
        assert net.stats.messages_dropped == 1
        assert net.quiescent
