"""Tests for network interfaces: CRC protection and source retransmission."""

import random

import pytest

from repro.noc import MeshTopology, Network, Packet


def make_network(seed=0):
    return Network(MeshTopology(4, 4), rng=random.Random(seed))


class TestSourceSide:
    def test_enqueue_computes_crc(self):
        net = make_network()
        p = Packet(0, 5, 2, 128, 0, payloads=[7, 9])
        net.inject(p)
        assert p.crc_check is not None
        ni = net.interfaces[0]
        assert ni.outstanding_messages == 1
        assert ni.inject_backlog == 1

    def test_message_ids_follow_the_networks_creation_order(self):
        Packet(0, 1, 1, 128, 0)  # built elsewhere in the process, never sent
        net = make_network()
        packets = [Packet(src, 5, 1, 128, 0) for src in (0, 1, 2)]
        for packet in packets:
            net.inject(packet)
        assert [p.message_id for p in packets] == [0, 1, 2]
        given = Packet(3, 5, 1, 128, 0, message_id=7)
        net.inject(given)
        assert given.message_id == 7

    def test_enqueue_rejects_wrong_source(self):
        net = make_network()
        with pytest.raises(ValueError, match="does not match"):
            net.interfaces[3].enqueue(Packet(0, 5, 1, 128, 0))

    def test_injection_is_one_flit_per_cycle(self):
        net = make_network()
        net.inject(Packet(0, 5, 4, 128, 0))
        ni = net.interfaces[0]
        router = net.routers[0]
        for expected in (1, 2, 3, 4):
            ni.step_inject(net.now)
            assert router.epoch.flits_in[0] == expected
            net.now += 1

    def test_release_clears_store(self):
        net = make_network()
        p = Packet(0, 5, 1, 128, 0)
        net.inject(p)
        net.interfaces[0].release(p.message_id)
        assert net.interfaces[0].outstanding_messages == 0


class TestRetransmissionRequest:
    def test_stale_request_ignored(self):
        net = make_network()
        p = Packet(0, 5, 1, 128, 0)
        net.inject(p)
        ni = net.interfaces[0]
        ni.release(p.message_id)  # delivered meanwhile
        ni.schedule_retransmission(p.message_id, due_cycle=0)
        ni.step_inject(0)
        assert ni.inject_backlog <= 1  # no clone materialized

    def test_request_clones_and_requeues_at_front(self):
        net = make_network()
        p = Packet(0, 5, 2, 128, 0, payloads=[1, 2])
        p2 = Packet(0, 7, 2, 128, 0, payloads=[3, 4])
        ni = net.interfaces[0]
        ni.enqueue(p)
        ni.enqueue(p2)
        ni.schedule_retransmission(p.message_id, due_cycle=0)
        ni.step_inject(0)
        # The clone jumped the queue; the in-progress packet is the clone.
        assert ni._current.message_id == p.message_id
        assert ni._current.retransmission == 1

    def test_end_to_end_recovery_under_certain_errors(self):
        """With errors guaranteed on every hop and no ECC, packets still
        deliver eventually through source retransmission... unless errors
        are permanent.  Use a burst of errors then a clean network."""
        net = make_network(seed=3)
        for _, model in net.channel_models():
            model.event_probability = 0.5
        net.inject(Packet(0, 3, 2, 128, 0, payloads=[5, 6]))
        for _ in range(60):
            net.cycle()
        # Clear the fault burst; recovery must complete.
        for _, model in net.channel_models():
            model.event_probability = 0.0
        net.drain(max_cycles=20_000)
        assert net.stats.packets_delivered >= 1
        assert net.stats.crc_failures + net.stats.packet_retransmissions >= 0


class TestDestinationSide:
    def test_latency_counts_from_creation(self):
        net = make_network()
        packet = Packet(0, 1, 1, 128, 0)
        net.inject(packet)
        net.drain(max_cycles=200)
        assert net.stats.latency.count == 1
        assert net.stats.latency.total >= 1

    def test_path_attribution_to_routers(self):
        net = make_network()
        net.inject(Packet(0, 3, 1, 128, 0))
        net.drain(max_cycles=500)
        # XY path 0->1->2->3: all four routers saw the delivered packet.
        for rid in (0, 1, 2, 3):
            assert net.routers[rid].epoch.delivered_packets == 1
        assert net.routers[4].epoch.delivered_packets == 0

    def test_core_activity_counts_unique_work_only(self):
        net = make_network()
        p = Packet(0, 1, 2, 128, 0)
        net.inject(p)
        net.drain(max_cycles=200)
        # Source counted 2 injected flits; destination counted 2 delivered.
        assert net.routers[0].epoch.core_activity_flits == 2
        assert net.routers[1].epoch.core_activity_flits == 2
