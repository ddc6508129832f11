"""Network-level integration tests: delivery, recovery, conservation.

These run real traffic through small meshes and assert the end-to-end
guarantees every fault-tolerant configuration must uphold: every message
is eventually delivered with correct payload accounting, credits are
conserved, and each operation mode exhibits its documented behaviour.
"""

import random

import pytest

from repro.core.modes import OperationMode
from repro.noc import MeshTopology, Network, Packet, Port


def make_network(size=4, mode=OperationMode.MODE_0, error=0.0, seed=11, **kwargs):
    net = Network(MeshTopology(size, size), rng=random.Random(seed), **kwargs)
    net.set_all_modes(mode)
    for _, model in net.channel_models():
        model.event_probability = error
    return net


def run_random_traffic(net, n_packets, seed=3, rate=2, size=4, max_cycles=200_000):
    """Inject uniform-random traffic and drain; returns total cycles."""
    rng = random.Random(seed)
    n = net.topology.num_nodes
    created = 0
    while created < n_packets or not net.quiescent:
        if created < n_packets and net.now % rate == 0:
            src = rng.randrange(n)
            dst = rng.randrange(n)
            if src != dst:
                net.inject(
                    Packet(
                        src,
                        dst,
                        size,
                        net.flit_bits,
                        net.now,
                        payloads=[rng.getrandbits(net.flit_bits) for _ in range(size)],
                    )
                )
                created += 1
        net.cycle()
        if net.now > max_cycles:
            raise AssertionError("network failed to drain")
    net.harvest_epoch_counters(1)
    return net.now


class TestCleanDelivery:
    def test_single_packet_latency_is_plausible(self):
        net = make_network()
        net.inject(Packet(0, 15, 4, 128, 0, payloads=[1, 2, 3, 4]))
        net.drain(max_cycles=500)
        assert net.stats.packets_delivered == 1
        # 6 hops x ~5 cycles/hop plus 3 extra flits of serialization.
        assert 20 <= net.stats.mean_latency <= 60

    def test_neighbour_packet_is_fast(self):
        net = make_network()
        net.inject(Packet(0, 1, 1, 128, 0, payloads=[42]))
        net.drain(max_cycles=100)
        assert net.stats.mean_latency <= 12

    @pytest.mark.parametrize("mode", list(OperationMode))
    def test_all_modes_deliver_everything_clean(self, mode):
        net = make_network(mode=mode)
        run_random_traffic(net, 150)
        assert net.stats.packets_delivered == 150
        assert net.stats.packets_injected == 150
        assert net.stats.retransmission_events == 0
        assert net.stats.crc_failures == 0

    def test_mode_latency_ordering_clean(self):
        """Without errors, heavier modes cost latency: 0 <= 1 <= 2 <= 3."""
        latencies = []
        for mode in OperationMode:
            net = make_network(mode=mode)
            run_random_traffic(net, 150)
            latencies.append(net.stats.mean_latency)
        assert latencies[0] <= latencies[1] <= latencies[2] <= latencies[3]

    def test_flits_delivered_accounting(self):
        net = make_network()
        run_random_traffic(net, 50, size=4)
        assert net.stats.flits_delivered == 50 * 4


class TestFaultyDelivery:
    @pytest.mark.parametrize("mode", list(OperationMode))
    @pytest.mark.parametrize("error", [0.02, 0.1])
    def test_all_modes_deliver_everything_under_errors(self, mode, error):
        net = make_network(mode=mode, error=error)
        run_random_traffic(net, 120)
        assert net.stats.packets_delivered == 120

    def test_mode0_errors_cause_packet_retransmissions(self):
        net = make_network(mode=OperationMode.MODE_0, error=0.05)
        run_random_traffic(net, 150)
        assert net.stats.packet_retransmissions > 0
        assert net.stats.flit_retransmissions == 0  # no ARQ in mode 0

    def test_mode1_corrects_singles_and_nacks_doubles(self):
        net = make_network(mode=OperationMode.MODE_1, error=0.1)
        run_random_traffic(net, 150)
        assert net.stats.corrected_errors > 0
        assert net.stats.flit_retransmissions > 0
        # Per-hop recovery must beat end-to-end recovery by a wide margin.
        assert net.stats.packet_retransmissions < net.stats.flit_retransmissions

    def test_mode2_reduces_retransmissions_vs_mode1(self):
        results = {}
        for mode in (OperationMode.MODE_1, OperationMode.MODE_2):
            net = make_network(mode=mode, error=0.1)
            run_random_traffic(net, 200)
            results[mode] = net.stats.retransmission_events
        assert results[OperationMode.MODE_2] < results[OperationMode.MODE_1]

    def test_mode2_generates_duplicates(self):
        net = make_network(mode=OperationMode.MODE_2, error=0.0)
        run_random_traffic(net, 50)
        assert net.stats.duplicate_flits > 0

    def test_mode3_eliminates_retransmissions(self):
        net = make_network(mode=OperationMode.MODE_3, error=0.2, relax_factor=0.0)
        run_random_traffic(net, 150)
        assert net.stats.retransmission_events == 0
        assert net.stats.corrected_errors == 0

    def test_mode0_latency_collapses_under_high_error(self):
        clean = make_network(mode=OperationMode.MODE_0, error=0.0)
        run_random_traffic(clean, 100)
        faulty = make_network(mode=OperationMode.MODE_0, error=0.15)
        run_random_traffic(faulty, 100)
        assert faulty.stats.mean_latency > 2 * clean.stats.mean_latency


class TestConservation:
    @pytest.mark.parametrize("mode", list(OperationMode))
    def test_credits_fully_restored_after_drain(self, mode):
        net = make_network(mode=mode, error=0.08)
        run_random_traffic(net, 150)
        for router in net.routers:
            for port, link in router.outputs.items():
                assert link.credits == [net.routers[0].vc_depth] * router.num_vcs, (
                    f"router {router.id} port {Port(port).name} leaked credits"
                )

    @pytest.mark.parametrize("mode", list(OperationMode))
    def test_no_stale_state_after_drain(self, mode):
        net = make_network(mode=mode, error=0.08)
        run_random_traffic(net, 150)
        for router in net.routers:
            assert router.is_idle, f"router {router.id} not idle after drain"
            for link in router.outputs.values():
                assert not any(link.vc_allocated)

    def test_payload_integrity_end_to_end(self):
        """Every delivered packet's received payload matches what was sent
        (single-bit errors corrected in flight leave no trace)."""
        net = make_network(mode=OperationMode.MODE_1, error=0.1)
        delivered = []
        original_finish = net.interfaces[0].__class__._finish_packet

        def spy(self, packet, now):
            delivered.append(packet)
            original_finish(self, packet, now)

        for ni in net.interfaces:
            ni._finish_packet = spy.__get__(ni)
        run_random_traffic(net, 100)
        assert delivered
        clean = [p for p in delivered if not any(f.error_mask for f in p.flits)]
        for packet in clean:
            assert packet.combined_payload(received=True) == packet.combined_payload()


class TestSideband:
    def test_credit_is_usable_one_cycle_after_return(self):
        """The credit wire is one cycle long: a credit the downstream
        router returns in cycle t first lets the upstream router's SA
        send in cycle t+1.  Router 0 steps before router 1 within a
        cycle, so with a single one-flit VC on the 1 -> 0 link every send
        after the first waits on the credit of the flit before it."""
        net = Network(MeshTopology(2, 2), num_vcs=1, vc_depth=1)
        channel = net.channels[(1, Port.WEST)]
        upstream = net.routers[1]
        net.inject(Packet(1, 0, 4, 128, 0))
        credit_cycles, send_cycles = [], []
        while not net.quiescent:
            now, sent = net.now, upstream.epoch.flits_out[int(Port.WEST)]
            net.cycle()
            if channel.has_pending_credits:  # returned during this cycle
                credit_cycles.append(now)
                assert upstream.outputs[int(Port.WEST)].credits == [0]
            if upstream.epoch.flits_out[int(Port.WEST)] > sent:
                send_cycles.append(now)
            assert net.now < 200, "packet failed to deliver"
        assert len(send_cycles) == 4 and len(credit_cycles) == 4
        assert send_cycles[1:] == [t + 1 for t in credit_cycles[:3]]


class TestModeSwitching:
    def test_switch_requires_drain_when_disabling_ecc(self):
        net = make_network(mode=OperationMode.MODE_1, error=0.0)
        rng = random.Random(5)
        for _ in range(10):
            src, dst = rng.randrange(16), rng.randrange(16)
            if src != dst:
                net.inject(Packet(src, dst, 4, 128, 0))
        for _ in range(6):
            net.cycle()
        # Mid-flight, ask every router to drop to mode 0.
        net.set_all_modes(OperationMode.MODE_0)
        busy = [r for r in net.routers if not r._arq_quiescent()]
        assert busy, "expected in-flight protected flits"
        assert any(r.mode is OperationMode.MODE_1 for r in busy)
        net.drain(max_cycles=10_000)
        for _ in range(8):
            net.cycle()  # let deferred switches apply
        assert all(r.mode is OperationMode.MODE_0 for r in net.routers)
        assert net.stats.packets_delivered == 10

    def test_switch_between_protected_modes_is_immediate(self):
        net = make_network(mode=OperationMode.MODE_1)
        net.set_all_modes(OperationMode.MODE_3)
        assert all(r.mode is OperationMode.MODE_3 for r in net.routers)

    def test_traffic_survives_random_mode_churn(self):
        net = make_network(error=0.05)
        rng = random.Random(17)
        traffic_rng = random.Random(23)
        created = 0
        while created < 150 or not net.quiescent:
            if created < 150 and net.now % 2 == 0:
                src, dst = traffic_rng.randrange(16), traffic_rng.randrange(16)
                if src != dst:
                    net.inject(Packet(src, dst, 4, 128, net.now))
                    created += 1
            if net.now % 50 == 0:
                for router in net.routers:
                    router.request_mode(OperationMode(rng.randrange(4)))
            net.cycle()
            assert net.now < 100_000
        assert net.stats.packets_delivered == 150


class TestEpochHarvest:
    def test_mode_cycles_accounting(self):
        net = make_network(mode=OperationMode.MODE_2)
        net.run(10)
        net.harvest_epoch_counters(10)
        assert net.stats.mode_cycles[2] == 10 * 16
        assert net.stats.mode_cycles[0] == 0

    def test_reset_epoch_counters(self):
        net = make_network()
        run_random_traffic(net, 20)
        net.reset_epoch_counters()
        for router in net.routers:
            assert router.epoch.buffer_writes == 0
            assert router.epoch.flits_in == [0] * 5
