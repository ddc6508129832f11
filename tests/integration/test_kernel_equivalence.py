"""Golden equivalence: the activity-driven kernel vs the naive full scan.

DESIGN.md §11's core contract: for any seed and workload, the fast
kernel and the reference full-scan kernel must produce *bit-identical*
results — same deliveries, same retransmissions, same RNG-driven error
pattern, same final statistics.  These tests drive matched networks
through healthy and hard-fault campaigns under both routing policies and
under every operation mode (ARQ ACK/NACK traffic, go-back-N rewinds,
mode-2 duplicates, mode-3 stalls), and compare everything observable.
"""

import random

import pytest

from repro.core.modes import OperationMode
from repro.faults.hardfaults import HardFaultModel, HardFaultSchedule
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology, Port

CHAOS_SPEC = "link@400:1E;router@900:5;burst@600+300:0.05"

#: per-router operation-mode assignments of the ARQ matrix
MODE_ASSIGNMENTS = {
    "all1": lambda rid: OperationMode.MODE_1,
    "all2": lambda rid: OperationMode.MODE_2,
    "all3": lambda rid: OperationMode.MODE_3,
    "mixed": lambda rid: OperationMode(rid % 4),
}


def _build(kernel, seed, routing, fault_spec, modes=None, error=0.01):
    net = Network(
        MeshTopology(4, 4),
        routing_fn=routing,
        rng=random.Random(seed + 1),
        routing_seed=seed,
        kernel=kernel,
    )
    if fault_spec:
        net.hard_faults = HardFaultModel(net, HardFaultSchedule.parse(fault_spec))
    if modes is not None:
        for router in net.routers:
            net.set_mode(router.id, MODE_ASSIGNMENTS[modes](router.id))
    for _, model in net.channel_models():
        model.event_probability = error
        model.relax_factor = 0.5
    return net


def _drive(net, seed, cycles=1_500, rate=0.15):
    """Uniform random traffic, mixing per-cycle stepping and run() spans."""
    rng = random.Random(seed + 7)
    nodes = net.topology.num_nodes
    message_id = 0
    end = net.now + cycles
    while net.now < end:
        if rng.random() < rate:
            src, dst = rng.randrange(nodes), rng.randrange(nodes)
            if src != dst:
                net.inject(
                    Packet(src, dst, 4, 128, net.now, message_id=message_id)
                )
                message_id += 1
        # Alternate single cycles with short run() spans so the
        # fast-forward path participates in the equivalence check.
        if net.now % 7 == 0:
            net.run(3)
        else:
            net.cycle()
    deadline = net.now + 50_000
    while not net.quiescent and net.now < deadline:
        net.cycle()


def _fingerprint(net):
    stats = net.stats
    return {
        "final_cycle": net.now,
        "messages_created": stats.messages_created,
        "packets_delivered": stats.packets_delivered,
        "flits_delivered": stats.flits_delivered,
        "messages_dropped": stats.messages_dropped,
        "retransmission_events": stats.retransmission_events,
        "crc_failures": stats.crc_failures,
        "corrected_errors": stats.corrected_errors,
        "silent_corruptions": stats.silent_corruptions,
        "mean_latency": stats.mean_latency,
        "reroutes": sum(r.epoch.reroutes for r in net.routers),
        "arbitrations": sum(r.epoch.arbitration_ops for r in net.routers),
        "flits_out": [list(r.epoch.flits_out) for r in net.routers],
        "acks": [list(r.epoch.acks_in) for r in net.routers],
        "nacks": [list(r.epoch.nacks_in) for r in net.routers],
        "flit_retransmissions": sum(r.epoch.flit_retransmissions for r in net.routers),
        "duplicate_flits": sum(r.epoch.duplicate_flits for r in net.routers),
        "dropped_flits": sum(r.epoch.dropped_flits for r in net.routers),
        "modes": [int(r.mode) for r in net.routers],
        "rng_state": net.rng.getstate(),
    }


@pytest.mark.parametrize(
    "seed,routing,fault_spec",
    [
        (0, "xy", None),
        (1, "adaptive", None),
        (2, "xy", CHAOS_SPEC),
        (3, "adaptive", CHAOS_SPEC),
        (4, "adaptive", CHAOS_SPEC),
    ],
)
def test_kernels_bit_identical(seed, routing, fault_spec):
    prints = {}
    for kernel in ("fast", "naive"):
        net = _build(kernel, seed, routing, fault_spec)
        _drive(net, seed)
        prints[kernel] = _fingerprint(net)
    assert prints["fast"] == prints["naive"]


@pytest.mark.parametrize("fault_spec", [None, CHAOS_SPEC], ids=["healthy", "chaos"])
@pytest.mark.parametrize("modes", sorted(MODE_ASSIGNMENTS))
def test_kernels_bit_identical_under_arq(modes, fault_spec):
    """Per-hop ARQ traffic: ACK/NACK batches, go-back-N rewinds, mode-2
    duplicates and mode-3 stalls are identical under both kernels."""
    prints = {}
    for kernel in ("fast", "naive"):
        net = _build(kernel, 5, "adaptive", fault_spec, modes=modes, error=0.05)
        _drive(net, 5)
        prints[kernel] = _fingerprint(net)
    assert prints["fast"] == prints["naive"]
    naive = prints["naive"]
    assert sum(map(sum, naive["acks"])) > 0
    assert sum(map(sum, naive["nacks"])) > 0
    assert naive["flit_retransmissions"] > 0
    if modes in ("all2", "mixed"):
        assert naive["duplicate_flits"] > 0


def test_active_sets_drain_at_quiescence():
    """Lazy deregistration converges: no activity left once quiescent."""
    net = _build("fast", 0, "xy", None)
    _drive(net, 0, cycles=400)
    assert net.quiescent
    act = net.activity
    assert not act.sideband
    assert not act.arrivals
    assert not act.routers
    assert not act.ni_eject
    assert not act.ni_inject


def test_naive_kernel_consumes_due_lists():
    """The naive kernel scans every channel but still clears the due
    lists at the same phase points, so they never hold stale entries a
    later fast-kernel resume would have to wade through."""
    net = _build("naive", 0, "xy", None, modes="all1", error=0.05)
    _drive(net, 0, cycles=400)
    assert net.quiescent
    net.run(10)  # let the last ACKs and credits land
    assert not net.activity.sideband
    assert not net.activity.arrivals


def test_fast_forward_skips_only_truly_idle_cycles():
    """run() jumps idle spans without skipping watchdog or fault events."""
    net = _build("fast", 0, "xy", "link@5000:1E")
    # Nothing in flight: run() should fast-forward but stop exactly at
    # the scheduled hard fault, then continue.
    net.run(8_000)
    assert net.now == 8_000
    assert net.activity.fast_forwarded > 0
    assert not net.fault_state.link_alive(1, int(Port.EAST))
    # The watchdog observed every interval boundary despite the jumps.
    assert net.watchdog is not None
    assert net.watchdog.checks >= 8_000 // net.watchdog.interval - 1


def test_naive_kernel_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_NAIVE_KERNEL", "1")
    net = Network(MeshTopology(2, 2))
    assert net.kernel == "naive"
    monkeypatch.setenv("REPRO_NAIVE_KERNEL", "0")
    net = Network(MeshTopology(2, 2))
    assert net.kernel == "fast"


def test_channel_pending_properties():
    net = _build("fast", 0, "xy", None)
    channel = next(iter(net.channels.values()))
    assert not channel.busy
    assert not channel.has_pending_data
    assert not channel.has_pending_acks
    assert not channel.has_pending_credits
    channel.send_credit(0)
    assert channel.has_pending_credits and channel.busy
    assert net.activity.sideband == [channel.index]
    assert channel.pop_credits() == [0]
    assert not channel.busy
