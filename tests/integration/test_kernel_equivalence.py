"""Golden equivalence: the activity-driven kernel vs the naive full scan.

DESIGN.md §11's core contract: for any seed and workload, the fast
kernel and the reference full-scan kernel must produce *bit-identical*
results — same deliveries, same retransmissions, same RNG-driven error
pattern, same final statistics.  These tests drive matched networks
through healthy and hard-fault campaigns under both routing policies and
under every operation mode (ARQ ACK/NACK traffic, go-back-N rewinds,
mode-2 duplicates, mode-3 stalls), and compare everything observable.
Both kernels step the same ``Router``, so agreeing with each other
does not pin the router's behaviour: every case also pins the sha256 of
its fingerprint.  Three longer workloads (idle, saturated, chaos) also
pin the fast kernel's stats digest and bound how much work it skips:
idle routers are not visited.
"""

import hashlib
import json
import random
from collections import Counter
from typing import Callable, Dict, NamedTuple, Optional

import pytest

from repro.core.modes import OperationMode
from repro.faults.hardfaults import HardFaultModel, parse_fault_spec
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.router import _SEND_MODES
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
        routing=routing,
        rng=random.Random(seed + 1),
    )
    net.kernel = kernel
    if fault_spec:
        net.hard_faults = HardFaultModel(net, parse_fault_spec(fault_spec))
    if modes is not None:
        for router in net.routers:
            net.set_mode(router.id, MODE_ASSIGNMENTS[modes](router.id))
    for _, model in net.channel_models():
        model.event_probability = error
        model.relax_factor = 0.5
    return net


def _inject_uniform(net, rng):
    """One uniform-random 4-flit packet (none when src == dst)."""
    nodes = net.topology.num_nodes
    src, dst = rng.randrange(nodes), rng.randrange(nodes)
    if src != dst:
        net.inject(Packet(src, dst, 4, 128, net.now))


def _drive(net, seed, cycles=1_500, rate=0.15):
    """Uniform random traffic, mixing per-cycle stepping and run() spans."""
    rng = random.Random(seed + 7)
    end = net.now + cycles
    while net.now < end:
        if rng.random() < rate:
            _inject_uniform(net, rng)
        if net.now % 7 == 0:
            net.run(3)
        else:
            net.cycle()
    _drain(net)


def _drain(net, limit=50_000):
    deadline = net.now + limit
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


def _sha256(fingerprint):
    return hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()


#: sha256 of each case's fingerprint, keyed by seed (plain cases) or by
#: (modes, fault case) (ARQ cases)
PINNED_FINGERPRINTS = {
    0: "cf8b1d96194906dbf58e27f1de005b9134ae6d1937ba8d5e2a110c65174250d4",
    1: "242a38b6c142307cb2d5005b4e08b844e6ecd0f4d382566b9ac3a40150454bda",
    2: "8b955fd1d4b0905f45e7f6a633a7a2e973c1a4fa888ff21550bbdfee6cb9aaec",
    3: "fc86cb544e457e7b1e3afacaad5a443cf7fbaba7a842faf61738ff895a47678c",
    4: "fdd5c6c479b0cdcf14e5ada894dac43e85835a2d5b557170c25c40571453941e",
    ("all1", "healthy"): "5f155745038585127240f1f693bfd24f33890707710632ecac6b892bff239a5a",
    ("all1", "chaos"): "75335824eb01485851400b5d3b0fc2147c5a82328da9b4ff45e388929b9d3828",
    ("all2", "healthy"): "40e11c3affb726b6fef2ab130b6eaa8a6962a57f89bed5818044a2dc59a1e368",
    ("all2", "chaos"): "a437dcf5bb4b62c310848fe30f3b49a25b9f17594ea13b563ee139ea5f441dd7",
    ("all3", "healthy"): "8158c0ae1ef92a46876f6f1753b3d2ac9ea636b756571dca55dddd8868566e4b",
    ("all3", "chaos"): "1a7e0fe868f730c0396ab43b58ae147d96884be7236adcd25385f9efdc8557f8",
    ("mixed", "healthy"): "71b393b7b8995aad5b911d8c00e2902ac96b1b789891a1fc1c51b52d0f73df7a",
    ("mixed", "chaos"): "df3026e3dccd2060a92df11e419611ebcbd2dd8d568c90c4b47f3027402cccdd",
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
    assert _sha256(prints["naive"]) == PINNED_FINGERPRINTS[seed]


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
    case = "healthy" if fault_spec is None else "chaos"
    assert _sha256(prints["naive"]) == PINNED_FINGERPRINTS[(modes, case)]
    naive = prints["naive"]
    assert sum(map(sum, naive["acks"])) > 0
    assert sum(map(sum, naive["nacks"])) > 0
    assert naive["flit_retransmissions"] > 0
    if modes in ("all2", "mixed"):
        assert naive["duplicate_flits"] > 0


def _drive_idle(net, cycles, rng):
    """Three packets every 2 000 cycles; run() spans the silence."""
    end = net.now + cycles
    while net.now < end:
        for _ in range(3):
            _inject_uniform(net, rng)
        net.run(min(2_000, end - net.now))
    _drain(net)


def _drive_saturated(net, cycles, rng):
    """Offered load past the saturation knee, capped at 16 outstanding
    messages per node, so every router is active most cycles."""
    nodes = net.topology.num_nodes
    end = net.now + cycles
    while net.now < end:
        if net.stats.outstanding_messages < 16 * nodes:
            for _ in range(nodes // 4):
                if rng.random() < 0.5:
                    _inject_uniform(net, rng)
        net.cycle()
    _drain(net)


def _drive_moderate(net, cycles, rng):
    """One packet every ten cycles on average, stepped cycle by cycle."""
    end = net.now + cycles
    while net.now < end:
        if rng.random() < 0.1:
            _inject_uniform(net, rng)
        net.cycle()
    _drain(net)


class Workload(NamedTuple):
    routing: str
    fault_spec: Optional[str]
    error: float
    driver: Callable
    cycles: int
    #: the fast kernel's stats digest at seed 0
    digest: Dict[str, object]
    #: most router visits the fast kernel may make, as a share of the
    #: naive kernel's full scan
    max_router_visits: float = 1.0


WORKLOADS = {
    "idle": Workload(
        "xy", None, 0.002, _drive_idle, 40_000,
        {
            "messages_created": 59,
            "packets_delivered": 59,
            "messages_dropped": 0,
            "retransmission_events": 1,
            "corrected_errors": 0,
            "mean_latency": 18.28813559322034,
            "final_cycle": 40_000,
        },
        max_router_visits=0.01,
    ),
    "saturated": Workload(
        "xy", None, 0.01, _drive_saturated, 4_000,
        {
            "messages_created": 7479,
            "packets_delivered": 7479,
            "messages_dropped": 0,
            "retransmission_events": 845,
            "corrected_errors": 0,
            "mean_latency": 30.484155635780184,
            "final_cycle": 4111,
        },
    ),
    # Adaptive routing around an early east-link kill, with an error
    # burst in mid-run.
    "chaos": Workload(
        "adaptive", "link@2000:5E;router@8000:10;burst@4000+2000:0.05", 0.0,
        _drive_moderate, 6_000,
        {
            "messages_created": 569,
            "packets_delivered": 569,
            "messages_dropped": 0,
            "retransmission_events": 177,
            "corrected_errors": 0,
            "mean_latency": 27.449912126537786,
            "final_cycle": 6048,
        },
        max_router_visits=0.25,
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_kernels_bit_identical(name):
    """Each workload gives the pinned digest on both kernels, and the
    fast kernel skips the work an idle network does not need."""
    workload = WORKLOADS[name]
    prints, visits = {}, {}
    for kernel in ("fast", "naive"):
        net = _build(kernel, 0, workload.routing, workload.fault_spec, error=workload.error)
        workload.driver(net, workload.cycles, random.Random(97))
        prints[kernel] = _fingerprint(net)
        visits[kernel] = net.activity.counters()
    assert prints["fast"] == prints["naive"]
    assert {key: prints["fast"][key] for key in workload.digest} == workload.digest
    fast, naive = visits["fast"], visits["naive"]
    assert fast["router_visits"] <= workload.max_router_visits * naive["router_visits"]


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


def _scan_derived_state(net, seen):
    """Check every count and wake flag the routers and NIs keep against a
    full scan of the state it summarises; tally the non-trivial cases."""
    now = net.now
    for router in net.routers:
        assert router._send_mode == _SEND_MODES[router.mode]
        for port, link in router.outputs.items():
            in_flight = [0] * len(link.in_flight)
            for _seq, t in link.arq:
                in_flight[t.vc] += 1
            assert link.in_flight == in_flight, (router.id, port)
            # A go-back-N rewind lists only unacknowledged flits.
            assert all(seq in link.arq.entries for seq in link.pending_retx), (
                router.id, port,
            )
        # A deferred ECC-off switch waits for every ARQ window to empty:
        # the router steps, or an unacknowledged flit's ACK will wake it.
        if router._pending_mode is not None:
            assert router.id in net.activity.routers or any(
                not link.arq.is_empty for link in router.outputs.values()
            ), router.id
            seen["switch_waits"] += 1
        for vc, link in router._active.items():
            assert link is router.outputs.get(vc.out_port)
        # RC looks only at its oldest head: heads are filed in due order.
        ready = [vc.stage_ready_cycle for vc in router._routing]
        assert ready == sorted(ready), router.id
        # VA: a port outside the due mask has no free VC for its requests.
        for vc in router._waiting:
            if not router._va_due >> vc.out_port & 1:
                assert all(router._output_vcs(vc.out_port)[1]), router.id
                seen["va_idle"] += 1
        # SA sleeps past a cycle only if no request can form before it:
        # a VC holding a flit with a credit and ARQ room goes once its
        # link is free.
        ecc = router.behaviour.ecc_enabled
        for vc, link in router._active.items():
            if not vc.fifo:
                continue
            if link is None:
                free_at = now
            elif link.credits[vc.out_vc] <= 0 or (ecc and link.arq.is_full):
                continue
            else:
                free_at = link.free_at
            assert router._sa_wake <= max(now, free_at), (router.id, vc)
        if router._active and router._sa_wake > now:
            seen["sa_asleep"] += 1
    for ni in net.interfaces:
        # A refused injection waits only while the local port is as full.
        if ni.alive and ni._refused_at == ni.router.local_pops:
            local = ni.router.inputs[Port.LOCAL]
            if ni._current_vc is None:
                assert local.free_vc_for_head() is None, ni.id
            else:
                vc = local.vcs[ni._current_vc]
                assert len(vc.fifo) >= vc.depth, ni.id
            seen["ni_refused"] += 1


def test_wake_state_matches_full_scan():
    """On the chaos ARQ case (mixed modes, a link and a router kill,
    error rate 0.05) at twice ``_drive``'s load, after every cycle, the
    in-flight counts, stage wake state, deferred mode switches and NI
    refusals agree with a full scan.  ECC goes off everywhere at cycle
    1 200 and back on at 1 400, so switches wait for their ARQ windows.
    At cycle 100 node 3's NI takes a 12-packet burst; node 3 runs mode 3,
    whose links drain at a third of the injection rate, so its NI is
    refused wherever the ECC-off window falls."""
    net = _build("fast", 5, "adaptive", CHAOS_SPEC, modes="mixed", error=0.05)
    rng = random.Random(12)
    seen = Counter()
    while net.now < 1_500 or not net.quiescent:
        if net.now == 100:
            for _ in range(12):
                net.inject(Packet(3, 0, 4, 128, net.now))
        if net.now == 1_200:
            net.set_all_modes(OperationMode.MODE_0)  # ECC off
        elif net.now == 1_400:
            for router in net.routers:
                net.set_mode(router.id, MODE_ASSIGNMENTS["mixed"](router.id))
        if net.now < 1_500 and rng.random() < 0.3:
            _inject_uniform(net, rng)
        net.cycle()
        _scan_derived_state(net, seen)
    stats = net.stats
    assert stats.link_kills and stats.router_kills
    assert sum(r.epoch.flit_retransmissions for r in net.routers) > 0
    assert sum(r.epoch.duplicate_flits for r in net.routers) > 0
    assert min(seen.values()) > 0 and len(seen) == 4, seen
    assert seen["ni_refused"] >= 20, seen
