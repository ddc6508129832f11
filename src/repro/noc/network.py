"""The network: routers, channels, NIs, and the cycle loop.

:class:`Network` wires a :class:`~repro.noc.topology.MeshTopology` into
routers and channels, owns the per-cycle event ordering, and aggregates
statistics.  It is deliberately policy-free: operation modes are set from
outside (by a controller through :meth:`set_mode`), and channel error
probabilities are refreshed from outside (by the fault substrate through
:meth:`channel_models`).  The full closed loop — traffic, faults,
thermal, power, control — is assembled in :mod:`repro.sim.simulator`.

Cycle ordering (one call to :meth:`cycle`):

1. sideband delivery — every channel with sideband sent last cycle
   hands its credits, then its ACK/NACKs, to the sender in one batch each;
2. data delivery — channels with flits due this cycle hand them to the
   receivers (error injection, ECC decode classification, ARQ
   accept/drop happen here);
3. NI ejection processing — tail flits complete packets, CRC checks run;
4. NI injection — one flit per NI into the local port;
5. router pipelines step (retransmission drain, SA/ST, VA, RC).

Phases 1 and 2 visit channels in creation-index order.  The sideband is
a fixed one-cycle wire: responses sent in steps 2 and 5 are consumed in
step 1 of the next cycle.  This ordering guarantees a flit advances at
most one pipeline stage per cycle.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.coding.crc import CRC
from repro.core.modes import OperationMode
from repro.noc.channel import Channel, ChannelErrorModel
from repro.noc.faultstate import FaultState
from repro.noc.interface import SIDEBAND_BASE_LATENCY, NetworkInterface
from repro.noc.packet import FLIT_BITS, Packet
from repro.noc.router import NUM_VCS, OutputLink, Router
from repro.noc.routing import ROUTING_FUNCTIONS
from repro.noc.stats import NetworkStats
from repro.noc.topology import OPPOSITE_PORT, MeshTopology, Port
from repro.noc.watchdog import NetworkWatchdog

__all__ = ["Network", "resolve_kernel"]

#: Directed links a router terminates (LOCAL has no channel).
_LINK_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)

#: Cycles a flit spends on an inter-router link.
LINK_LATENCY = 1

#: Environment switch selecting the reference full-scan kernel.
NAIVE_KERNEL_ENV = "REPRO_NAIVE_KERNEL"


def resolve_kernel() -> str:
    """The cycle kernel the environment selects: ``REPRO_NAIVE_KERNEL``
    set to anything but empty/``0`` picks the naive reference kernel,
    otherwise the fast one.  The choice is deliberately *not* part of
    ``SimulationConfig`` — both kernels are bit-identical, so cache keys
    must not depend on it.
    """
    flag = os.environ.get(NAIVE_KERNEL_ENV, "").strip()
    return "naive" if flag not in ("", "0") else "fast"


class _ActivityState:
    """Due lists and active-entity registries driving the cycle kernels.

    Channels file their creation index on every send: ``sideband`` lists
    the channels with credits or ACK/NACKs due next cycle (one entry per
    channel, appended when its sideband goes from empty to pending), and
    ``arrivals`` maps a cycle to the channels with data due then (one
    entry per transmission).  Both kernels consume them at the same phase
    points, so they are exact under either kernel; the fast kernel
    delivers from them, the naive one scans every channel.

    Routers and NIs register themselves (by id) when an event gives them
    work; the fast kernel deregisters them lazily once their work is
    gone.  Due entries and registrations are therefore always a
    *superset* of the truly-active entities, which makes them safe
    across kernel switches and checkpoint resume — a stale entry costs
    one no-op visit, never a missed event.

    The ``*_visits`` counters record how many entity-steps each phase
    actually executed (``channel_visits`` counts channels with a due
    delivery; the naive kernel counts its full sweeps);
    ``repro run --profile`` surfaces them.
    """

    __slots__ = (
        "sideband",
        "arrivals",
        "routers",
        "ni_eject",
        "ni_inject",
        "channel_visits",
        "router_visits",
        "ni_eject_visits",
        "ni_inject_visits",
    )

    def __init__(self) -> None:
        self.sideband: List[int] = []
        self.arrivals: Dict[int, List[int]] = {}
        self.routers: Set[int] = set()
        self.ni_eject: Set[int] = set()
        self.ni_inject: Set[int] = set()
        self.channel_visits = 0
        self.router_visits = 0
        self.ni_eject_visits = 0
        self.ni_inject_visits = 0

    def counters(self) -> Dict[str, int]:
        """Per-stage activity counters for the profiling report."""
        return {
            "channel_visits": self.channel_visits,
            "router_visits": self.router_visits,
            "ni_eject_visits": self.ni_eject_visits,
            "ni_inject_visits": self.ni_inject_visits,
        }

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])


class Network:
    """A complete mesh NoC instance."""

    def __init__(
        self,
        topology: MeshTopology,
        routing: str = "xy",
        num_vcs: int = NUM_VCS,
        vc_depth: int = 4,
        flit_bits: int = FLIT_BITS,
        rng: Optional[random.Random] = None,
        watchdog_interval: int = 256,
        deadlock_cycles: int = 4096,
        max_packet_age: int = 500_000,
    ) -> None:
        self.topology = topology
        self.flit_bits = flit_bits
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = NetworkStats()
        self.now = 0
        #: "fast" (activity-driven) or "naive" (reference full scan);
        #: either may be assigned between cycles
        self.kernel = resolve_kernel()
        #: active-entity registries; hooks in channels/routers/NIs keep
        #: them current regardless of which kernel consumes them
        self.activity = _ActivityState()

        #: live hard-fault topology shared by routers and the routing
        self.fault_state = FaultState(topology)
        routing_fn = ROUTING_FUNCTIONS[routing](self.fault_state)
        self.routers: List[Router] = [
            Router(i, topology, routing_fn, num_vcs, vc_depth, fault_state=self.fault_state)
            for i in range(topology.num_nodes)
        ]
        for router in self.routers:
            router.drop_sink = self._rc_drop

        self.watchdog: Optional[NetworkWatchdog] = (
            NetworkWatchdog(
                self,
                interval=watchdog_interval,
                deadlock_cycles=deadlock_cycles,
                max_packet_age=max_packet_age,
            )
            if watchdog_interval > 0
            else None
        )
        #: optional hard-fault campaign ticked at the top of every cycle
        self.hard_faults = None
        #: optional repro.obs.TraceBuffer — ``None`` keeps every hook a
        #: single ``is not None`` test (see attach_tracer)
        self.tracer = None

        #: channels keyed by (source router, source port)
        self.channels: Dict[Tuple[int, int], Channel] = {}
        #: per-channel delivery tuples in creation-index order, split by
        #: kernel phase so each phase unpacks exactly what it touches:
        #: sideband = (channel, src router, src port int), data =
        #: (channel, dst router, dst port int).  The fast kernel visits
        #: due indices *sorted*, which equals the naive kernel's
        #: dict-insertion-order scan — that keeps the shared error RNG
        #: consumed in an identical order.
        self._meta_sideband: List[Tuple[Channel, Router, int]] = []
        self._meta_data: List[Tuple[Channel, Router, int]] = []
        for index, spec in enumerate(topology.channels()):
            channel = Channel(spec, LINK_LATENCY, ChannelErrorModel(self.rng, flit_bits))
            channel.bind_activity(index, self.activity.sideband, self.activity.arrivals)
            self.channels[(spec.src, spec.src_port)] = channel
            self._meta_sideband.append(
                (channel, self.routers[spec.src], int(spec.src_port))
            )
            self._meta_data.append(
                (channel, self.routers[spec.dst], int(spec.dst_port))
            )
            self.routers[spec.src].outputs[int(spec.src_port)] = OutputLink(
                spec.src_port, channel, num_vcs, vc_depth
            )
            self.routers[spec.dst].in_channels[int(spec.dst_port)] = channel
        for router in self.routers:
            router.bind_activity(self.activity.routers)
        #: precomputed sorted id list — the fast kernel substitutes it
        #: for ``sorted(active_set)`` when every router/NI is active (the
        #: saturation steady state), skipping the per-cycle sort
        self._all_nodes = list(range(topology.num_nodes))

        crc = CRC()
        self.interfaces: List[NetworkInterface] = [
            NetworkInterface(i, self.routers[i], topology, crc, self.stats)
            for i in range(topology.num_nodes)
        ]
        # Bound methods (not lambdas) so a Network snapshot pickles —
        # checkpoint/resume serializes the whole object graph.
        for ni in self.interfaces:
            ni.peer = self._peer_lookup
            ni._router_lookup = self._router_lookup
            ni.bind_activity(self.activity.ni_inject, self.activity.ni_eject)

    def _peer_lookup(self, node: int) -> NetworkInterface:
        return self.interfaces[node]

    def _router_lookup(self, router_id: int) -> Router:
        return self.routers[router_id]

    def _clock(self) -> int:
        return self.now

    def attach_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) an event tracer.

        Routers and NIs don't hold a back-reference to the network, so
        they get the tracer plus the bound ``_clock`` method (bound
        methods pickle, keeping checkpoint/resume working; lambdas do
        not — same idiom as ``ni.peer`` above).  Hook sites only fire at
        event frequency, so tracing is zero-cost when detached.
        """
        self.tracer = tracer
        clock = self._clock if tracer is not None else None
        for router in self.routers:
            router.tracer = tracer
            router.trace_clock = clock
        for ni in self.interfaces:
            ni.tracer = tracer

    # ------------------------------------------------------------------
    # External control surface
    # ------------------------------------------------------------------
    def set_mode(self, router_id: int, mode: OperationMode) -> None:
        """Request an operation mode for one router's output -Links; a
        switch applied now is active from cycle ``now`` on."""
        router = self.routers[router_id]
        router.book_mode(self.now)
        router.request_mode(mode)

    def set_all_modes(self, mode: OperationMode) -> None:
        for router_id in range(len(self.routers)):
            self.set_mode(router_id, mode)

    def channel_models(self) -> Iterable[Tuple[Tuple[int, int], ChannelErrorModel]]:
        """(key, error model) pairs for the fault substrate to refresh."""
        return ((key, ch.error_model) for key, ch in self.channels.items())

    def inject(self, packet: Packet) -> None:
        """Hand a new message to its source NI."""
        self.interfaces[packet.src].enqueue(packet)

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def cycle(self) -> None:
        now = self.now
        if self.hard_faults is not None:
            self.hard_faults.tick(now)

        if self.kernel == "naive":
            self._cycle_naive(now)
        else:
            self._cycle_fast(now)

        self.now = now + 1
        self.stats.cycles += 1
        watchdog = self.watchdog
        if watchdog is not None and self.now % watchdog.interval == 0:
            watchdog.check(self.now)

    def _cycle_naive(self, now: int) -> None:
        """Reference kernel: full sweep of every entity, every cycle.

        Kept verbatim (modulo the public ``has_pending_*``/``pop_*``
        accessors and the batched sideband calls) as the
        golden-equivalence baseline and the bench's "before" side.  It
        scans every channel instead of reading the due lists, but clears
        them at the same phase points as the fast kernel, so a snapshot
        taken under either kernel resumes under the other.
        """
        act = self.activity
        act.channel_visits += len(self.channels)
        act.sideband.clear()
        for (src, src_port), channel in self.channels.items():
            if channel.has_pending_credits or channel.has_pending_acks:
                sender = self.routers[src]
                sender.receive_credit(int(src_port), channel.pop_credits())
                sender.receive_ack(int(src_port), channel.pop_acks())

        act.arrivals.pop(now, None)
        for channel in self.channels.values():
            if channel.has_pending_data:
                arrivals = channel.pop_arrivals(now)
                if arrivals:
                    self.routers[channel.spec.dst].receive_transmissions(
                        int(channel.spec.dst_port), arrivals, now
                    )

        act.ni_eject_visits += len(self.interfaces)
        for ni in self.interfaces:
            ni.step_eject(now)
        act.ni_inject_visits += len(self.interfaces)
        for ni in self.interfaces:
            ni.step_inject(now)

        act.router_visits += len(self.routers)
        for router in self.routers:
            router.step(now)

    def _cycle_fast(self, now: int) -> None:
        """Activity-driven kernel: O(due + active) work per cycle.

        Phase order and per-phase iteration order match the naive scan
        exactly (sorted channel indices and router/NI ids == dict
        insertion order), so both kernels consume the shared error RNG
        identically.  Channels are visited only from the due lists; each
        router/NI phase snapshots its registry just before running, so
        work created by an earlier phase in the same cycle is picked up
        exactly when the naive sweep would have; deregistration is lazy,
        after an entity's step confirms it has nothing left.

        The channel predicates (``has_pending_*``) and the sideband
        ``pop_*`` calls are inlined here as direct slot reads — at
        saturation the call overhead of the method forms is a measurable
        slice of the cycle — and each inline must mirror its method
        exactly.  The deregistration tests after each router/NI step are
        the one definition of "has work left": they mirror the guards
        inside ``step_eject``, ``step_inject`` and ``Router.step``.
        """
        act = self.activity
        sideband = act.sideband
        due = act.arrivals.pop(now, None)
        if due is not None and len(due) > 1:
            # Index order.  A channel listed twice (two transmissions due
            # together) hands everything over on its first visit.
            due.sort()

        if sideband:
            # Phase 1 sends nothing, so the list is complete; clearing
            # it before phase 2 leaves room for next cycle's sideband.
            sideband.sort()
            act.channel_visits += (
                len(sideband) if due is None else len(set(sideband).union(due))
            )
            meta = self._meta_sideband
            for index in sideband:
                channel, sender, src_port = meta[index]
                credits = channel._credits
                if credits:
                    sender.receive_credit(src_port, credits)
                    credits.clear()
                acks = channel._acks
                if acks:
                    sender.receive_ack(src_port, acks)
                    acks.clear()
            sideband.clear()
        elif due is not None:
            act.channel_visits += len(due)

        if due is not None:
            meta = self._meta_data
            for index in due:
                channel, receiver, dst_port = meta[index]
                arrivals = channel.pop_arrivals(now)
                if arrivals:
                    # May file sideband on this same channel (ACK/NACK,
                    # credit) for delivery next cycle.
                    receiver.receive_transmissions(dst_port, arrivals, now)

        if act.ni_eject:
            interfaces = self.interfaces
            active_eject = act.ni_eject
            if len(active_eject) == len(self._all_nodes):
                snapshot = self._all_nodes
            else:
                snapshot = sorted(active_eject)
            act.ni_eject_visits += len(snapshot)
            for nid in snapshot:
                ni = interfaces[nid]
                ni.step_eject(now)
                if not ni._eject_queue:  # nothing left to eject
                    active_eject.discard(nid)

        if act.ni_inject:
            interfaces = self.interfaces
            active_inject = act.ni_inject
            if len(active_inject) == len(self._all_nodes):
                snapshot = self._all_nodes
            else:
                snapshot = sorted(active_inject)
            act.ni_inject_visits += len(snapshot)
            for nid in snapshot:
                ni = interfaces[nid]
                ni.step_inject(now)
                if not (  # no retransmission, message or worm to send
                    ni._retx_due or ni._inject_queue or ni._current is not None
                ):
                    active_inject.discard(nid)

        if act.routers:
            routers = self.routers
            active_routers = act.routers
            if len(active_routers) == len(self._all_nodes):
                snapshot = self._all_nodes
            else:
                snapshot = sorted(active_routers)
            act.router_visits += len(snapshot)
            for rid in snapshot:
                router = routers[rid]
                router.step(now)
                # No pipeline stage, go-back-N rewind or fault drain
                # left.  A non-empty ARQ window alone needs no step:
                # sideband ACKs release it, and a deferred ECC-off switch
                # waits only for such a window (an ACK or a link kill
                # wakes the router when it empties).
                if not (
                    router._active
                    or router._waiting
                    or router._routing
                    or router._draining
                    or router._retx_ports
                ):
                    active_routers.discard(rid)

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` cycles."""
        for _ in range(cycles):
            self.cycle()

    # ------------------------------------------------------------------
    # Hard faults
    # ------------------------------------------------------------------
    def _drop_message(self, packet: Packet) -> bool:
        """Abandon ``packet``'s message at its source NI (idempotent)."""
        return self.interfaces[packet.src].drop_message(packet.message_id)

    def _rc_drop(self, packet: Packet, router_id: int, unreachable: bool) -> None:
        """Router RC stage hit a dead port / unreachable destination.

        The in-network attempt is destroyed either way.  RC drops are
        *permanent* message drops — a deterministic router would hit the
        same dead port on every retry, so retrying would never converge.
        """
        self.stats.packets_dropped += 1
        if unreachable:
            self.stats.unreachable_drops += 1
        self._drop_message(packet)
        if self.tracer is not None:
            self.tracer.emit(
                self.now,
                "fault",
                "rc_drop",
                subject=router_id,
                message=packet.message_id,
                src=packet.src,
                dest=packet.dest,
                unreachable=unreachable,
            )

    def _recover_or_drop(self, packet: Packet, now: int) -> None:
        """A hard fault destroyed this in-flight attempt.

        If the source still holds the message and an alive path exists,
        schedule one source retransmission (the paper's end-to-end
        recovery, reused for hard faults); otherwise abandon the message.
        """
        self.stats.packets_dropped += 1
        source = self.interfaces[packet.src]
        if (
            source.alive
            and packet.message_id in source._store
            and self.fault_state.reachable(packet.src, packet.dest)
        ):
            self.stats.fault_recoveries += 1
            delay = (
                self.topology.hop_distance(packet.src, packet.dest)
                + SIDEBAND_BASE_LATENCY
            )
            source.schedule_retransmission(packet.message_id, now + delay)
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "fault",
                    "recovery",
                    subject=packet.src,
                    message=packet.message_id,
                    dest=packet.dest,
                    due=now + delay,
                )
        else:
            dropped = self._drop_message(packet)
            if self.tracer is not None and dropped:
                self.tracer.emit(
                    now,
                    "fault",
                    "message_drop",
                    subject=packet.src,
                    message=packet.message_id,
                    dest=packet.dest,
                )

    def kill_link(self, src: int, port: Port) -> bool:
        """Permanently kill the directed link ``src -> port``.

        Sweeps every place a flit of a now-truncated worm can live —
        in-flight on the channel, unacknowledged in the sender's ARQ
        buffer, queued in sender/receiver VCs — marks the affected
        packets lost, and routes each through recover-or-drop.  Returns
        False if the link does not exist or is already dead.
        """
        port = Port(port)
        channel = self.channels.get((src, port))
        if channel is None or not channel.alive:
            return False
        now = self.now
        self.fault_state.kill_link(src, int(port))
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "fault",
                "link_kill",
                subject=src,
                port=port.name,
                dst=channel.spec.dst,
            )

        lost: List[Packet] = []

        def mark(packet: Optional[Packet]) -> None:
            if packet is not None and not packet.lost:
                packet.lost = True
                lost.append(packet)

        sender = self.routers[src]
        receiver = self.routers[channel.spec.dst]
        dst_port = int(channel.spec.dst_port)

        # 1. In-flight traffic dies on the wire.  Mode-2 duplicates carry
        # no credit and may shadow an already-accepted original, so only
        # primary transmissions mark their packet lost.
        for t in channel._data:
            if not t.duplicate:
                mark(t.flit.packet)
        channel._data.clear()
        channel._acks.clear()
        channel._credits.clear()
        channel.alive = False

        # 2. Sender link state: every ARQ entry the receiver has not yet
        # accepted is a flit that will never cross.
        link = sender.outputs[int(port)]
        link.alive = False
        expected = receiver.expected_seq[dst_port]
        for seq, t in link.arq:
            if seq >= expected:
                mark(t.flit.packet)
        link.arq.flush()
        link.in_flight = [0] * len(link.in_flight)
        link.pending_retx.clear()
        if int(port) in sender._retx_ports:
            sender._retx_ports.remove(int(port))
        link.vc_allocated = [False] * len(link.vc_allocated)
        link.vc_draining = [False] * len(link.vc_draining)

        # 3/4. Pipeline sweeps: unwind or truncate worms on both ends.
        sender.handle_dead_output(int(port), now, mark)
        receiver.handle_dead_input(dst_port, now)

        self.stats.link_kills += 1
        for packet in lost:
            self._recover_or_drop(packet, now)
        return True

    def kill_router(self, node: int) -> bool:
        """Permanently kill router ``node``, its NI, and incident links."""
        if node in self.fault_state.dead_nodes:
            return False
        now = self.now
        self.fault_state.kill_node(node)
        if self.tracer is not None:
            self.tracer.emit(now, "fault", "router_kill", subject=node)
        for port in _LINK_PORTS:
            self.kill_link(node, port)
            neighbour = self.topology.neighbour(node, port)
            if neighbour is not None:
                self.kill_link(neighbour, OPPOSITE_PORT[port])

        lost: List[Packet] = []

        def mark(packet: Optional[Packet]) -> None:
            if packet is not None and not packet.lost:
                packet.lost = True
                lost.append(packet)

        self.routers[node].flush_all(mark)
        self.interfaces[node].retire(mark)
        self.stats.router_kills += 1
        for packet in lost:
            self._recover_or_drop(packet, now)
        return True

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """No outstanding messages anywhere (trace fully delivered).

        O(1): reads the incrementally-maintained counter instead of
        scanning every NI — drain loops poll this every cycle.  The
        watchdog cross-checks the counter against the scan.
        """
        return self.stats.outstanding_messages == 0

    def scan_outstanding(self) -> int:
        """Ground-truth outstanding-message count (full NI scan)."""
        return sum(ni.outstanding_messages for ni in self.interfaces)

    def harvest_epoch_counters(self) -> None:
        """Fold per-router epoch counters into the run statistics and
        book mode residency up to ``now``.  Called by the simulator at each
        epoch boundary *after* the controller has consumed the counters."""
        now = self.now
        mode_cycles = self.stats.mode_cycles
        for router in self.routers:
            epoch = router.epoch
            self.stats.flit_retransmissions += epoch.flit_retransmissions
            self.stats.corrected_errors += epoch.corrected_errors
            self.stats.escaped_errors += epoch.escaped_errors
            self.stats.duplicate_flits += epoch.duplicate_flits
            self.stats.dropped_flits += epoch.dropped_flits
            self.stats.reroutes += epoch.reroutes
            # Monotonic activity base for the deadlock watchdog: epoch
            # resets must never make observed activity go backwards.
            self.stats.buffer_ops += (
                epoch.buffer_writes + epoch.buffer_reads + epoch.flit_retransmissions
            )
            router.book_mode(now)
            for mode, cycles in enumerate(router.mode_cycles):
                mode_cycles[mode] += cycles
            router.mode_cycles = [0] * len(mode_cycles)

    def reset_epoch_counters(self) -> None:
        for router in self.routers:
            router.epoch.reset()

    def drain(self, max_cycles: int) -> int:
        """Run until every message is delivered, checking every 64
        cycles; returns cycles spent.

        Raises ``RuntimeError`` if the network fails to drain within
        ``max_cycles`` — which in a correct configuration indicates a
        protocol bug, so it is loud by design.
        """
        start = self.now
        while not self.quiescent:
            if self.now - start >= max_cycles:
                outstanding = self.scan_outstanding()
                raise RuntimeError(
                    f"network failed to drain: {outstanding} messages "
                    f"outstanding after {max_cycles} cycles"
                )
            for _ in range(64):
                self.cycle()
        return self.now - start
