"""The fault-tolerant router (paper Fig. 2).

A four-stage virtual-channel router — buffer write / route computation
(BW/RC), VC allocation (VA), switch allocation (SA), switch + link
traversal (ST/LT) — extended with the paper's per-router fault-tolerant
machinery:

* per-output-port ARQ retransmission buffers ("output flit buffers");
* ECC (-Link) enable/disable under control of the operation mode;
* mode-2 flit pre-retransmission (speculative duplicates);
* mode-3 pre-transmission stall cycles with relaxed timing;
* the per-hop ACK/NACK sideband and a go-back-N recovery protocol that
  preserves flit order within each channel.

The router's :attr:`mode` governs its *output* links (-Link_i consists of
router i's encoder and router i+1's decoder, switched together —
Section III), so a transmission carries its protection flag with it and
the receiver never needs to know the upstream router's mode.

Timing-error injection happens at flit delivery via the channel's error
model; the decode outcome is classified by the number of bit errors in
that hop (0 clean / 1 corrected / 2 NACK / 3+ escapes past SECDED), which
matches the real :class:`repro.coding.SecdedCode` behaviour validated in
the unit tests without paying for per-hop bit-level re-encoding.

Implementation note: the pipeline stages iterate over dictionaries of
VCs keyed by pipeline state (``_routing`` / ``_waiting`` / ``_active``)
rather than scanning every (port, VC) pair each cycle — iteration order
is insertion order, keeping runs bit-reproducible while making idle
routers nearly free.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.coding.arq import RetransmissionBuffer
from repro.core.modes import MODE_BEHAVIOUR, ModeBehaviour, OperationMode
from repro.noc.arbiters import RoundRobinArbiter
from repro.noc.buffers import InputPort, VCState, VirtualChannel
from repro.noc.channel import Channel, Transmission
from repro.noc.faultstate import FaultState
from repro.noc.packet import Flit, Packet
from repro.noc.routing import RoutingFunction, xy_route
from repro.noc.stats import RouterEpochStats
from repro.noc.topology import MeshTopology, Port

__all__ = ["OutputLink", "Router", "ECC_PIPELINE_CYCLES"]

#: Extra cycles a protected (ECC) transfer spends in the encoder/decoder.
ECC_PIPELINE_CYCLES = 1

_NUM_PORTS = len(Port)
_LOCAL = int(Port.LOCAL)
#: rotating output-port scan orders for SA, indexed by ``now % N`` —
#: precomputed so the hot loop does no per-step modular arithmetic
_PORT_ORDERS = tuple(
    tuple((start + k) % _NUM_PORTS for k in range(_NUM_PORTS))
    for start in range(_NUM_PORTS)
)


class OutputLink:
    """Sender-side state of one inter-router output port."""

    __slots__ = (
        "port",
        "channel",
        "arq",
        "credits",
        "vc_allocated",
        "vc_draining",
        "free_at",
        "pending_retx",
        "alive",
    )

    def __init__(
        self, port: Port, channel: Channel, num_vcs: int, vc_depth: int, arq_capacity: int
    ) -> None:
        self.port = port
        self.channel = channel
        #: cleared by the network's hard-fault sweep when the link dies
        self.alive = True
        self.arq: RetransmissionBuffer[Transmission] = RetransmissionBuffer(arq_capacity)
        self.credits = [vc_depth] * num_vcs
        self.vc_allocated = [False] * num_vcs
        self.vc_draining = [False] * num_vcs
        #: first cycle the link is free for a new transfer
        self.free_at = 0
        #: sequence numbers scheduled for go-back-N retransmission
        self.pending_retx: Deque[int] = deque()


class Router:
    """One mesh router with the proposed fault-tolerant extensions."""

    def __init__(
        self,
        router_id: int,
        topology: MeshTopology,
        routing_fn: RoutingFunction,
        num_vcs: int,
        vc_depth: int,
        arq_capacity: int = 8,
        fault_state: Optional[FaultState] = None,
    ) -> None:
        self.id = router_id
        self.topology = topology
        self.routing_fn = routing_fn
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.arq_capacity = arq_capacity
        #: shared hard-fault state (None only for standalone router tests)
        self.fault_state = fault_state
        self._fault_aware = bool(getattr(routing_fn, "fault_aware", False))
        #: ``(packet, router_id, unreachable)`` callback installed by the
        #: Network; invoked when RC discards an unroutable packet so the
        #: network can do message-level accounting
        self.drop_sink: Optional[Callable[[Packet, int, bool], None]] = None

        self.inputs: List[InputPort] = [
            InputPort(Port(p), num_vcs, vc_depth) for p in range(_NUM_PORTS)
        ]
        #: sender-side output links, wired by the Network (LOCAL excluded)
        self.outputs: Dict[int, OutputLink] = {}
        #: channels arriving here, for returning ACKs/credits (by input port)
        self.in_channels: Dict[int, Channel] = {}
        #: receiver-side next expected ARQ sequence number per input port
        self.expected_seq: List[int] = [0] * _NUM_PORTS
        #: ejection callback ``(flit, deliver_at)`` installed by the Network
        self.ejection_sink: Optional[Callable[[Flit, int], None]] = None

        self._local_vc_allocated = [False] * num_vcs

        self.mode = OperationMode.MODE_0
        self.behaviour: ModeBehaviour = MODE_BEHAVIOUR[self.mode]
        #: ``behaviour.link_slots_per_flit``, cached per mode change (the
        #: property would otherwise be evaluated on every traversal)
        self._link_slots = self.behaviour.link_slots_per_flit
        self._pending_mode: Optional[OperationMode] = None

        self._va_arbiters = [RoundRobinArbiter(_NUM_PORTS * num_vcs) for _ in range(_NUM_PORTS)]
        self._sa_arbiters = [RoundRobinArbiter(_NUM_PORTS * num_vcs) for _ in range(_NUM_PORTS)]

        # Pipeline-state indices: VCs currently in each stage, in
        # insertion order (deterministic).
        self._routing: Dict[VirtualChannel, None] = {}
        self._waiting: Dict[VirtualChannel, None] = {}
        self._active: Dict[VirtualChannel, None] = {}
        #: VCs discarding a fault-killed packet in place (see VCState)
        self._draining: Dict[VirtualChannel, None] = {}
        #: output ports with a non-empty go-back-N rewind queue
        self._retx_ports: List[int] = []

        self.epoch = RouterEpochStats()
        #: local temperature in degrees C, refreshed by the thermal model
        self.temperature = 50.0
        #: lifetime count of applied operation-mode changes (flap metric)
        self.mode_switches = 0

        #: observability hooks installed by Network.attach_tracer; the
        #: router has no network back-reference, so it also gets the
        #: network's bound clock method for timestamps
        self.tracer = None
        self.trace_clock: Optional[Callable[[], int]] = None

        #: Network-owned set of router ids whose ``step`` must run; None
        #: for standalone routers (unit tests).  Events that create
        #: pipeline work re-register the router here; the cycle kernel
        #: deregisters lazily once :attr:`needs_step` goes False.
        self._active_set: Optional[Set[int]] = None

    def bind_activity(self, active: Set[int]) -> None:
        """Attach this router to its Network's active-router set."""
        self._active_set = active

    def _wake(self) -> None:
        if self._active_set is not None:
            self._active_set.add(self.id)

    @property
    def needs_step(self) -> bool:
        """Whether :meth:`step` would do any work this cycle.

        Mirrors the guards inside :meth:`step`: pipeline stages, the
        go-back-N rewind queue, fault drains, and a deferred mode switch.
        A non-empty ARQ window alone does *not* require stepping — its
        entries are released by sideband ACKs, not by the pipeline.
        """
        return bool(
            self._routing
            or self._waiting
            or self._active
            or self._draining
            or self._retx_ports
            or self._pending_mode is not None
        )

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------
    def request_mode(self, mode: OperationMode) -> None:
        """Ask for an operation-mode change.

        Turning ECC *off* is deferred until every output ARQ buffer has
        drained, so in-flight protected flits keep their ordered go-back-N
        recovery; all other transitions apply immediately.
        """
        if mode == self.mode:
            self._pending_mode = None
            return
        needs_drain = self.behaviour.ecc_enabled and not MODE_BEHAVIOUR[mode].ecc_enabled
        if needs_drain and not self._arq_quiescent():
            self._pending_mode = mode
            self._wake()  # step() applies the switch once the ARQ drains
            return
        self._apply_mode(mode)

    def _apply_mode(self, mode: OperationMode) -> None:
        if mode != self.mode:
            self.mode_switches += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self.trace_clock() if self.trace_clock is not None else 0,
                    "mode",
                    "transition",
                    subject=self.id,
                    old=int(self.mode),
                    new=int(mode),
                    deferred=self._pending_mode is not None,
                )
        self.mode = mode
        self.behaviour = MODE_BEHAVIOUR[mode]
        self._link_slots = self.behaviour.link_slots_per_flit
        self._pending_mode = None

    def _arq_quiescent(self) -> bool:
        return all(
            link.arq.is_empty and not link.pending_retx for link in self.outputs.values()
        )

    # ------------------------------------------------------------------
    # Sideband receivers (called by the Network during delivery)
    # ------------------------------------------------------------------
    def receive_credit(self, port: int, vcs: List[int]) -> None:
        """Apply one cycle's credit returns from output ``port``."""
        link = self.outputs[port]
        credits = link.credits
        depth = self.vc_depth
        for vc in vcs:
            credits[vc] += 1
            if credits[vc] > depth:
                raise RuntimeError(
                    f"router {self.id} port {Port(port).name} vc {vc}: credit overflow"
                )
            if credits[vc] == depth and link.vc_draining[vc]:
                self._maybe_release_output_vc(link, vc)

    def receive_ack(self, port: int, codes: List[int]) -> None:
        """Apply one cycle's ACKs (``seq``) and NACKs (``~seq``) from ``port``."""
        link = self.outputs[port]
        epoch = self.epoch
        arq = link.arq
        for code in codes:
            if code < 0:
                seq = ~code
                epoch.nacks_in[port] += 1
                # Go-back-N rewind: schedule the NACKed flit and everything
                # sent after it (still unacknowledged) for in-order resend.
                link.pending_retx = deque(s for s, _ in arq if s >= seq)
                if link.pending_retx and port not in self._retx_ports:
                    self._retx_ports.append(port)
                    self._wake()
                continue
            epoch.acks_in[port] += 1
            if self._pending_mode is not None:
                # This ACK may be the one that drains the window and
                # unblocks the deferred mode switch in step().
                self._wake()
            if arq.peek(code) is not None:
                item = arq.ack(code)
                epoch.arq_buffer_ops += 1
                # The ACK may complete a draining packet's in-flight set.
                vc = item.vc
                if link.vc_draining[vc] and link.credits[vc] == self.vc_depth:
                    self._maybe_release_output_vc(link, vc)
            if link.pending_retx and code in link.pending_retx:
                # A mode-2 duplicate repaired the flit before the rewind
                # resent it — cancel the now-pointless retransmission.
                link.pending_retx = deque(s for s in link.pending_retx if s != code)

    # ------------------------------------------------------------------
    # Data delivery (called by the Network for each arriving transmission)
    # ------------------------------------------------------------------
    def receive_transmissions(self, port: int, arrivals: List[Transmission], now: int) -> None:
        channel = self.in_channels[port]
        epoch = self.epoch
        error_model = channel.error_model
        flits_in = epoch.flits_in
        vcs = self.inputs[port].vcs
        for t in arrivals:
            flits_in[port] += 1
            errors = error_model.sample_error_bits(t.relaxed)
            if t.protected:
                # The -Link decoder runs on every protected transfer.
                epoch.ecc_decodes += 1
                expected = self.expected_seq[port]
                if t.seq != expected:
                    # Out-of-order under go-back-N (already-accepted
                    # duplicate or a rewound resend of an accepted flit):
                    # drop silently.  Duplicates never carried a credit,
                    # so only refund for credit-bearing transmissions.
                    if not t.duplicate:
                        channel.send_credit(t.vc)
                    epoch.dropped_flits += 1
                    continue
                if errors == 2:
                    # Detected, uncorrectable: drop and NACK.  The credit
                    # is refunded by exactly one member of a mode-2 pair:
                    # a paired original defers to its duplicate (which may
                    # yet deliver into the reserved slot); a corrupted
                    # duplicate at the expected sequence means both copies
                    # died, so the credit comes back here.
                    channel.send_ack(~expected)
                    if not t.paired:
                        channel.send_credit(t.vc)
                    epoch.nacks_out[port] += 1
                    epoch.dropped_flits += 1
                    continue
                if errors == 1:
                    epoch.corrected_errors += 1
                elif errors:
                    # Beyond SECDED: mis-correction corrupts the payload
                    # and escapes to the destination CRC.
                    t.flit.error_mask ^= error_model.sample_mask(errors)
                    epoch.escaped_errors += 1
                channel.send_ack(expected)
                epoch.acks_out[port] += 1
                self.expected_seq[port] = expected + 1
            elif errors:
                t.flit.error_mask ^= error_model.sample_mask(errors)
                epoch.escaped_errors += 1

            # Accept: buffer write into the allocated input VC.
            flit = t.flit
            flit.hops += 1
            vc = vcs[t.vc]
            vc.push(flit)
            epoch.buffer_writes += 1
            if flit.is_head:
                if vc.state is not VCState.IDLE:
                    raise RuntimeError(
                        f"router {self.id}: head flit arrived at busy VC "
                        f"{vc.port.name}.{vc.vc_id}"
                    )
                vc.state = VCState.ROUTING
                vc.current_packet = flit.packet
                vc.stage_ready_cycle = now + 1
                self._routing[vc] = None
                self._wake()

    # ------------------------------------------------------------------
    # Injection from the local network interface
    # ------------------------------------------------------------------
    def try_inject_head(self, flit: Flit, now: int) -> Optional[int]:
        """Inject a head flit from the NI; returns the VC used, or None."""
        local = self.inputs[_LOCAL]
        vc = local.free_vc_for_head()
        if vc is None:
            return None
        vc.push(flit)
        vc.state = VCState.ROUTING
        vc.current_packet = flit.packet
        vc.stage_ready_cycle = now + 1
        self._routing[vc] = None
        self._wake()
        self.epoch.buffer_writes += 1
        self.epoch.flits_in[_LOCAL] += 1
        return vc.vc_id

    def try_inject_body(self, flit: Flit, vc_id: int) -> bool:
        """Inject a body/tail flit on the packet's VC; False if full."""
        vc = self.inputs[_LOCAL].vcs[vc_id]
        if vc.is_full:
            return False
        vc.push(flit)
        self.epoch.buffer_writes += 1
        self.epoch.flits_in[_LOCAL] += 1
        return True

    # ------------------------------------------------------------------
    # Pipeline step (called once per cycle, after deliveries)
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        if self._pending_mode is not None and self._arq_quiescent():
            self._apply_mode(self._pending_mode)
        if self._draining:
            self._stage_drain(now)
        if self._retx_ports:
            used_output = self._stage_retransmissions(now)
        else:
            used_output = None
        if self._active:
            self._stage_switch_allocation(now, used_output)
        if self._waiting:
            self._stage_vc_allocation(now)
        if self._routing:
            self._stage_route_computation(now)

    # -- ST (retransmission drain has priority on each output link) ------
    def _stage_retransmissions(self, now: int) -> List[bool]:
        used_output = [False] * _NUM_PORTS
        for port in list(self._retx_ports):
            link = self.outputs[port]
            # Entries ACKed in the meantime (mode-2 duplicates) are stale.
            while link.pending_retx and link.arq.peek(link.pending_retx[0]) is None:
                link.pending_retx.popleft()
            if not link.pending_retx:
                self._retx_ports.remove(port)
                continue
            # The rewound window has exclusive priority on this link: new
            # flits (with later sequence numbers) must not leapfrog it, or
            # the in-order receiver would silently drop them forever.
            used_output[port] = True
            if link.free_at > now:
                continue
            seq = link.pending_retx[0]
            original = link.arq.peek(seq)
            if link.credits[original.vc] <= 0:
                continue  # wait for the refund credit
            link.pending_retx.popleft()
            if not link.pending_retx:
                self._retx_ports.remove(port)
            link.credits[original.vc] -= 1
            behaviour = self.behaviour
            retx = Transmission(
                flit=original.flit,
                seq=seq,
                vc=original.vc,
                protected=True,
                relaxed=behaviour.timing_relaxed,
                duplicate=False,
                arrive_at=now
                + link.channel.latency
                + ECC_PIPELINE_CYCLES
                + behaviour.extra_cycles_before_send,
            )
            link.channel.send(retx)
            link.free_at = now + 1 + behaviour.extra_cycles_before_send
            link.arq.nack(seq)  # counts the retransmission in ARQ stats
            self.epoch.flit_retransmissions += 1
            self.epoch.flits_out[port] += 1
            self.epoch.arq_buffer_ops += 1
            self.epoch.ecc_encodes += 1
        return used_output

    # -- SA + ST ---------------------------------------------------------
    def _stage_switch_allocation(self, now: int, used_output: Optional[List[bool]]) -> None:
        outputs = self.outputs
        ecc = self.behaviour.ecc_enabled
        # Ready VCs whose output has a free link slot, a credit and ARQ
        # room, grouped by output port.  ``first`` collects the first
        # port's candidates; the dict is built only once a second port
        # shows up.
        first_port = -1
        first: Optional[List[VirtualChannel]] = None
        by_port: Optional[Dict[int, List[VirtualChannel]]] = None
        for vc in self._active:
            if not vc.fifo or vc.stage_ready_cycle > now:
                continue
            out_port = vc.out_port
            if used_output is not None and used_output[out_port]:
                continue
            if out_port != _LOCAL:
                link = outputs[out_port]
                if link.free_at > now or link.credits[vc.out_vc] <= 0:
                    continue
                if ecc:
                    arq = link.arq
                    if len(arq._entries) >= arq.capacity:  # inlined arq.is_full
                        continue
            if first is None:
                first_port = out_port
                first = [vc]
            elif out_port == first_port:
                first.append(vc)
            else:
                if by_port is None:
                    by_port = {first_port: first}
                candidates = by_port.get(out_port)
                if candidates is None:
                    by_port[out_port] = [vc]
                else:
                    candidates.append(vc)
        if first is None:
            return
        arbiters = self._sa_arbiters
        epoch = self.epoch
        if by_port is None:
            # Common case: every ready VC wants the same output port.
            # One grant happens, so the input-port exclusion mask and the
            # rotating output-port order cannot change the outcome.
            epoch.arbitration_ops += 1
            if len(first) == 1:
                vc = first[0]
                arbiters[first_port].take(vc.line)
                self._traverse(vc, first_port, now)
                return
            line = arbiters[first_port].grant_from([vc.line for vc in first])
            for vc in first:
                if vc.line == line:
                    self._traverse(vc, first_port, now)
                    return
            return
        used_input = [False] * _NUM_PORTS
        for out_port in _PORT_ORDERS[now % _NUM_PORTS]:
            candidates = by_port.get(out_port)
            if candidates is None:
                continue
            if len(candidates) == 1:
                vc = candidates[0]
                if used_input[vc.port_index]:
                    continue
                epoch.arbitration_ops += 1
                arbiters[out_port].take(vc.line)
                used_input[vc.port_index] = True
                self._traverse(vc, out_port, now)
                continue
            eligible = [vc.line for vc in candidates if not used_input[vc.port_index]]
            if not eligible:
                continue
            epoch.arbitration_ops += 1
            line = arbiters[out_port].grant_from(eligible)
            if line is None:
                continue
            for vc in candidates:
                if vc.line == line:
                    used_input[vc.port_index] = True
                    self._traverse(vc, out_port, now)
                    break

    def _traverse(self, vc: VirtualChannel, out_port: int, now: int) -> None:
        flit = vc.fifo.popleft()  # SA only grants VCs holding a flit
        vc.sent += 1
        epoch = self.epoch
        epoch.buffer_reads += 1
        epoch.crossbar_traversals += 1
        epoch.flits_out[out_port] += 1
        if vc.port_index != _LOCAL:
            # The flit freed one slot of this input VC: return the credit
            # to the upstream sender over the channel's sideband wire.
            self.in_channels[vc.port_index].send_credit(vc.vc_id)

        if out_port == _LOCAL:
            if self.ejection_sink is None:
                raise RuntimeError(f"router {self.id} has no ejection sink")
            self.ejection_sink(flit, now + 1)
        else:
            link = self.outputs[out_port]
            behaviour = self.behaviour
            protected = behaviour.ecc_enabled
            out_vc = vc.out_vc
            link.credits[out_vc] -= 1
            arrive = (
                now
                + link.channel.latency
                + behaviour.extra_cycles_before_send
                + (ECC_PIPELINE_CYCLES if protected else 0)
            )
            duplicated = behaviour.pre_retransmit and protected
            sent = Transmission(
                flit,
                None,
                out_vc,
                protected,
                behaviour.timing_relaxed,
                False,
                arrive,
                duplicated,
            )
            if protected:
                # The ARQ window stores the sent transmission itself (its
                # consumers read only .flit and .vc), so the rewind logic
                # can resend it without a second allocation per flit.
                sent.seq = link.arq.push(sent)
                epoch.arq_buffer_ops += 1
                epoch.ecc_encodes += 1
            link.channel.send(sent)
            link.free_at = now + self._link_slots
            if duplicated:
                # Mode 2: speculative duplicate one cycle behind.
                link.channel.send(
                    Transmission(
                        flit,
                        sent.seq,
                        out_vc,
                        True,
                        behaviour.timing_relaxed,
                        True,
                        arrive + 1,
                    )
                )
                epoch.duplicate_flits += 1
                epoch.ecc_encodes += 1

        if flit.is_tail:
            out_vc = vc.out_vc
            if out_port == _LOCAL:
                self._local_vc_allocated[out_vc] = False
            else:
                # The tail just spent a credit, so the output VC cannot be
                # released yet: the last credit or ACK home releases it.
                self.outputs[out_port].vc_draining[out_vc] = True
            vc.release()
            del self._active[vc]
        # Body flits remain eligible next cycle; no stage_ready bump needed.

    def _maybe_release_output_vc(self, link: OutputLink, vc: int) -> None:
        # The downstream VC is reusable only when every flit of the old
        # packet is out of flight: all credits home AND no ARQ entry for
        # this VC awaits acknowledgement.  Credits alone are insufficient
        # — a NACKed (refunded) flit still has a pending retransmission
        # that will occupy the downstream buffer later.
        if not (link.vc_draining[vc] and link.credits[vc] == self.vc_depth):
            return
        if any(t.vc == vc for _seq, t in link.arq):
            return
        link.vc_draining[vc] = False
        link.vc_allocated[vc] = False

    # -- VA ---------------------------------------------------------------
    def _stage_vc_allocation(self, now: int) -> None:
        by_port: Dict[int, Dict[int, VirtualChannel]] = {}
        for vc in self._waiting:
            if vc.stage_ready_cycle <= now:
                candidates = by_port.get(vc.out_port)
                if candidates is None:
                    by_port[vc.out_port] = {vc.line: vc}
                else:
                    candidates[vc.line] = vc
        for out_port, candidates in by_port.items():
            if out_port == _LOCAL:
                allocated = self._local_vc_allocated
            else:
                link = self.outputs.get(out_port)
                if link is None:
                    continue
                allocated = link.vc_allocated
            if all(allocated):
                continue
            eligible = list(candidates)
            arbiter = self._va_arbiters[out_port]
            # A grant marks ``allocated[out_vc]`` only, never a later
            # index, so iterating the live list sees each VC's free state
            # as of the start of this port's allocation.
            for out_vc, taken in enumerate(allocated):
                if taken:
                    continue
                if not eligible:
                    break
                self.epoch.arbitration_ops += 1
                line = arbiter.grant_from(eligible)
                if line is None:
                    break
                eligible.remove(line)
                winner = candidates[line]
                winner.out_vc = out_vc
                winner.state = VCState.ACTIVE
                winner.stage_ready_cycle = now + 1
                del self._waiting[winner]
                self._active[winner] = None
                allocated[out_vc] = True

    # -- RC ---------------------------------------------------------------
    def _stage_route_computation(self, now: int) -> None:
        fault_state = self.fault_state
        faulty = fault_state is not None and fault_state.any_faults
        for vc in list(self._routing):
            if vc.stage_ready_cycle <= now:
                head = vc.front
                out = int(self.routing_fn(self.topology, self.id, head.dest))
                if faulty:
                    if not fault_state.reachable(self.id, head.dest):
                        self._drop_in_routing(vc, now, unreachable=True)
                        continue
                    if out != _LOCAL and not fault_state.link_alive(self.id, out):
                        # A deterministic (non-fault-aware) policy steered
                        # the packet into a dead link: discard with
                        # accounting rather than wedging the buffer.
                        self._drop_in_routing(vc, now, unreachable=False)
                        continue
                    if self._fault_aware and out != int(
                        xy_route(self.topology, self.id, head.dest)
                    ):
                        self.epoch.reroutes += 1
                vc.out_port = out
                head.packet.path.append(self.id)
                vc.state = VCState.WAITING_VC
                vc.stage_ready_cycle = now + 1
                del self._routing[vc]
                self._waiting[vc] = None

    def _drop_in_routing(self, vc: VirtualChannel, now: int, unreachable: bool) -> None:
        """Discard the packet heading this VC before it allocates anything.

        The flits already buffered (and any still arriving from upstream)
        drain through the DRAINING state so wormhole flow control stays
        consistent; the message-level consequences (drop the source
        store entry, count the loss) go through the network's drop sink.
        """
        packet = vc.front.packet
        packet.lost = True
        del self._routing[vc]
        vc.state = VCState.DRAINING
        self._draining[vc] = None
        if self.drop_sink is not None:
            self.drop_sink(packet, self.id, unreachable)

    # -- fault drain ------------------------------------------------------
    def _stage_drain(self, now: int) -> None:
        """Discard flits of killed packets in place, refunding credits.

        A DRAINING VC behaves like a zero-latency sink: it consumes its
        FIFO (credits still flow upstream so the rest of the worm keeps
        arriving) and releases once the tail — real or ghost — passes.
        """
        for vc in list(self._draining):
            finished = False
            while vc.fifo:
                flit = vc.pop()
                self.epoch.buffer_reads += 1
                self.epoch.dropped_flits += 1
                if vc.port != Port.LOCAL:
                    self.in_channels[int(vc.port)].send_credit(vc.vc_id)
                if flit.is_tail:
                    finished = True
                    break
            if finished:
                del self._draining[vc]
                vc.release()

    # ------------------------------------------------------------------
    # Hard-fault sweeps (called by Network.kill_link / kill_router)
    # ------------------------------------------------------------------
    def handle_dead_output(self, port: int, now: int, mark: Callable[[Packet], None]) -> None:
        """Unwind sender-side pipeline state after ``port``'s link died.

        Worms that have not pushed a single flit across the link are sent
        back to route computation (a fault-aware policy will pick a
        detour; XY will walk into the RC drop path).  Worms already
        partially across are truncated: their upstream remainder drains
        in place, and ``mark`` records the packet as lost so the network
        can decide between source retransmission and a counted drop.
        """
        self._wake()  # kill sweeps may move VCs back into live stages
        for vc in list(self._waiting):
            if vc.out_port == port:
                del self._waiting[vc]
                vc.state = VCState.ROUTING
                vc.out_port = None
                vc.stage_ready_cycle = now + 1
                self._routing[vc] = None
        for vc in list(self._active):
            if vc.out_port == port:
                del self._active[vc]
                if vc.sent == 0:
                    # Nothing crossed: the packet is intact; re-route it.
                    vc.state = VCState.ROUTING
                    vc.out_port = None
                    vc.out_vc = None
                    vc.stage_ready_cycle = now + 1
                    self._routing[vc] = None
                else:
                    mark(vc.current_packet)
                    vc.state = VCState.DRAINING
                    self._draining[vc] = None

    def handle_dead_input(self, port: int, now: int) -> None:
        """Repair receiver-side worms truncated by ``port``'s dead link.

        Packets whose missing flits died on the link can never complete;
        if this VC already forwarded part of the worm downstream, a ghost
        tail is appended so every later hop still sees a full worm.
        Packets not marked lost are complete up to their buffered tail
        and drain normally.
        """
        for vc in self.inputs[port].vcs:
            packet = vc.current_packet
            if packet is None or not packet.lost:
                continue
            if vc.state is VCState.ACTIVE and vc.sent > 0:
                while vc.fifo:
                    vc.pop()
                    self.epoch.dropped_flits += 1
                vc.push(packet.make_ghost_tail())
                self.epoch.buffer_writes += 1
            else:
                # Nothing escaped this VC (or it was already draining and
                # its tail died on the link): unwind it completely.
                while vc.fifo:
                    vc.pop()
                    self.epoch.dropped_flits += 1
                if vc.state is VCState.ACTIVE:
                    self._release_downstream(vc)
                self._routing.pop(vc, None)
                self._waiting.pop(vc, None)
                self._active.pop(vc, None)
                self._draining.pop(vc, None)
                vc.release()

    def flush_all(self, mark: Callable[[Packet], None]) -> int:
        """Hard-flush every VC (the router itself died); returns flits dropped.

        No credits are refunded and no ghosts are synthesized: every
        incident channel is already dead, so neighbours were repaired by
        the per-link sweeps and nothing can arrive here again.
        """
        dropped = 0
        for input_port in self.inputs:
            for vc in input_port.vcs:
                if vc.state is VCState.IDLE and not vc.fifo:
                    continue
                if vc.current_packet is not None:
                    mark(vc.current_packet)
                while vc.fifo:
                    flit = vc.pop()
                    mark(flit.packet)
                    dropped += 1
                vc.release()
        self._routing.clear()
        self._waiting.clear()
        self._active.clear()
        self._draining.clear()
        self._retx_ports.clear()
        self.epoch.dropped_flits += dropped
        return dropped

    def _release_downstream(self, vc: VirtualChannel) -> None:
        """Free the output VC an unwound ACTIVE worm had allocated."""
        out_port, out_vc = vc.out_port, vc.out_vc
        if out_port is None or out_vc is None:
            return
        if out_port == _LOCAL:
            self._local_vc_allocated[out_vc] = False
            return
        link = self.outputs[out_port]
        if link.alive:
            link.vc_draining[out_vc] = True
            self._maybe_release_output_vc(link, out_vc)
        else:
            link.vc_draining[out_vc] = False
            link.vc_allocated[out_vc] = False

    # ------------------------------------------------------------------
    def occupied_input_vcs(self) -> List[int]:
        """Occupied VC count per input port (Table I feature 1)."""
        return [port.occupied_vcs for port in self.inputs]

    @property
    def is_idle(self) -> bool:
        """No packet anywhere in this router's pipeline or ARQ windows."""
        return not (
            self._routing
            or self._waiting
            or self._active
            or self._draining
            or self._retx_ports
            or any(not link.arq.is_empty for link in self.outputs.values())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router({self.id}, mode={self.mode.name})"
