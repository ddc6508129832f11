"""Network interfaces (NIs): packetization, CRC, source retransmission.

Every core attaches to its router through an NI.  Following the paper's
baseline protection (Section II, Fig. 1(b)):

* the **source NI** CRC-encodes each packet, keeps a copy of every
  in-flight message, and re-injects a fresh copy when the destination
  requests a retransmission;
* the **destination NI** reassembles flits, checks the CRC over the
  payload *as received* (accumulated uncorrected bit errors applied), and
  on a failure sends a retransmission request back to the source — the
  full-packet, end-to-end recovery that makes the CRC-only design slow
  and power-hungry under faults, which is exactly the behaviour the
  proposed RL design tries to avoid.

The retransmission request and the delivery notification travel on a
modelled sideband whose latency is the hop distance plus a small constant,
rather than through simulated flits — the standard simplification, since
these control messages are tiny compared to data packets.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.coding.crc import CRC
from repro.noc.packet import Flit, Packet
from repro.noc.router import Router
from repro.noc.stats import NetworkStats
from repro.noc.topology import MeshTopology

__all__ = ["NetworkInterface"]

#: Fixed component of the sideband retransmission-request latency.
SIDEBAND_BASE_LATENCY = 4


def _no_peer(_node: int) -> Optional["NetworkInterface"]:
    """Placeholder peer lookup before the Network wires the NIs together
    (module-level, so an unwired NI still pickles)."""
    return None


class NetworkInterface:
    """The NI of one core/router pair."""

    def __init__(
        self,
        node_id: int,
        router: Router,
        topology: MeshTopology,
        crc: CRC,
        stats: NetworkStats,
    ) -> None:
        self.id = node_id
        self.router = router
        self.topology = topology
        self.crc = crc
        self.stats = stats
        #: cleared when this NI's router is hard-killed
        self.alive = True
        router.ejection_sink = self._eject

        #: messages waiting to start injection (fresh plus retransmitted)
        self._inject_queue: Deque[Packet] = deque()
        #: the packet currently streaming flits into the router
        self._current: Optional[Packet] = None
        self._current_index = 0
        self._current_vc: Optional[int] = None
        #: ``router.local_pops`` when the router last refused a flit
        self._refused_at = -1
        #: source-side copies of in-flight messages, by message id
        self._store: Dict[int, Packet] = {}
        #: (due_cycle, message_id) retransmission requests received
        self._retx_due: List[Tuple[int, int]] = []
        #: flits ejected by the router, pending NI processing
        self._eject_queue: Deque[Tuple[int, Flit]] = deque()
        #: per-packet count of ejected flits, for reassembly bookkeeping
        self._rx_count: Dict[Packet, int] = {}
        #: peer lookup installed by the Network (node id -> NI)
        self.peer: Callable[[int], "NetworkInterface"] = _no_peer
        #: Network-owned active sets (None outside a Network); an NI is
        #: registered for injection while it holds source-side work and
        #: for ejection while router-ejected flits await processing
        self._act_inject: Optional[Set[int]] = None
        self._act_eject: Optional[Set[int]] = None
        #: observability hook installed by Network.attach_tracer
        self.tracer = None

    def bind_activity(self, inject: Set[int], eject: Set[int]) -> None:
        """Attach this NI to its Network's active-NI sets."""
        self._act_inject = inject
        self._act_eject = eject

    def _wake_inject(self) -> None:
        if self._act_inject is not None:
            self._act_inject.add(self.id)

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Accept a new message from the core for injection.

        A message without an id gets the network's creation index, so
        ids run from 0 in creation order on every network and a pickled
        network carries its own next id.
        """
        if packet.src != self.id:
            raise ValueError(f"packet source {packet.src} does not match NI {self.id}")
        if packet.message_id is None:
            packet.message_id = self.stats.messages_created
        self.stats.messages_created += 1
        if not self.alive:
            # A dead core cannot send: account the message as
            # immediately dropped so conservation still balances.
            self.stats.messages_dropped += 1
            return
        if packet.crc_check is None:
            packet.crc_check = self.crc.compute(
                packet.combined_payload(), packet.total_bits
            )
            self.router.epoch.crc_ops += packet.size
        self._store[packet.message_id] = packet
        self.stats.outstanding_messages += 1
        self._inject_queue.append(packet)
        self._wake_inject()

    def schedule_retransmission(self, message_id: int, due_cycle: int) -> None:
        """Destination asked for a fresh copy of ``message_id``."""
        if not self.alive:
            # A dead source can never retransmit: the message is lost.
            self.drop_message(message_id)
            return
        heapq.heappush(self._retx_due, (due_cycle, message_id))
        self._wake_inject()

    def release(self, message_id: int) -> None:
        """Delivery confirmed: drop the stored copy."""
        if self._store.pop(message_id, None) is not None:
            self.stats.outstanding_messages -= 1

    def drop_message(self, message_id: int) -> bool:
        """Abandon a message for good (unreachable or dead endpoint).

        Returns True if the message was still outstanding here; the
        messages_dropped counter moves only in that case, so a message is
        never double-counted between racing drop paths.
        """
        if self._store.pop(message_id, None) is None:
            return False
        self.stats.outstanding_messages -= 1
        self.stats.messages_dropped += 1
        return True

    def retire(self, mark) -> None:
        """This NI's router died: abandon all local work in progress.

        ``mark`` flags in-network packets as lost (the network then
        routes them through its recover-or-drop accounting); messages
        that exist only in local queues are dropped directly.
        """
        self.alive = False
        if self._current is not None:
            mark(self._current)
            self._current = None
            self._current_vc = None
        for packet in self._inject_queue:
            mark(packet)
        self._inject_queue.clear()
        while self._eject_queue:
            _, flit = self._eject_queue.popleft()
            mark(flit.packet)
        self._rx_count.clear()
        while self._retx_due:
            _, message_id = heapq.heappop(self._retx_due)
            self.drop_message(message_id)

    @property
    def outstanding_messages(self) -> int:
        """Messages accepted but not yet confirmed delivered."""
        return len(self._store)

    @property
    def inject_backlog(self) -> int:
        """Packets queued for injection (including the one in progress)."""
        return len(self._inject_queue) + (1 if self._current is not None else 0)

    def step_inject(self, now: int) -> None:
        """Inject at most one flit into the local router port."""
        if not self.alive:
            return
        while self._retx_due and self._retx_due[0][0] <= now:
            _, message_id = heapq.heappop(self._retx_due)
            original = self._store.get(message_id)
            if original is None:
                continue  # delivered in the meantime; request was stale
            clone = original.clone_for_retransmission(now)
            self._store[message_id] = clone
            self.router.epoch.crc_ops += clone.size
            self._inject_queue.appendleft(clone)

        router = self.router
        if self._refused_at == router.local_pops:
            return  # the local port is still as full as it was
        if self._current is None:
            if not self._inject_queue:
                return
            self._current = self._inject_queue.popleft()
            self._current_index = 0
            self._current_vc = None

        packet = self._current
        flit = packet.flits[self._current_index]
        if flit.is_head and self._current_vc is None:
            vc = router.try_inject_head(flit, now)
            if vc is None:  # all local input VCs busy
                self._refused_at = router.local_pops
                return
            self._current_vc = vc
            self.stats.packets_injected += 1
        else:
            if not router.try_inject_body(flit, self._current_vc):
                self._refused_at = router.local_pops  # VC full
                return
        if packet.retransmission == 0:
            self.router.epoch.core_activity_flits += 1
        self._current_index += 1
        if self._current_index >= packet.size:
            self._current = None
            self._current_vc = None

    # ------------------------------------------------------------------
    # Destination side
    # ------------------------------------------------------------------
    def _eject(self, flit: Flit, deliver_at: int) -> None:
        self._eject_queue.append((deliver_at, flit))
        if self._act_eject is not None:
            self._act_eject.add(self.id)

    def step_eject(self, now: int) -> None:
        """Consume ejected flits; finish packets on their tail flit."""
        if not self.alive:
            return
        while self._eject_queue and self._eject_queue[0][0] <= now:
            _, flit = self._eject_queue.popleft()
            packet = flit.packet
            if packet.lost:
                # Hard-fault carcass (possibly terminated by a ghost
                # tail): the flit count cannot add up and the message is
                # already accounted for — discard, never reassemble.
                if flit.is_tail:
                    self._rx_count.pop(packet, None)
                continue
            self._rx_count[packet] = self._rx_count.get(packet, 0) + 1
            if not flit.is_tail:
                continue
            received = self._rx_count.pop(packet)
            if received != packet.size:
                raise RuntimeError(
                    f"NI {self.id}: message {packet.message_id} ejected {received} "
                    f"of {packet.size} flits"
                )
            self._finish_packet(packet, now)

    def _finish_packet(self, packet: Packet, now: int) -> None:
        self.router.epoch.crc_ops += packet.size
        corrupted = any(f.error_mask for f in packet.flits)
        # An error-free packet is the word its CRC was computed over
        # (``enqueue``), so only a corrupted one is checked.
        if not corrupted or self.crc.verify(
            packet.combined_payload(received=True), packet.total_bits, packet.crc_check
        ):
            if corrupted:
                # An escaped error pattern the CRC cannot see: silent
                # data corruption, worth tracking separately.
                self.stats.silent_corruptions += 1
            latency = now - packet.created_at
            self.router.epoch.core_activity_flits += packet.size
            self.stats.packets_delivered += 1
            self.stats.flits_delivered += packet.size
            self.stats.latency.record(latency)
            source = self.peer(packet.src)
            if source is not None:
                source.release(packet.message_id)
            router_lookup = self._router_lookup
            for router_id in set(packet.path):
                epoch = router_lookup(router_id).epoch
                epoch.delivered_latency_total += latency
                epoch.delivered_packets += 1
        else:
            self.stats.crc_failures += 1
            self.stats.packet_retransmissions += 1
            source = self.peer(packet.src)
            delay = (
                self.topology.hop_distance(packet.src, packet.dest)
                + SIDEBAND_BASE_LATENCY
            )
            source.schedule_retransmission(packet.message_id, now + delay)
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    "retx",
                    "crc_retransmission",
                    subject=self.id,
                    message=packet.message_id,
                    src=packet.src,
                    due=now + delay,
                )

    #: router lookup installed by the Network (router id -> Router)
    _router_lookup: Callable[[int], Router] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkInterface({self.id})"
