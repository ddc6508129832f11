"""Runtime invariant watchdogs: conservation, deadlock, livelock.

A NoC that can lose links must prove, continuously, that it is not
quietly wedging: every watchdog here turns a silent hang or a slow leak
into a structured exception carrying a machine-readable ``report``
dictionary that names the stuck routers, ports, VCs, and packets.

Three invariants are polled every ``interval`` cycles from
:meth:`repro.noc.network.Network.cycle`:

* **packet conservation** — messages created must equal messages
  delivered plus messages dropped plus messages still outstanding at
  their source NIs.  Any imbalance means the protocol lost or duplicated
  a message, and is reported immediately;
* **deadlock** — messages are outstanding but no buffer has moved a flit
  for ``deadlock_cycles``: classic cyclic-dependency deadlock (or a
  protocol stall).  The report dumps every non-idle VC;
* **livelock / starvation** — some message has been outstanding longer
  than ``max_packet_age`` cycles even though the network is still
  moving: packets are circulating (or endlessly retransmitted) without
  delivering.

Watchdogs are cheap: one pass over the NIs plus integer compares, a few
hundred times per million cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.noc.buffers import VCState

__all__ = [
    "NoCInvariantError",
    "ConservationError",
    "DeadlockError",
    "LivelockError",
    "NetworkWatchdog",
]


class NoCInvariantError(RuntimeError):
    """Base class: a runtime network invariant was violated.

    ``report`` is a JSON-serializable diagnosis (cycle, counters, stuck
    resources) for logs and chaos-campaign result payloads.
    """

    def __init__(self, message: str, report: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.report = report if report is not None else {}


class ConservationError(NoCInvariantError):
    """created != delivered + dropped + outstanding."""


class DeadlockError(NoCInvariantError):
    """Flits in flight but nothing has moved for the detection window."""


class LivelockError(NoCInvariantError):
    """A message exceeded the maximum age while the network still moves."""


class NetworkWatchdog:
    """Polls the three invariants over one :class:`Network` instance."""

    __slots__ = (
        "network",
        "interval",
        "deadlock_cycles",
        "max_packet_age",
        "checks",
        "_last_activity",
        "_last_progress_cycle",
    )

    def __init__(
        self,
        network,
        interval: int = 256,
        deadlock_cycles: int = 4096,
        max_packet_age: int = 500_000,
    ) -> None:
        if interval < 0 or deadlock_cycles <= 0:
            raise ValueError("watchdog windows must be positive")
        self.network = network
        #: cycles between polls; 0 disables the watchdog entirely
        self.interval = interval
        self.deadlock_cycles = deadlock_cycles
        #: 0 disables the livelock check only
        self.max_packet_age = max_packet_age
        self.checks = 0
        self._last_activity = -1
        self._last_progress_cycle = 0

    # ------------------------------------------------------------------
    def _activity(self) -> int:
        """Monotonic count of buffer/link events since the run started.

        Harvested epochs contribute through the network's folded
        ``buffer_ops`` counter; the live (unharvested) epoch counters are
        added on top, so the sum never decreases across epoch resets.
        """
        live = 0
        for router in self.network.routers:
            epoch = router.epoch
            live += epoch.buffer_writes + epoch.buffer_reads + epoch.flit_retransmissions
        return self.network.stats.buffer_ops + live

    def _trip(self, now: int, kind: str) -> None:
        tracer = self.network.tracer
        if tracer is not None:
            tracer.emit(now, "watchdog", "trip", error=kind)

    def check(self, now: int) -> None:
        """Run all enabled invariant checks; raises on violation."""
        self.checks += 1
        network = self.network
        stats = network.stats
        outstanding = sum(ni.outstanding_messages for ni in network.interfaces)
        tracer = network.tracer
        if tracer is not None:
            tracer.emit(now, "watchdog", "check", outstanding=outstanding)

        # The O(1) quiescence counter must agree with the ground-truth
        # NI scan — a divergence means an enqueue/release/drop path
        # forgot its increment and the drain loop would mis-terminate.
        if stats.outstanding_messages != outstanding:
            self._trip(now, "outstanding_counter")
            raise ConservationError(
                f"outstanding-message counter diverged at cycle {now}: "
                f"counter {stats.outstanding_messages} != scan {outstanding}",
                report={
                    "kind": "outstanding_counter",
                    "cycle": now,
                    "counter": stats.outstanding_messages,
                    "scan": outstanding,
                },
            )

        expected = stats.messages_created - stats.packets_delivered - stats.messages_dropped
        if expected != outstanding:
            self._trip(now, "conservation")
            raise ConservationError(
                f"packet conservation violated at cycle {now}: created "
                f"{stats.messages_created} != delivered {stats.packets_delivered} "
                f"+ dropped {stats.messages_dropped} + outstanding {outstanding}",
                report={
                    "kind": "conservation",
                    "cycle": now,
                    "messages_created": stats.messages_created,
                    "packets_delivered": stats.packets_delivered,
                    "messages_dropped": stats.messages_dropped,
                    "outstanding": outstanding,
                },
            )

        if outstanding == 0:
            self._last_activity = self._activity()
            self._last_progress_cycle = now
            return

        activity = self._activity()
        if activity != self._last_activity:
            self._last_activity = activity
            self._last_progress_cycle = now
        elif now - self._last_progress_cycle >= self.deadlock_cycles:
            self._trip(now, "deadlock")
            raise DeadlockError(
                f"deadlock: {outstanding} message(s) outstanding but no flit "
                f"moved for {now - self._last_progress_cycle} cycles",
                report=self._stall_report("deadlock", now, outstanding),
            )

        if self.max_packet_age:
            oldest_age = 0
            oldest: List[Dict] = []
            for ni in network.interfaces:
                for message_id, packet in ni._store.items():
                    age = now - packet.created_at
                    if age > self.max_packet_age:
                        oldest.append(
                            {
                                "message_id": message_id,
                                "src": packet.src,
                                "dest": packet.dest,
                                "age": age,
                                "retransmission": packet.retransmission,
                            }
                        )
                        oldest_age = max(oldest_age, age)
            if oldest:
                report = self._stall_report("livelock", now, outstanding)
                report["overage_messages"] = sorted(
                    oldest, key=lambda m: -m["age"]
                )[:16]
                self._trip(now, "livelock")
                raise LivelockError(
                    f"livelock/starvation: {len(oldest)} message(s) older than "
                    f"{self.max_packet_age} cycles (oldest {oldest_age})",
                    report=report,
                )

    def rearm(self, now: int) -> None:
        """Restart the progress window after a handled trip.

        A supervisor that catches an invariant error and intervenes
        (safe-mode degradation, mode pinning) calls this so the network
        gets one fresh ``deadlock_cycles`` window to start moving again
        — otherwise the very next poll would re-raise the same stall.
        """
        self._last_activity = -1
        self._last_progress_cycle = now

    # ------------------------------------------------------------------
    def _stall_report(self, kind: str, now: int, outstanding: int) -> Dict:
        """Dump every non-idle VC and pending ARQ window for diagnosis."""
        stuck: List[Dict] = []
        for router in self.network.routers:
            for port in router.inputs:
                for vc in port.vcs:
                    if vc.state is VCState.IDLE and not vc.fifo:
                        continue
                    packet = vc.current_packet
                    stuck.append(
                        {
                            "router": router.id,
                            "port": port.port.name,
                            "vc": vc.vc_id,
                            "state": vc.state.value,
                            "occupancy": len(vc.fifo),
                            "out_port": None if vc.out_port is None else int(vc.out_port),
                            "packet": None
                            if packet is None
                            else {
                                "message_id": packet.message_id,
                                "src": packet.src,
                                "dest": packet.dest,
                                "age": now - packet.created_at,
                                "lost": packet.lost,
                            },
                        }
                    )
            for port, link in router.outputs.items():
                if link.pending_retx or not link.arq.is_empty:
                    stuck.append(
                        {
                            "router": router.id,
                            "output_port": int(port),
                            "pending_retx": len(link.pending_retx),
                            "arq_occupancy": len(link.arq),
                            "alive": link.alive,
                        }
                    )
        return {
            "kind": kind,
            "cycle": now,
            "outstanding": outstanding,
            "stuck": stuck[:64],
            "stuck_total": len(stuck),
        }
