"""Statistics counters for routers and the whole network.

Two granularities matter:

* **Epoch counters** (:class:`RouterEpochStats`) — reset every control
  epoch; they feed the RL state features of Table I (link utilization,
  NACK rates, buffer occupancy) and the per-router reward (E2E latency of
  packets that traversed the router, power).
* **Run counters** (:class:`NetworkStats`) — accumulated over the whole
  measurement phase; they produce the evaluation metrics of Section VI
  (retransmissions, latency, execution time, energy).
"""

from __future__ import annotations

from typing import Dict, List

from repro.noc.topology import Port

__all__ = ["RouterEpochStats", "NetworkStats", "LatencyAccumulator"]

_NUM_PORTS = len(Port)


class LatencyAccumulator:
    """Streaming count, sum and mean of packet latencies."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0

    def record(self, latency: int) -> None:
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.count += 1
        self.total += latency

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class RouterEpochStats:
    """Per-router counters reset at every control epoch.

    The per-port arrays are indexed by :class:`~repro.noc.topology.Port`
    values; they directly back the Table I state features.
    """

    __slots__ = (
        "flits_in",
        "flits_out",
        "nacks_in",
        "nacks_out",
        "acks_in",
        "acks_out",
        "flit_retransmissions",
        "corrected_errors",
        "escaped_errors",
        "delivered_latency_total",
        "delivered_packets",
        "buffer_writes",
        "buffer_reads",
        "crossbar_traversals",
        "arbitration_ops",
        "ecc_encodes",
        "ecc_decodes",
        "arq_buffer_ops",
        "duplicate_flits",
        "dropped_flits",
        "crc_ops",
        "core_activity_flits",
        "reroutes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.flits_in = [0] * _NUM_PORTS
        self.flits_out = [0] * _NUM_PORTS
        self.nacks_in = [0] * _NUM_PORTS   # NACKs received (per output port)
        self.nacks_out = [0] * _NUM_PORTS  # NACKs sent (per input port)
        self.acks_in = [0] * _NUM_PORTS
        self.acks_out = [0] * _NUM_PORTS
        self.flit_retransmissions = 0
        self.corrected_errors = 0
        self.escaped_errors = 0
        #: summed E2E latency / count of packets that traversed this router
        self.delivered_latency_total = 0
        self.delivered_packets = 0
        # Energy-model event counters
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.crossbar_traversals = 0
        self.arbitration_ops = 0
        self.ecc_encodes = 0
        self.ecc_decodes = 0
        self.arq_buffer_ops = 0
        self.duplicate_flits = 0
        self.dropped_flits = 0
        self.crc_ops = 0
        #: flits of *unique* work at the local NI (first-attempt
        #: injections + deliveries) — drives the core-power proxy without
        #: letting NoC retransmissions heat the core
        self.core_activity_flits = 0
        #: route computations diverted from the fault-free XY choice by a
        #: hard fault (graceful-degradation metric)
        self.reroutes = 0

    # ------------------------------------------------------------------
    def input_link_utilization(self, epoch_cycles: int) -> List[float]:
        """Input flits/cycle per port (Table I feature 2)."""
        return [n / epoch_cycles for n in self.flits_in]

    def output_link_utilization(self, epoch_cycles: int) -> List[float]:
        """Output flits/cycle per port (Table I feature 3)."""
        return [n / epoch_cycles for n in self.flits_out]

    def input_nack_rate(self) -> List[float]:
        """NACKs received as a fraction of flits sent, per output port
        (Table I feature 4: percentage rate of NACK received)."""
        return [
            n / sent if sent else 0.0 for n, sent in zip(self.nacks_in, self.flits_out)
        ]

    def output_nack_rate(self) -> List[float]:
        """NACKs sent as a fraction of flits received, per input port
        (Table I feature 5: percentage rate of NACK sent)."""
        return [
            n / received if received else 0.0
            for n, received in zip(self.nacks_out, self.flits_in)
        ]

    def mean_delivered_latency(self, default: float) -> float:
        """Average E2E latency of packets that traversed this router."""
        if self.delivered_packets == 0:
            return default
        return self.delivered_latency_total / self.delivered_packets


class NetworkStats:
    """Whole-run counters for the evaluation metrics of Section VI."""

    __slots__ = (
        "cycles",
        "packets_injected",
        "packets_delivered",
        "flits_delivered",
        "packet_retransmissions",
        "flit_retransmissions",
        "corrected_errors",
        "escaped_errors",
        "crc_failures",
        "duplicate_flits",
        "dropped_flits",
        "silent_corruptions",
        "latency",
        "mode_cycles",
        "messages_created",
        "messages_dropped",
        "packets_dropped",
        "unreachable_drops",
        "reroutes",
        "fault_recoveries",
        "link_kills",
        "router_kills",
        "buffer_ops",
        "outstanding_messages",
    )

    def __init__(self) -> None:
        self.cycles = 0
        self.packets_injected = 0
        self.packets_delivered = 0
        self.flits_delivered = 0
        #: end-to-end packet retransmissions triggered by the destination CRC
        self.packet_retransmissions = 0
        #: per-hop flit retransmissions triggered by ARQ NACKs
        self.flit_retransmissions = 0
        self.corrected_errors = 0
        self.escaped_errors = 0
        self.crc_failures = 0
        self.duplicate_flits = 0
        self.dropped_flits = 0
        self.silent_corruptions = 0
        self.latency = LatencyAccumulator()
        #: cycles spent in each operation mode, summed over routers
        self.mode_cycles: Dict[int, int] = {0: 0, 1: 0, 2: 0, 3: 0}
        # Hard-fault accounting.  The conservation invariant the
        # watchdog enforces is:
        #   messages_created == packets_delivered + messages_dropped
        #                       + outstanding (summed over source NIs)
        #: logical messages handed to source NIs
        self.messages_created = 0
        #: messages abandoned (destination unreachable or source dead)
        self.messages_dropped = 0
        #: in-network transmission attempts destroyed by hard faults
        self.packets_dropped = 0
        #: packets dropped specifically because no alive path existed
        self.unreachable_drops = 0
        #: route computations diverted from the XY choice by faults
        self.reroutes = 0
        #: fault-truncated attempts recovered by source retransmission
        self.fault_recoveries = 0
        self.link_kills = 0
        self.router_kills = 0
        #: harvested buffer read/write/retransmission events — the
        #: monotonic activity signal the deadlock watchdog compares
        self.buffer_ops = 0
        #: live count of messages accepted by source NIs and not yet
        #: confirmed/abandoned — maintained incrementally so the drain
        #: loop's quiescence check is O(1) instead of an all-NI scan
        #: (the watchdog cross-checks it against the scan); deliberately
        #: not part of :meth:`as_dict` — it is bookkeeping, not a metric
        self.outstanding_messages = 0

    # ------------------------------------------------------------------
    @property
    def retransmission_events(self) -> int:
        """Fault-caused retransmissions (Fig. 6's metric): one event per
        end-to-end packet retransmission or per-hop flit retransmission."""
        return self.packet_retransmissions + self.flit_retransmissions

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    @property
    def throughput(self) -> float:
        """Delivered flits per cycle across the whole network."""
        return self.flits_delivered / self.cycles if self.cycles else 0.0

    @property
    def delivered_fraction(self) -> float:
        """Messages delivered / messages created (graceful degradation)."""
        if self.messages_created == 0:
            return 1.0
        return self.packets_delivered / self.messages_created

    def as_dict(self) -> Dict[str, float]:
        """Flat summary used by the experiment harness and benches."""
        return {
            "cycles": self.cycles,
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "flits_delivered": self.flits_delivered,
            "packet_retransmissions": self.packet_retransmissions,
            "flit_retransmissions": self.flit_retransmissions,
            "retransmission_events": self.retransmission_events,
            "corrected_errors": self.corrected_errors,
            "escaped_errors": self.escaped_errors,
            "crc_failures": self.crc_failures,
            "duplicate_flits": self.duplicate_flits,
            "dropped_flits": self.dropped_flits,
            "silent_corruptions": self.silent_corruptions,
            "mean_latency": self.mean_latency,
            "throughput": self.throughput,
            "messages_created": self.messages_created,
            "messages_dropped": self.messages_dropped,
            "packets_dropped": self.packets_dropped,
            "unreachable_drops": self.unreachable_drops,
            "reroutes": self.reroutes,
            "fault_recoveries": self.fault_recoveries,
            "link_kills": self.link_kills,
            "router_kills": self.router_kills,
            "delivered_fraction": self.delivered_fraction,
        }
