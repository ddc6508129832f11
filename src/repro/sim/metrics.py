"""Run-level metric capture and the derived figures of merit.

The evaluation metrics of Section VI, computed over the measurement
(testing) phase only:

* retransmission events (Fig. 6) — end-to-end packet retransmissions
  plus per-hop flit retransmissions, each counted once;
* execution time (Fig. 7) — cycles from the start of the trace until
  every message is delivered; speed-up is its inverse ratio;
* mean end-to-end packet latency (Fig. 8);
* energy efficiency (Fig. 9) — delivered flits per microjoule of total
  (static + dynamic) NoC energy;
* dynamic power (Fig. 10) — dynamic NoC energy over the execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.noc.stats import NetworkStats
from repro.power.orion import CLOCK_HZ

__all__ = ["RunResult", "StatsSnapshot"]


class StatsSnapshot:
    """Point-in-time copy of the monotonic network counters, so a
    measurement window can be expressed as a difference of snapshots."""

    _FIELDS = (
        "packets_delivered",
        "flits_delivered",
        "packet_retransmissions",
        "flit_retransmissions",
        "corrected_errors",
        "escaped_errors",
        "duplicate_flits",
        "silent_corruptions",
        "messages_created",
        "messages_dropped",
        "unreachable_drops",
        "reroutes",
        "fault_recoveries",
    )

    def __init__(self, stats: NetworkStats) -> None:
        for name in self._FIELDS:
            setattr(self, name, getattr(stats, name))
        self.latency_count = stats.latency.count
        self.latency_total = stats.latency.total
        self.mode_cycles = dict(stats.mode_cycles)

    def delta(self, later: "StatsSnapshot") -> Dict[str, float]:
        out = {
            name: getattr(later, name) - getattr(self, name) for name in self._FIELDS
        }
        count = later.latency_count - self.latency_count
        total = later.latency_total - self.latency_total
        out["mean_latency"] = total / count if count else 0.0
        out["mode_cycles"] = {
            mode: later.mode_cycles[mode] - self.mode_cycles[mode]
            for mode in later.mode_cycles
        }
        return out


@dataclass
class RunResult:
    """Metrics of one (design, benchmark) measurement run."""

    design: str
    benchmark: str
    execution_cycles: int
    mean_latency: float
    packets_delivered: int
    flits_delivered: int
    packet_retransmissions: int
    flit_retransmissions: int
    corrected_errors: int
    escaped_errors: int
    silent_corruptions: int
    duplicate_flits: int
    dynamic_energy_pj: float
    static_energy_pj: float
    mode_cycles: Dict[int, int] = field(default_factory=dict)
    mean_temperature: float = 0.0
    mean_error_probability: float = 0.0
    # Graceful-degradation metrics
    messages_created: int = 0
    messages_dropped: int = 0
    reroutes: int = 0
    fault_recoveries: int = 0
    unreachable_drops: int = 0
    post_fault_latency: float = 0.0
    # Control-plane degradation metrics
    safe_mode_entries: int = 0
    rejected_observations: int = 0
    sensor_holds: int = 0
    sensor_clamps: int = 0
    mode_switches: int = 0

    # ------------------------------------------------------------------
    @property
    def retransmission_events(self) -> int:
        """Fig. 6 metric: one event per packet or flit retransmission."""
        return self.packet_retransmissions + self.flit_retransmissions

    @property
    def delivered_fraction(self) -> float:
        """Messages delivered / messages created in the window (graceful
        degradation under hard faults; 1.0 for fault-free runs)."""
        if self.messages_created <= 0:
            return 1.0
        return self.packets_delivered / self.messages_created

    @property
    def total_energy_pj(self) -> float:
        return self.dynamic_energy_pj + self.static_energy_pj

    @property
    def execution_seconds(self) -> float:
        return self.execution_cycles / CLOCK_HZ

    @property
    def energy_efficiency(self) -> float:
        """Fig. 9 metric: delivered flits per microjoule."""
        if self.total_energy_pj <= 0:
            return 0.0
        return self.flits_delivered / (self.total_energy_pj * 1e-6)

    @property
    def dynamic_power_watts(self) -> float:
        """Fig. 10 metric: dynamic energy averaged over execution time."""
        if self.execution_cycles <= 0:
            return 0.0
        return self.dynamic_energy_pj * 1e-12 / self.execution_seconds

    @property
    def total_power_watts(self) -> float:
        if self.execution_cycles <= 0:
            return 0.0
        return self.total_energy_pj * 1e-12 / self.execution_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "design": self.design,
            "benchmark": self.benchmark,
            "execution_cycles": self.execution_cycles,
            "mean_latency": self.mean_latency,
            "packets_delivered": self.packets_delivered,
            "flits_delivered": self.flits_delivered,
            "retransmission_events": self.retransmission_events,
            "packet_retransmissions": self.packet_retransmissions,
            "flit_retransmissions": self.flit_retransmissions,
            "corrected_errors": self.corrected_errors,
            "escaped_errors": self.escaped_errors,
            "silent_corruptions": self.silent_corruptions,
            "duplicate_flits": self.duplicate_flits,
            "total_energy_pj": self.total_energy_pj,
            "dynamic_energy_pj": self.dynamic_energy_pj,
            "energy_efficiency": self.energy_efficiency,
            "dynamic_power_watts": self.dynamic_power_watts,
            "total_power_watts": self.total_power_watts,
            "mean_temperature": self.mean_temperature,
            "mean_error_probability": self.mean_error_probability,
            "messages_created": self.messages_created,
            "messages_dropped": self.messages_dropped,
            "delivered_fraction": self.delivered_fraction,
            "reroutes": self.reroutes,
            "fault_recoveries": self.fault_recoveries,
            "unreachable_drops": self.unreachable_drops,
            "post_fault_latency": self.post_fault_latency,
            "safe_mode_entries": self.safe_mode_entries,
            "rejected_observations": self.rejected_observations,
            "sensor_holds": self.sensor_holds,
            "sensor_clamps": self.sensor_clamps,
            "mode_switches": self.mode_switches,
        }
