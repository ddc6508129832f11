"""Simulation configuration, including the paper's Table II parameters."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.noc.routing import ROUTING_FUNCTIONS

__all__ = ["SimulationConfig", "paper_config", "scaled_config"]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to build one simulation instance.

    The defaults reproduce Table II: an 8x8 2D mesh of 4-stage routers
    with XY routing, 4 VCs per port, 128-bit flits, 4-flit packets, at
    1.0 V and 2.0 GHz in 32 nm; the RL temporal-difference rule is
    applied every 1K cycles, after 1M pre-training and 300K warm-up
    cycles of synthetic traffic (Section V-B).
    """

    # Topology / router microarchitecture (Table II)
    width: int = 8
    height: int = 8
    num_vcs: int = 4
    vc_depth: int = 4
    flit_bits: int = 128
    packet_size: int = 4
    routing: str = "xy"

    # Electrical operating point (Table II)
    clock_hz: float = 2.0e9
    voltage: float = 1.0

    # Control-loop phases (Section V-B)
    epoch_cycles: int = 1000
    pretrain_cycles: int = 1_000_000
    warmup_cycles: int = 300_000

    # Fault model
    error_scale: float = 1.0

    # RL state encoding (see repro.core.state: compact vs full Table I,
    # and the Markov-completing current-mode feature)
    compact_state: bool = True
    include_mode_in_state: bool = True

    # Pre-training and warm-up traffic (uniform random)
    pretrain_injection_rate: float = 0.015

    # Safety valve for drain loops
    max_drain_cycles: int = 2_000_000

    # Hard faults / runtime invariants.  ``fault_spec`` is the campaign
    # spec string of repro.faults.hardfaults ("" = healthy baseline); the
    # watchdog knobs gate the conservation/deadlock/livelock checks
    # (watchdog_interval=0 disables them entirely).  A deadlock/livelock
    # trip pins the implicated routers to mode 3 and the run goes on; a
    # conservation violation always raises.
    fault_spec: str = ""
    watchdog_interval: int = 256
    deadlock_cycles: int = 4096
    max_packet_age: int = 500_000

    # Sensor faults / control-plane hardening.  ``sensor_spec`` is the
    # telemetry-corruption campaign of repro.faults.sensors ("" = healthy
    # sensor bank).  The defenses sit between observe_router and the
    # policy: last-good hold for up to three epochs, a per-router reject
    # streak that degrades the router to the safe mode once it reaches
    # the simulator's SENSOR_QUARANTINE_K, and mode-switch debouncing
    # that keeps a router's mode for ``mode_hysteresis_epochs`` epochs
    # after a switch (0 = off, the behavior-identical default).
    sensor_spec: str = ""
    sensor_defenses: bool = True
    mode_hysteresis_epochs: int = 0

    # Memory soft errors / ECC scrubbing.  ``soft_error_spec`` is the SEU
    # campaign of repro.faults.softerrors ("" = upset-free SRAM).  With
    # ``ecc_protect`` (the default) Q-tables are stored as SECDED
    # codewords and mode registers are TMR'd; a scrub pass every
    # ``scrub_every`` epochs (0 = never) corrects single-bit errors,
    # quarantines uncorrectable rows, and majority-votes the mode
    # copies.  ``ecc_protect=False`` is the deliberately unprotected
    # strawman (CLI ``--no-ecc``) whose degradation the acceptance tests
    # pin down.  Storage attaches only when ``soft_error_spec`` is
    # non-empty, so healthy-run behavior is bit-identical to before.
    soft_error_spec: str = ""
    ecc_protect: bool = True
    scrub_every: int = 1

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("mesh must be at least 2x2")
        if self.epoch_cycles < 1:
            raise ValueError("epoch must span at least one cycle")
        if self.packet_size < 1:
            raise ValueError("packets need at least one flit")
        if self.routing not in ROUTING_FUNCTIONS:
            raise ValueError(
                f"unknown routing {self.routing!r}; pick one of "
                f"{', '.join(sorted(ROUTING_FUNCTIONS))}"
            )
        if self.watchdog_interval < 0:
            raise ValueError("watchdog_interval cannot be negative")
        if self.mode_hysteresis_epochs < 0:
            raise ValueError("mode_hysteresis_epochs cannot be negative")
        if self.scrub_every < 0:
            raise ValueError("scrub_every cannot be negative")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height


def paper_config() -> SimulationConfig:
    """The full Table II configuration (expensive in pure Python)."""
    return SimulationConfig()


def scaled_config(
    epoch_cycles: int = 500,
    pretrain_cycles: int = 40_000,
    warmup_cycles: int = 4_000,
    **overrides,
) -> SimulationConfig:
    """Table II topology with shortened control-loop phases.

    The default scaled phases keep the same structure (pre-train ->
    warm-up -> test) at ~1/25 the paper's cycle counts, which the
    benches use to finish in minutes; a scaling sanity bench checks the
    relative results are stable under 2x longer phases.
    """
    return replace(
        SimulationConfig(),
        epoch_cycles=epoch_cycles,
        pretrain_cycles=pretrain_cycles,
        warmup_cycles=warmup_cycles,
        **overrides,
    )
