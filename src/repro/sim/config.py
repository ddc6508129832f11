"""Simulation configuration, including the paper's Table II parameters."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SimulationConfig", "paper_config", "scaled_config"]


@dataclass(frozen=True)
class SimulationConfig:
    """The settings an experiment varies.

    The defaults reproduce Table II's 8x8 mesh and the Section V-B
    phases: the RL temporal-difference rule every 1K cycles, after 1M
    pre-training and 300K warm-up cycles of synthetic traffic.  The rest
    of Table II is one constant each, where it is read (``NUM_VCS``,
    ``FLIT_BITS``, ``PACKET_FLITS``, ``CLOCK_HZ``; see DESIGN.md §5).
    """

    # Mesh size (Table II: 8x8)
    width: int = 8
    height: int = 8

    # Control-loop phases (Section V-B)
    epoch_cycles: int = 1000
    pretrain_cycles: int = 1_000_000
    warmup_cycles: int = 300_000

    # RL state encoding (see repro.core.state: compact vs full Table I,
    # and the Markov-completing current-mode feature)
    compact_state: bool = True
    include_mode_in_state: bool = True

    # Pre-training and warm-up traffic (uniform random)
    pretrain_injection_rate: float = 0.015

    # Hard faults: the campaign spec string of repro.faults.hardfaults
    # ("" = healthy baseline).  A watchdog deadlock/livelock trip pins the
    # implicated routers to mode 3; a conservation violation raises.
    fault_spec: str = ""

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
        if self.pretrain_cycles < 0:
            raise ValueError("pretrain_cycles cannot be negative")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles cannot be negative")
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
