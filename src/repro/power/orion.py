"""ORION-style router power and energy model (32 nm, 2 GHz, 1.0 V).

The paper evaluates power with ORION 2.0 integrated in Booksim.  This
module provides the equivalent event-based model: each router reports its
per-epoch event counters (:class:`repro.noc.stats.RouterEpochStats`), and
the model converts them into dynamic energy via per-event energies plus
per-component static leakage over the epoch's wall-clock time.

Per-event constants are calibrated to the anchors the paper discloses:

* a baseline (CRC-design) router consumes ~13.33 pJ per flit hop
  (Section VI-B: the 0.16 pJ RL overhead is 1.2 % of the baseline);
* the RL control logic adds 0.16 pJ per flit (ALU + Q-table SRAM,
  amortized over the 1K-cycle epoch);
* ECC/ARQ and DT hardware add proportionally smaller increments, with
  ECC blocks power-gated whenever a mode disables them.

Only *relative* energies drive the paper's normalized figures, so the
decomposition below (typical of 32 nm ORION runs) is sufficient: buffer
write 2.0, buffer read 1.6, crossbar 3.0, arbitration 0.4 and link
traversal 5.73 pJ — 12.73 pJ per hop, plus 0.6 pJ of NI CRC amortized
over the average hop count, reproducing ~13.3 pJ/flit for the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.noc.stats import RouterEpochStats

__all__ = [
    "CLOCK_HZ",
    "EnergyParams",
    "EpochEnergy",
    "RouterPowerModel",
    "DesignPowerProfile",
    "CorePowerParams",
]

#: Router clock (Table II: 2.0 GHz).
CLOCK_HZ = 2.0e9


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (picojoules) and leakage (milliwatts)."""

    # Dynamic, per event (pJ)
    buffer_write_pj: float = 2.0
    buffer_read_pj: float = 1.6
    crossbar_pj: float = 3.0
    arbitration_pj: float = 0.4
    link_traversal_pj: float = 5.73
    crc_pj: float = 0.6
    ecc_encode_pj: float = 0.7
    ecc_decode_pj: float = 0.9
    arq_buffer_pj: float = 1.1
    ack_signal_pj: float = 0.12
    rl_per_flit_pj: float = 0.16
    dt_per_flit_pj: float = 0.12

    # Static leakage, per component (mW)
    base_leakage_mw: float = 2.0
    ecc_leakage_mw: float = 0.35
    arq_leakage_mw: float = 0.30
    rl_leakage_mw: float = 0.25
    dt_leakage_mw: float = 0.18

    clock_hz: float = CLOCK_HZ


@dataclass(frozen=True)
class CorePowerParams:
    """Power of the processing core sharing each router's tile.

    The die temperature that drives the VARIUS error model is dominated
    by the cores, not the routers (a 32 nm OoO core burns hundreds of mW
    against the router's few mW).  The core's activity is approximated by
    the local NI traffic it generates/consumes: a tile injecting and
    ejecting ~0.2 flits/cycle runs near its busy power.  Calibrated so a
    light benchmark sits near 65 C and a heavily-loaded tile near 90 C
    under the default :class:`~repro.faults.thermal.ThermalGrid` —
    matching the [50, 100] C range the paper observes.  Only *unique*
    work feeds this proxy (see RouterEpochStats.core_activity_flits).
    """

    idle_watts: float = 0.24
    per_flit_rate_watts: float = 1.25
    max_watts: float = 0.5

    def core_power(self, local_flit_rate: float) -> float:
        """Core power given the tile's local flits/cycle (in + out)."""
        if local_flit_rate < 0:
            raise ValueError("flit rate cannot be negative")
        return min(self.max_watts, self.idle_watts + self.per_flit_rate_watts * local_flit_rate)


@dataclass(frozen=True)
class DesignPowerProfile:
    """Which power-consuming blocks a router design instantiates.

    ``ecc_gated`` marks designs whose ECC/ARQ blocks are power-gated when
    the current operation mode disables them (the proposed design);
    static designs either lack the blocks entirely (CRC) or keep them
    always on (ARQ+ECC, DT).
    """

    name: str
    has_ecc_hardware: bool
    ecc_gated: bool
    has_rl_logic: bool
    has_dt_logic: bool

    @classmethod
    def crc(cls) -> "DesignPowerProfile":
        return cls("crc", False, False, False, False)

    @classmethod
    def arq_ecc(cls) -> "DesignPowerProfile":
        return cls("arq_ecc", True, False, False, False)

    @classmethod
    def decision_tree(cls) -> "DesignPowerProfile":
        return cls("dt", True, True, False, True)

    @classmethod
    def rl(cls) -> "DesignPowerProfile":
        return cls("rl", True, True, True, False)


@dataclass
class EpochEnergy:
    """Energy of one router over one epoch, split by origin (pJ)."""

    dynamic_pj: float = 0.0
    static_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.static_pj


class RouterPowerModel:
    """Converts epoch event counters into energy figures."""

    def __init__(self, params: EnergyParams = EnergyParams()) -> None:
        self.params = params

    # ------------------------------------------------------------------
    def baseline_flit_energy_pj(self, mean_hops: float = 1.0) -> float:
        """Per-flit per-hop energy of the baseline (CRC) router.

        ``mean_hops`` amortizes the NI CRC encode+check over the hops a
        flit traverses; with the default 1.0 the full CRC cost is charged
        to a single hop, giving the paper's ~13.3 pJ anchor.
        """
        p = self.params
        return (
            p.buffer_write_pj
            + p.buffer_read_pj
            + p.crossbar_pj
            + p.arbitration_pj
            + p.link_traversal_pj
            + p.crc_pj / mean_hops
        )

    def epoch_energy(
        self,
        stats: RouterEpochStats,
        profile: DesignPowerProfile,
        ecc_enabled_now: bool,
        epoch_cycles: int,
    ) -> EpochEnergy:
        """Energy of one router for one epoch.

        ``ecc_enabled_now`` is the router's current mode's ECC state,
        used to gate ECC/ARQ leakage for gated designs.
        """
        if epoch_cycles <= 0:
            raise ValueError("epoch must span at least one cycle")
        p = self.params
        flits_out_total = sum(stats.flits_out)
        link_flits = flits_out_total - stats.flits_out[0] + stats.duplicate_flits

        dynamic = (
            stats.buffer_writes * p.buffer_write_pj
            + stats.buffer_reads * p.buffer_read_pj
            + stats.crossbar_traversals * p.crossbar_pj
            + stats.arbitration_ops * p.arbitration_pj
            + link_flits * p.link_traversal_pj
            + stats.crc_ops * p.crc_pj
            + stats.ecc_encodes * p.ecc_encode_pj
            + stats.ecc_decodes * p.ecc_decode_pj
            + stats.arq_buffer_ops * p.arq_buffer_pj
            + (sum(stats.acks_in) + sum(stats.nacks_in)) * p.ack_signal_pj
        )
        if profile.has_rl_logic:
            dynamic += flits_out_total * p.rl_per_flit_pj
        if profile.has_dt_logic:
            dynamic += flits_out_total * p.dt_per_flit_pj

        seconds = epoch_cycles / p.clock_hz
        leakage_mw = p.base_leakage_mw
        if profile.has_ecc_hardware:
            ecc_on = ecc_enabled_now or not profile.ecc_gated
            if ecc_on:
                leakage_mw += p.ecc_leakage_mw + p.arq_leakage_mw
        if profile.has_rl_logic:
            leakage_mw += p.rl_leakage_mw
        if profile.has_dt_logic:
            leakage_mw += p.dt_leakage_mw
        static = leakage_mw * 1e-3 * seconds * 1e12  # mW * s -> pJ

        return EpochEnergy(dynamic_pj=dynamic, static_pj=static)

    # ------------------------------------------------------------------
    @staticmethod
    def to_watts(energy_pj: float, cycles: int, clock_hz: float) -> float:
        """Average power in watts of an energy spent over some cycles."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        return energy_pj * 1e-12 / (cycles / clock_hz)

    def rl_overhead_fraction(self) -> float:
        """Per-flit RL energy overhead vs the baseline router energy —
        the paper reports 0.16 pJ on ~13.3 pJ = 1.2 % (Section VI-B)."""
        return self.params.rl_per_flit_pj / self.baseline_flit_energy_pj()
