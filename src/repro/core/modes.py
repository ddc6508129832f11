"""The four fault-tolerant operation modes (paper Section III).

Each router dynamically deploys one of four modes for its *output*
-Links (its ECC encoders plus the paired decoders at the downstream
routers).  The modes trade fault-tolerance capability, retransmission
traffic, latency, and energy:

=========  =============  ==========================================
Mode       Error level    Behaviour
=========  =============  ==========================================
MODE_0     minimum        -Links disabled: no ECC energy/latency;
                          errors escape to the destination CRC and
                          cost a full end-to-end packet retransmission.
MODE_1     low            -Links enabled: SECDED corrects single-bit
                          errors in place; double-bit errors NACK and
                          retransmit one flit from the upstream router.
MODE_2     medium         MODE_1 plus *flit pre-retransmission*: every
                          flit is speculatively resent one cycle after
                          the original, hiding the NACK round trip at
                          the price of link bandwidth.
MODE_3     high           MODE_1 plus timing relaxation: two extra
                          cycles before each transfer relax the timing
                          constraint so errors (and retransmissions)
                          essentially vanish, at a per-hop latency and
                          throughput cost.
=========  =============  ==========================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

__all__ = ["OperationMode", "ModeBehaviour", "MODE_BEHAVIOUR", "TmrModeBank"]


class OperationMode(enum.IntEnum):
    """Action space of the per-router fault-tolerant controller."""

    MODE_0 = 0
    MODE_1 = 1
    MODE_2 = 2
    MODE_3 = 3


@dataclass(frozen=True)
class ModeBehaviour:
    """Mechanical consequences of a mode for the router datapath.

    Attributes
    ----------
    ecc_enabled:
        Whether the output -Links (encoder + downstream decoder) are on.
    pre_retransmit:
        Whether every flit is followed by a speculative duplicate
        (mode 2's flit pre-retransmission, 1-cycle gap).
    extra_cycles_before_send:
        Stall cycles inserted before each transfer (mode 3: one control
        cycle + one stall cycle = 2).
    timing_relaxed:
        Whether the transfer enjoys the relaxed timing constraint that
        collapses the timing-error probability.
    link_slots_per_flit:
        Output-link occupancy per flit, in cycles — the throughput cost
        of the mode (mode 2's duplicate, mode 3's stalls).
    """

    ecc_enabled: bool
    pre_retransmit: bool
    extra_cycles_before_send: int
    timing_relaxed: bool

    @property
    def link_slots_per_flit(self) -> int:
        slots = 1 + self.extra_cycles_before_send
        if self.pre_retransmit:
            slots += 1
        return slots


class TmrModeBank:
    """Triple-modular-redundant per-router mode registers.

    The 2-bit mode register drives the router datapath between control
    epochs, and in SRAM/flop form it takes single-event upsets just like
    the Q-table (:mod:`repro.faults.softerrors`).  The defended layout
    keeps three copies per router: the policy's write syncs all three,
    an upset flips a bit in one copy, and :meth:`read` returns the
    per-bit majority — so a single upset is outvoted and never reaches
    the datapath.  :meth:`vote` is the scrub-time resync: it rewrites
    every copy with the majority value and reports how many copies it
    repaired.  Only two upsets landing in distinct copies of the same
    register between scrubs can corrupt the majority.

    Plain lists of ints throughout: the bank pickles inside the
    simulator and resumes bit-identically.
    """

    __slots__ = ("copies",)

    COPIES = 3
    REGISTER_BITS = 2

    def __init__(self, num_routers: int, initial: int = 0) -> None:
        if num_routers <= 0:
            raise ValueError("need at least one router")
        self.copies: List[List[int]] = [
            [int(initial)] * self.COPIES for _ in range(num_routers)
        ]

    def write(self, router: int, mode: int) -> None:
        """Policy write: all three copies latch the commanded mode."""
        self.copies[router] = [int(mode)] * self.COPIES

    def upset(self, router: int, bit: int, copy: int) -> None:
        """SEU: flip one bit of one copy."""
        self.copies[router][copy % self.COPIES] ^= 1 << (bit % self.REGISTER_BITS)

    @classmethod
    def _majority(cls, regs: List[int]) -> int:
        a, b, c = regs
        return ((a & b) | (a & c) | (b & c)) & ((1 << cls.REGISTER_BITS) - 1)

    def read(self, router: int) -> int:
        """Per-bit majority over the three copies (the datapath view)."""
        return self._majority(self.copies[router])

    def vote(self) -> int:
        """Resync every register to its majority; returns copies repaired."""
        repaired = 0
        for regs in self.copies:
            value = self._majority(regs)
            wrong = self.COPIES - regs.count(value)
            if wrong:
                regs[:] = [value] * self.COPIES
                repaired += wrong
        return repaired


#: Mode semantics table used by the router datapath.
MODE_BEHAVIOUR = {
    OperationMode.MODE_0: ModeBehaviour(
        ecc_enabled=False,
        pre_retransmit=False,
        extra_cycles_before_send=0,
        timing_relaxed=False,
    ),
    OperationMode.MODE_1: ModeBehaviour(
        ecc_enabled=True,
        pre_retransmit=False,
        extra_cycles_before_send=0,
        timing_relaxed=False,
    ),
    OperationMode.MODE_2: ModeBehaviour(
        ecc_enabled=True,
        pre_retransmit=True,
        extra_cycles_before_send=0,
        timing_relaxed=False,
    ),
    OperationMode.MODE_3: ModeBehaviour(
        ecc_enabled=True,
        pre_retransmit=False,
        extra_cycles_before_send=2,
        timing_relaxed=True,
    ),
}
