"""Virtual-channel input buffers.

Each router input port owns ``num_vcs`` virtual channels, each a FIFO of
``depth`` flits (Table II: 4 VCs per port).  A VC also carries the
per-packet routing state machine used by the four-stage pipeline:

``IDLE -> ROUTING -> WAITING_VC -> ACTIVE -> IDLE``

The proposed router additionally has *output flit buffers* (Fig. 2) that
hold copies for ARQ retransmission and the mode-2 pre-retransmission
duplicates; those are :class:`repro.coding.RetransmissionBuffer`.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional

from repro.noc.packet import Flit
from repro.noc.topology import Port

__all__ = ["VCState", "VirtualChannel", "InputPort"]


class VCState(enum.Enum):
    """Pipeline state of the packet occupying a virtual channel."""

    IDLE = "idle"
    #: head flit buffered, awaiting route computation (RC stage)
    ROUTING = "routing"
    #: route known, awaiting a downstream VC grant (VA stage)
    WAITING_VC = "waiting_vc"
    #: downstream VC allocated; flits compete in switch allocation (SA)
    ACTIVE = "active"
    #: hard-fault path: the packet is being discarded in place — flits
    #: are popped and dropped (credits still refunded upstream) until the
    #: tail arrives, then the VC returns to IDLE
    DRAINING = "draining"


class VirtualChannel:
    """One FIFO lane of an input port with its pipeline state."""

    __slots__ = (
        "port",
        "port_index",
        "vc_id",
        "line",
        "depth",
        "fifo",
        "state",
        "out_port",
        "out_vc",
        "stage_ready_cycle",
        "current_packet",
        "sent",
    )

    def __init__(self, port: Port, vc_id: int, depth: int, num_vcs: int = 0) -> None:
        if depth <= 0:
            raise ValueError("VC depth must be positive")
        self.port = port
        #: ``int(port)`` cached — enum conversion is measurable in the
        #: per-cycle allocation stages
        self.port_index = int(port)
        self.vc_id = vc_id
        #: flat arbiter request-line index (stable for this VC's lifetime)
        self.line = self.port_index * num_vcs + vc_id
        self.depth = depth
        self.fifo: Deque[Flit] = deque()
        self.state = VCState.IDLE
        self.out_port: Optional[Port] = None
        self.out_vc: Optional[int] = None
        #: earliest cycle the *next* pipeline stage may act on this VC —
        #: enforces the one-stage-per-cycle timing of the 4-stage router.
        self.stage_ready_cycle = 0
        #: packet occupying this VC (set at head arrival) — lets the
        #: hard-fault sweep and the watchdog identify worms in place
        self.current_packet = None
        #: flits of the current packet already forwarded out of this VC
        self.sent = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    @property
    def is_full(self) -> bool:
        return len(self.fifo) >= self.depth

    @property
    def is_empty(self) -> bool:
        return not self.fifo

    @property
    def front(self) -> Optional[Flit]:
        return self.fifo[0] if self.fifo else None

    def push(self, flit: Flit) -> None:
        """Buffer write (BW stage).  Overflow is a flow-control bug."""
        if len(self.fifo) >= self.depth:
            raise OverflowError(
                f"VC overflow at port {self.port.name} vc {self.vc_id}: "
                "credit protocol violated"
            )
        flit.vc = self.vc_id
        self.fifo.append(flit)

    def pop(self) -> Flit:
        """Buffer read as the flit wins switch allocation."""
        if not self.fifo:
            raise IndexError("pop from empty VC")
        return self.fifo.popleft()

    def release(self) -> None:
        """Return to IDLE after the tail flit departs."""
        self.state = VCState.IDLE
        self.out_port = None
        self.out_vc = None
        self.current_packet = None
        self.sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VC({self.port.name}.{self.vc_id}, {self.state.value}, "
            f"{len(self.fifo)}/{self.depth})"
        )


class InputPort:
    """All virtual channels of one router input port."""

    __slots__ = ("port", "vcs")

    def __init__(self, port: Port, num_vcs: int, depth: int) -> None:
        if num_vcs <= 0:
            raise ValueError("need at least one VC")
        self.port = port
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(port, v, depth, num_vcs) for v in range(num_vcs)
        ]

    @property
    def occupied_vcs(self) -> int:
        """Number of VCs currently holding a packet (Table I feature 1)."""
        return sum(1 for vc in self.vcs if vc.state is not VCState.IDLE or vc.fifo)

    @property
    def buffered_flits(self) -> int:
        return sum(len(vc.fifo) for vc in self.vcs)

    def free_vc_for_head(self) -> Optional[VirtualChannel]:
        """An idle, empty VC that can accept a new packet's head flit."""
        for vc in self.vcs:
            if vc.state is VCState.IDLE and vc.is_empty:
                return vc
        return None
