"""Packets and flits.

Data in the NoC travels as packets segmented into flits (Section II of the
paper).  The paper's configuration (Table II) uses 128-bit flits and
4-flit packets: :data:`FLIT_BITS` and :data:`PACKET_FLITS`.

Payloads are plain integers interpreted as bit-vectors, which lets the
fault injector flip bits with XOR masks and lets the real CRC/SECDED codes
from :mod:`repro.coding` operate on them directly.  Each flit accumulates
an ``error_mask`` of the bit errors that have survived link-level
protection; the destination network interface checks the CRC over
``payload ^ error_mask`` exactly as the hardware would see it.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["FLIT_BITS", "PACKET_FLITS", "Flit", "Packet"]

#: Bits per flit (Table II).
FLIT_BITS = 128
#: Flits per packet (Table II).
PACKET_FLITS = 4


class Flit:
    """One flow-control unit.

    Attributes
    ----------
    packet:
        Owning :class:`Packet` (shared by all sibling flits); routing,
        reassembly and the hard-fault sweep read its fields.
    payload:
        Data bits as a non-negative integer.
    error_mask:
        Accumulated uncorrected bit errors (XOR mask over ``payload``).
    is_head, is_tail:
        Position within the packet, read in every pipeline stage; a
        single-flit packet's flit is both.
    """

    __slots__ = ("packet", "payload", "error_mask", "is_head", "is_tail")

    def __init__(
        self, packet: "Packet", is_head: bool, is_tail: bool, payload: int = 0
    ) -> None:
        self.packet = packet
        self.is_head = is_head
        self.is_tail = is_tail
        self.payload = payload
        self.error_mask = 0

    # ------------------------------------------------------------------
    @property
    def received_payload(self) -> int:
        """The payload as the receiver sees it (errors applied)."""
        return self.payload ^ self.error_mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(msg={self.packet.message_id}, head={self.is_head}, "
            f"tail={self.is_tail}, {self.packet.src}->{self.packet.dest})"
        )


class Packet:
    """A multi-flit message between two network interfaces.

    Attributes
    ----------
    message_id:
        Identity of the logical message, stable across end-to-end
        retransmissions (each attempt is a fresh :class:`Packet` sharing
        it).  ``None`` until the source NI stamps it with the network's
        creation index (:meth:`NetworkInterface.enqueue`), so ids are
        numbered per network from 0 in creation order.
    src, dest:
        Source and destination router/core ids.
    size:
        Number of flits.
    created_at:
        Cycle the message was first handed to the source NI (stable
        across retransmissions — end-to-end latency is measured from it).
    crc_check:
        CRC check bits computed by the source NI over the concatenated
        payloads.
    retransmission:
        How many end-to-end retransmissions preceded this attempt.
    flits:
        The attempt's flits, which hold its payloads: a retransmission
        clone copies them from here.
    """

    __slots__ = (
        "message_id",
        "src",
        "dest",
        "size",
        "flit_bits",
        "created_at",
        "crc_check",
        "retransmission",
        "flits",
        "path",
        "lost",
    )

    def __init__(
        self,
        src: int,
        dest: int,
        size: int,
        flit_bits: int,
        created_at: int,
        payloads: Optional[List[int]] = None,
        message_id: Optional[int] = None,
        retransmission: int = 0,
    ) -> None:
        if size <= 0:
            raise ValueError("packet size must be at least one flit")
        if src == dest:
            raise ValueError("source and destination must differ")
        self.message_id = message_id
        self.src = src
        self.dest = dest
        self.size = size
        self.flit_bits = flit_bits
        self.created_at = created_at
        self.crc_check: Optional[int] = None
        self.retransmission = retransmission
        if payloads is None:
            payloads = [0] * size
        if len(payloads) != size:
            raise ValueError("one payload per flit required")
        #: router ids visited by the head flit (filled in by RC); used to
        #: attribute delivered-packet latency to routers for the RL reward
        self.path: List[int] = []
        #: set when a hard fault destroyed part of this transmission
        #: attempt — surviving flits keep flowing (wormhole state must
        #: stay consistent) but the destination NI discards the carcass
        self.lost = False
        self.flits = [
            Flit(self, i == 0, i == size - 1, payload)
            for i, payload in enumerate(payloads)
        ]

    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        return self.size * self.flit_bits

    def combined_payload(self, received: bool = False) -> int:
        """Concatenate flit payloads into one integer (flit 0 lowest).

        With ``received=True`` the accumulated error masks are applied,
        giving the word the destination CRC checker actually sees.
        """
        word = 0
        for i, flit in enumerate(self.flits):
            bits = flit.received_payload if received else flit.payload
            word |= bits << (i * self.flit_bits)
        return word

    def make_ghost_tail(self) -> Flit:
        """Synthesize a tail flit to terminate a fault-truncated worm.

        Pushed by the network's kill sweep in place of flits that died on
        a dead link, so every downstream VC still sees a tail and can
        release; the packet is already marked :attr:`lost`, so the
        destination NI discards the fragment instead of reassembling it.
        """
        return Flit(self, False, True)

    def clone_for_retransmission(self, now: int) -> "Packet":
        """Build a fresh copy for an end-to-end retransmission."""
        clone = Packet(
            src=self.src,
            dest=self.dest,
            size=self.size,
            flit_bits=self.flit_bits,
            created_at=self.created_at,
            payloads=[flit.payload for flit in self.flits],
            message_id=self.message_id,
            retransmission=self.retransmission + 1,
        )
        clone.crc_check = self.crc_check
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(msg={self.message_id}, "
            f"{self.src}->{self.dest}, size={self.size}, "
            f"retx={self.retransmission})"
        )
