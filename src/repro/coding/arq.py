"""Automatic Retransmission Query (ARQ) protocol objects.

In the ARQ+ECC scheme (paper Section II), every flit sent over an
ECC-protected link is held in a retransmission buffer at the sender until
the downstream router acknowledges it.  On an ACK the copy is released; on
a NACK (uncorrectable error at the receiver) the copy is retransmitted.

The classes here are protocol bookkeeping only — they know nothing about
routers or cycles beyond opaque timestamps — which keeps them unit-testable
and lets :mod:`repro.noc.router` wire them to real channels.

Two small pieces live here:

* :class:`RetransmissionBuffer` — the per-output-port sender-side window
  of unacknowledged flits (stop-and-wait generalized to a window).
* :class:`AckMessage` — the sideband ACK/NACK token exchanged between
  adjacent routers, carrying the sequence number it refers to.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Iterator, Optional, Tuple, TypeVar

__all__ = ["AckKind", "AckMessage", "RetransmissionBuffer", "ArqError"]

T = TypeVar("T")


class ArqError(Exception):
    """Protocol violation (duplicate sequence, unknown ACK, overflow)."""


@dataclass(frozen=True)
class AckKind:
    """Namespace of ACK polarity constants."""

    ACK = "ack"
    NACK = "nack"


class AckMessage:
    """A sideband acknowledgement for one transmitted flit.

    Hand-written slotted value class (dataclass ``slots=True`` needs
    Python 3.10, and one of these is allocated per protected flit, so it
    sits on the hot path).

    Attributes
    ----------
    seq:
        Sender-side sequence number being acknowledged.
    kind:
        ``AckKind.ACK`` (release the copy) or ``AckKind.NACK``
        (retransmit the copy).
    created_at:
        Cycle the receiver generated the message (for latency accounting).
    """

    __slots__ = ("seq", "kind", "created_at")

    def __init__(self, seq: int, kind: str, created_at: int = 0) -> None:
        self.seq = seq
        self.kind = kind
        self.created_at = created_at

    @property
    def is_nack(self) -> bool:
        return self.kind == AckKind.NACK

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AckMessage):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.kind == other.kind
            and self.created_at == other.created_at
        )

    def __hash__(self) -> int:
        return hash((self.seq, self.kind, self.created_at))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AckMessage(seq={self.seq}, kind={self.kind!r}, created_at={self.created_at})"

    def __getstate__(self):
        return (self.seq, self.kind, self.created_at)

    def __setstate__(self, state) -> None:
        self.seq, self.kind, self.created_at = state


class RetransmissionBuffer(Generic[T]):
    """Sender-side window of flits awaiting acknowledgement.

    Parameters
    ----------
    capacity:
        Maximum number of simultaneously unacknowledged entries.  When the
        buffer is full the sender must stall — the router checks
        :meth:`is_full` before link traversal.

    Entries are keyed by a monotonically increasing sequence number issued
    by :meth:`push`.  Iteration order is insertion (i.e. transmission)
    order, which the router relies on when draining retransmissions.
    """

    __slots__ = (
        "capacity",
        "_entries",
        "_next_seq",
        "total_pushed",
        "total_acked",
        "total_nacked",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, T]" = OrderedDict()
        self._next_seq = 0
        # Statistics
        self.total_pushed = 0
        self.total_acked = 0
        self.total_nacked = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[int, T]]:
        return iter(self._entries.items())

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def occupancy(self) -> float:
        """Fraction of the window currently in use (0..1)."""
        return len(self._entries) / self.capacity

    # ------------------------------------------------------------------
    def push(self, item: T) -> int:
        """Record a transmitted flit; returns its sequence number.

        Raises :class:`ArqError` if the window is full — callers must
        check :attr:`is_full` first, mirroring the hardware's back-pressure.
        """
        if self.is_full:
            raise ArqError("retransmission buffer overflow")
        seq = self._next_seq
        self._next_seq += 1
        self._entries[seq] = item
        self.total_pushed += 1
        return seq

    def ack(self, seq: int) -> T:
        """Positive acknowledgement: release and return the stored copy."""
        try:
            item = self._entries.pop(seq)
        except KeyError:
            raise ArqError(f"ACK for unknown sequence {seq}") from None
        self.total_acked += 1
        return item

    def nack(self, seq: int) -> T:
        """Negative acknowledgement: return the copy for retransmission.

        The entry stays buffered (the retransmitted flit may itself be
        corrupted and NACKed again); it is only released by a later ACK.
        """
        try:
            item = self._entries[seq]
        except KeyError:
            raise ArqError(f"NACK for unknown sequence {seq}") from None
        self.total_nacked += 1
        return item

    def peek(self, seq: int) -> Optional[T]:
        """Return the stored copy without touching statistics."""
        return self._entries.get(seq)

    def handle(self, message: AckMessage) -> Tuple[bool, T]:
        """Apply an :class:`AckMessage`; returns ``(retransmit, item)``."""
        if message.is_nack:
            return True, self.nack(message.seq)
        return False, self.ack(message.seq)

    def flush(self) -> None:
        """Drop all pending entries (used when a link is reconfigured)."""
        self._entries.clear()
