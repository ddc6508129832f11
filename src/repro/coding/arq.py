"""Automatic Retransmission Query (ARQ) protocol objects.

In the ARQ+ECC scheme (paper Section II), every flit sent over an
ECC-protected link is held in a retransmission buffer at the sender until
the downstream router acknowledges it.  On an ACK the copy is released; on
a NACK (uncorrectable error at the receiver) the copy is retransmitted.

:class:`RetransmissionBuffer` is that sender-side window of
unacknowledged flits (stop-and-wait generalized to a window).  It is
protocol bookkeeping only — it knows nothing about routers or cycles —
which keeps it unit-testable and lets :mod:`repro.noc.router` wire it to
real channels.  The ACK/NACK tokens themselves travel the sideband as
plain ints (see :mod:`repro.noc.channel`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, Optional, Tuple, TypeVar

__all__ = ["RetransmissionBuffer", "ArqError"]

T = TypeVar("T")


class ArqError(Exception):
    """Protocol violation (duplicate sequence, unknown ACK, overflow)."""


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

    def flush(self) -> None:
        """Drop all pending entries (used when a link is reconfigured)."""
        self._entries.clear()
