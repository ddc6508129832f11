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

from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

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
    by :meth:`push`.  :attr:`entries` is a plain dict, so iteration order
    is insertion (i.e. transmission) order, which the router relies on
    when draining retransmissions.  A NACK leaves its entry in place (the
    router resends it from :meth:`peek`); only an ACK releases it.
    """

    __slots__ = ("capacity", "entries", "_next_seq")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: sequence number -> stored copy, oldest first.  The router's
        #: per-flit path reads and pops it directly.
        self.entries: Dict[int, T] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Tuple[int, T]]:
        return iter(self.entries.items())

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.entries

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
        self.entries[seq] = item
        return seq

    def ack(self, seq: int) -> T:
        """Positive acknowledgement: release and return the stored copy."""
        try:
            return self.entries.pop(seq)
        except KeyError:
            raise ArqError(f"ACK for unknown sequence {seq}") from None

    def peek(self, seq: int) -> Optional[T]:
        """Return the stored copy, if still unacknowledged."""
        return self.entries.get(seq)

    def flush(self) -> None:
        """Drop all pending entries (used when a link is reconfigured)."""
        self.entries.clear()
