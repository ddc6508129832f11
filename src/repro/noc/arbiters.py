"""Round-robin arbiter for virtual-channel and switch allocation.

The router uses separable allocation (standard for 4-stage VC routers):

* **VA** — packets whose head finished route computation request a free
  VC at their output port; a per-output round-robin arbiter grants one
  requester per free VC.
* **SA** — active VCs with a buffered flit and a downstream credit request
  their output port; a per-output round-robin arbiter grants one per port
  per cycle.

Round-robin is implemented exactly as the rotating-priority hardware:
the grant pointer advances past the winner so every requester is served
within N rounds (no starvation) — a property test pins this down.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["RoundRobinArbiter"]


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``size`` request lines."""

    __slots__ = ("size", "_pointer")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("arbiter needs at least one input")
        self.size = size
        self._pointer = 0

    def grant_from(self, lines: Sequence[int]) -> Optional[int]:
        """Grant one of the asserted line *indices*, or None.

        The winner is the first asserted line at or after the rotating
        pointer, which then moves past it, giving each line a fair turn.
        Taking indices instead of a request vector makes it
        O(candidates) instead of O(size), which matters in switch
        allocation where a 20-line vector usually carries one or two
        requests.
        """
        size = self.size
        pointer = self._pointer
        best = None
        best_rank = size
        for line in lines:
            rank = line - pointer
            if rank < 0:
                rank += size
            if rank < best_rank:
                best_rank = rank
                best = line
        if best is not None:
            self._pointer = best + 1 if best + 1 < size else 0
        return best

    def take(self, line: int) -> int:
        """Grant a known sole candidate: ``grant_from((line,))`` without
        the scan.  The caller asserts exactly one line is requesting."""
        self._pointer = line + 1 if line + 1 < self.size else 0
        return line
