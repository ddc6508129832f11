"""Application trace records and replay.

The paper drives its evaluation with PARSEC traces that "contain packet
information, injection/ejection events, and clock time stamps"
(Section V-B).  This module defines the equivalent in-memory trace:

* a :class:`TraceRecord` per message — injection cycle, source,
  destination, packet size in flits;
* a :class:`TraceReplayer` that presents the same ``packets_for_cycle``
  protocol as the synthetic sources, so the simulator is agnostic to
  whether traffic is synthetic or replayed.

Replaying a trace gives every compared design the *same* offered work,
which is what makes the execution-time speed-up comparison of Fig. 7
meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.noc.packet import FLIT_BITS, Packet
from repro.noc.topology import MeshTopology

__all__ = ["TraceRecord", "TraceReplayer"]


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One message of an application trace."""

    cycle: int
    src: int
    dest: int
    size: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("cycle cannot be negative")
        if self.size <= 0:
            raise ValueError("size must be at least one flit")
        if self.src == self.dest:
            raise ValueError("source and destination must differ")


class TraceReplayer:
    """Replays a trace through the ``packets_for_cycle`` protocol."""

    def __init__(
        self,
        records: List[TraceRecord],
        topology: MeshTopology,
        flit_bits: int = FLIT_BITS,
        rng: Optional[random.Random] = None,
    ) -> None:
        for record in records:
            if record.src >= topology.num_nodes or record.dest >= topology.num_nodes:
                raise ValueError(f"record {record} outside the topology")
        self.records = sorted(records)
        self.topology = topology
        self.flit_bits = flit_bits
        self.rng = rng if rng is not None else random.Random(0)
        self._cursor = 0

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.records)

    def packets_for_cycle(self, now: int) -> List[Packet]:
        packets = []
        while self._cursor < len(self.records):
            record = self.records[self._cursor]
            if record.cycle > now:
                break
            payloads = [
                self.rng.getrandbits(self.flit_bits) for _ in range(record.size)
            ]
            packets.append(
                Packet(record.src, record.dest, record.size, self.flit_bits, now, payloads)
            )
            self._cursor += 1
        return packets
