"""Synthetic traffic patterns (Booksim-style).

The paper pre-trains the learning policies on synthetic traffic before
replaying application traces (Section V-B).  This module provides the
standard pattern suite: uniform random plus the classic permutations
(transpose, bit-complement, bit-reverse, shuffle, tornado, neighbour) and
a configurable hotspot pattern.

A :class:`SyntheticTraffic` source makes one Bernoulli injection decision
per node per cycle at the configured packet injection rate, matching how
cycle-accurate simulators drive open-loop traffic.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.noc.packet import FLIT_BITS, PACKET_FLITS, Packet
from repro.noc.topology import MeshTopology

__all__ = ["PATTERNS", "SyntheticTraffic", "destination_for"]


def _bits_needed(n: int) -> int:
    bits = (n - 1).bit_length()
    if 1 << bits != n:
        raise ValueError(f"pattern requires a power-of-two node count, got {n}")
    return bits


def uniform(topology: MeshTopology, src: int, rng: random.Random) -> int:
    dest = rng.randrange(topology.num_nodes - 1)
    return dest if dest < src else dest + 1


def transpose(topology: MeshTopology, src: int, rng: random.Random) -> int:
    if topology.width != topology.height:
        raise ValueError("transpose requires a square mesh")
    x, y = topology.coordinates(src)
    return topology.node_id(y, x)


def bit_complement(topology: MeshTopology, src: int, rng: random.Random) -> int:
    bits = _bits_needed(topology.num_nodes)
    return src ^ ((1 << bits) - 1)


def bit_reverse(topology: MeshTopology, src: int, rng: random.Random) -> int:
    bits = _bits_needed(topology.num_nodes)
    out = 0
    for i in range(bits):
        if src & (1 << i):
            out |= 1 << (bits - 1 - i)
    return out


def shuffle(topology: MeshTopology, src: int, rng: random.Random) -> int:
    bits = _bits_needed(topology.num_nodes)
    return ((src << 1) | (src >> (bits - 1))) & ((1 << bits) - 1)


def tornado(topology: MeshTopology, src: int, rng: random.Random) -> int:
    x, y = topology.coordinates(src)
    return topology.node_id((x + topology.width // 2 - 1) % topology.width, y)


def neighbour(topology: MeshTopology, src: int, rng: random.Random) -> int:
    x, y = topology.coordinates(src)
    return topology.node_id((x + 1) % topology.width, y)


#: Named destination functions ``f(topology, src, rng) -> dest``.
PATTERNS: Dict[str, Callable[[MeshTopology, int, random.Random], int]] = {
    "uniform": uniform,
    "transpose": transpose,
    "bit_complement": bit_complement,
    "bit_reverse": bit_reverse,
    "shuffle": shuffle,
    "tornado": tornado,
    "neighbour": neighbour,
}


def destination_for(
    pattern: str, topology: MeshTopology, src: int, rng: random.Random
) -> Optional[int]:
    """Destination of one packet under a named pattern (None = self-loop,
    which the caller should skip — e.g. transpose of a diagonal node)."""
    try:
        fn = PATTERNS[pattern]
    except KeyError:
        raise ValueError(f"unknown pattern {pattern!r}") from None
    dest = fn(topology, src, rng)
    return None if dest == src else dest


class SyntheticTraffic:
    """Open-loop Bernoulli traffic source over a mesh.

    Parameters
    ----------
    topology:
        Target mesh.
    pattern:
        One of :data:`PATTERNS`, or ``"hotspot"`` (uniform with extra
        weight on ``hotspot_nodes``).
    injection_rate:
        Packets per node per cycle (Bernoulli probability).
    packet_size, flit_bits:
        Packet geometry (Table II defaults: 4 flits of 128 bits).
    hotspot_nodes, hotspot_fraction:
        For the hotspot pattern: the favoured destinations and the share
        of traffic they attract.
    """

    def __init__(
        self,
        topology: MeshTopology,
        pattern: str = "uniform",
        injection_rate: float = 0.01,
        packet_size: int = PACKET_FLITS,
        flit_bits: int = FLIT_BITS,
        rng: Optional[random.Random] = None,
        hotspot_nodes: Optional[Sequence[int]] = None,
        hotspot_fraction: float = 0.5,
    ) -> None:
        if not 0.0 <= injection_rate <= 1.0:
            raise ValueError("injection rate must be in [0, 1]")
        if pattern != "hotspot" and pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r}")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.topology = topology
        self.pattern = pattern
        self.injection_rate = injection_rate
        self.packet_size = packet_size
        self.flit_bits = flit_bits
        self.rng = rng if rng is not None else random.Random(0)
        if pattern == "hotspot":
            default = [topology.num_nodes // 2]
            self.hotspot_nodes = list(hotspot_nodes) if hotspot_nodes else default
        else:
            self.hotspot_nodes = []
        self.hotspot_fraction = hotspot_fraction

    # ------------------------------------------------------------------
    def _destination(self, src: int) -> Optional[int]:
        if self.pattern == "hotspot":
            if self.rng.random() < self.hotspot_fraction:
                dest = self.rng.choice(self.hotspot_nodes)
                return None if dest == src else dest
            return destination_for("uniform", self.topology, src, self.rng)
        return destination_for(self.pattern, self.topology, src, self.rng)

    def packets_for_cycle(self, now: int) -> List[Packet]:
        """New packets every source decides to inject this cycle."""
        packets = []
        for src in range(self.topology.num_nodes):
            if self.rng.random() >= self.injection_rate:
                continue
            dest = self._destination(src)
            if dest is None:
                continue
            payloads = [
                self.rng.getrandbits(self.flit_bits) for _ in range(self.packet_size)
            ]
            packets.append(
                Packet(src, dest, self.packet_size, self.flit_bits, now, payloads)
            )
        return packets
