"""Mesh topology: node coordinates, ports, and channel wiring.

The paper evaluates an 8x8 2D mesh (Table II) and illustrates a 4x4 mesh
(Fig. 1(a)).  Each router has five ports: one local (core) port plus the
four cardinal directions.  This module owns the coordinate arithmetic and
the list of directed inter-router channels; it knows nothing about flits
or cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Port", "ChannelSpec", "MeshTopology", "OPPOSITE_PORT"]


class Port(enum.IntEnum):
    """Router port identifiers.

    The integer values index per-port arrays throughout the simulator;
    keep LOCAL at 0 so directions form a contiguous 1..4 range.
    """

    LOCAL = 0
    EAST = 1   # +X
    WEST = 2   # -X
    NORTH = 3  # +Y
    SOUTH = 4  # -Y


#: Port on the neighbouring router that faces back at us.
OPPOSITE_PORT: Dict[Port, Port] = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
}

#: Coordinate deltas for each direction port.
_PORT_DELTA: Dict[Port, Tuple[int, int]] = {
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
}


@dataclass(frozen=True)
class ChannelSpec:
    """A directed inter-router channel.

    ``src`` sends through its ``src_port``; ``dst`` receives on
    ``dst_port``.  The paper calls the channel from router *i* to *i+1*
    "channel i" and its protection hardware "-Link i" (Section III).
    """

    src: int
    src_port: Port
    dst: int
    dst_port: Port


class MeshTopology:
    """A ``width`` x ``height`` 2D mesh.

    Node ids are ``y * width + x`` with (0, 0) at the south-west corner,
    matching the usual Booksim convention.
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 2 or height < 2:
            raise ValueError("mesh must be at least 2x2")
        self.width = width
        self.height = height
        self.num_nodes = width * height
        self._channels: List[ChannelSpec] = []
        self._neighbour: Dict[Tuple[int, Port], int] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for node in range(self.num_nodes):
            x, y = self.coordinates(node)
            for port, (dx, dy) in _PORT_DELTA.items():
                nx, ny = x + dx, y + dy
                if not (0 <= nx < self.width and 0 <= ny < self.height):
                    continue
                neighbour = self.node_id(nx, ny)
                self._neighbour[(node, port)] = neighbour
                self._channels.append(
                    ChannelSpec(node, port, neighbour, OPPOSITE_PORT[port])
                )

    # ------------------------------------------------------------------
    def node_id(self, x: int, y: int) -> int:
        """Node id at coordinates (x, y)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinates ({x}, {y}) outside mesh")
        return y * self.width + x

    def coordinates(self, node: int) -> Tuple[int, int]:
        """Coordinates (x, y) of a node id."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside mesh")
        return node % self.width, node // self.width

    def neighbour(self, node: int, port: Port) -> Optional[int]:
        """Node on the far side of ``port``, or None at a mesh edge."""
        return self._neighbour.get((node, port))

    def channels(self) -> Iterator[ChannelSpec]:
        """All directed inter-router channels."""
        return iter(self._channels)

    def hop_distance(self, src: int, dest: int) -> int:
        """Minimal hop count between two nodes (Manhattan distance)."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dest)
        return abs(sx - dx) + abs(sy - dy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeshTopology({self.width}x{self.height})"
