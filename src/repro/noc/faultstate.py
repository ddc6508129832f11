"""Shared hard-fault state: which links and routers are dead.

The soft-error substrate (:mod:`repro.faults.injector`) perturbs *bits*;
this module tracks *permanent* topology damage — links and routers
killed by :meth:`repro.noc.network.Network.kill_link` /
:meth:`~repro.noc.network.Network.kill_router`.  One :class:`FaultState`
instance is shared by the network, every router's route-computation
stage, and the fault-aware routing policy, so a single kill is
immediately visible everywhere.

Reachability and next-hop queries run on the *alive* subgraph.  Distance
tables are computed lazily per destination with a reverse BFS and cached
until the next kill; on the paper's mesh sizes this is microseconds.

The adaptive next-hop rule only ever moves to a neighbour strictly
closer (on the alive graph) to the destination, so routes cannot cycle:
fault-aware adaptive routing is livelock-free by construction.  Deadlock
freedom of the turn model can no longer be guaranteed once arbitrary
links disappear — that residual risk is exactly what the network's
invariant watchdog (:mod:`repro.noc.watchdog`) is there to catch.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set, Tuple

from repro.noc.topology import OPPOSITE_PORT, MeshTopology, Port

__all__ = ["FaultState"]

#: Direction ports in canonical tie-break order.
_DIRECTIONS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)


class FaultState:
    """Hard-fault bookkeeping over one topology instance."""

    __slots__ = ("topology", "dead_links", "dead_nodes", "_dist_cache")

    def __init__(self, topology: MeshTopology) -> None:
        self.topology = topology
        #: directed dead links as (source node, output port int)
        self.dead_links: Set[Tuple[int, int]] = set()
        self.dead_nodes: Set[int] = set()
        self._dist_cache: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    @property
    def any_faults(self) -> bool:
        return bool(self.dead_links or self.dead_nodes)

    def kill_link(self, node: int, port: int) -> None:
        """Mark one directed link dead (state only; the Network sweeps)."""
        self.dead_links.add((node, int(port)))
        self._dist_cache.clear()

    def kill_node(self, node: int) -> None:
        self.dead_nodes.add(node)
        self._dist_cache.clear()

    # ------------------------------------------------------------------
    def node_alive(self, node: int) -> bool:
        return node not in self.dead_nodes

    def link_alive(self, node: int, port: int) -> bool:
        """Whether ``node`` can currently send through ``port``."""
        port = int(port)
        if (node, port) in self.dead_links or node in self.dead_nodes:
            return False
        neighbour = self.topology.neighbour(node, Port(port))
        return neighbour is not None and neighbour not in self.dead_nodes

    # ------------------------------------------------------------------
    def _dist(self, dest: int) -> Dict[int, int]:
        """Hop count to ``dest`` over alive links, for reachable nodes."""
        table = self._dist_cache.get(dest)
        if table is not None:
            return table
        table = {}
        if self.node_alive(dest):
            table[dest] = 0
            frontier = deque([dest])
            topology = self.topology
            while frontier:
                node = frontier.popleft()
                d = table[node]
                # Predecessors: neighbours v whose link toward ``node``
                # (the opposite of our port toward them) is alive.
                for port in _DIRECTIONS:
                    v = topology.neighbour(node, port)
                    if v is None or v in table:
                        continue
                    if self.link_alive(v, OPPOSITE_PORT[port]):
                        table[v] = d + 1
                        frontier.append(v)
        self._dist_cache[dest] = table
        return table

    def reachable(self, src: int, dest: int) -> bool:
        """Whether a packet at ``src`` can still reach ``dest``."""
        if not self.node_alive(src) or not self.node_alive(dest):
            return False
        return src == dest or src in self._dist(dest)

    def next_hop(self, node: int, dest: int, prefer: Optional[Port] = None) -> Optional[Port]:
        """A productive alive output port, or None if ``dest`` is cut off.

        Only strictly distance-decreasing hops are returned (livelock
        freedom); among them ``prefer`` (typically the minimal XY port)
        wins, then the canonical E/W/N/S order breaks remaining ties
        deterministically.
        """
        if node == dest:
            return Port.LOCAL
        dist = self._dist(dest)
        d = dist.get(node)
        if d is None:
            return None
        topology = self.topology
        candidates = _DIRECTIONS if prefer is None else (prefer,) + _DIRECTIONS
        for port in candidates:
            if not self.link_alive(node, port):
                continue
            if dist.get(topology.neighbour(node, port)) == d - 1:
                return port
        return None  # unreachable in practice: d finite implies a hop exists

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultState(dead_links={sorted(self.dead_links)}, "
            f"dead_nodes={sorted(self.dead_nodes)})"
        )
