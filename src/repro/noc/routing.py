"""Routing functions and the named routing registry.

The paper uses deterministic X-Y dimension-order routing (Table II), which
is deadlock-free on a mesh without extra virtual-channel classes.  The
hard-fault campaigns add a fault-aware adaptive routing that detours
around dead links and routers.

A routing function maps ``(topology, current_node, dest_node)`` to the
output :class:`~repro.noc.topology.Port` the head flit must request.
The adaptive routing reads the network's live
:class:`~repro.noc.faultstate.FaultState`, so the registry maps each name
to a builder from that state; the network builds one routing function
and gives it to every router: neither routing keeps per-router state.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.noc.faultstate import FaultState
from repro.noc.topology import MeshTopology, Port

__all__ = [
    "RoutingFunction",
    "xy_route",
    "AdaptiveRoute",
    "ROUTING_FUNCTIONS",
]

#: Signature shared by all routing functions.
RoutingFunction = Callable[[MeshTopology, int, int], Port]


#: ports as globals: reading an enum member through its class is slow
_LOCAL, _EAST, _WEST, _NORTH, _SOUTH = Port.LOCAL, Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH


def xy_route(topology: MeshTopology, node: int, dest: int) -> Port:
    """Dimension-order X-then-Y routing (the paper's configuration)."""
    if node == dest:
        return _LOCAL
    width = topology.width  # MeshTopology.coordinates, inlined
    x, dx = node % width, dest % width
    if x != dx:
        return _EAST if dx > x else _WEST
    return _NORTH if dest // width > node // width else _SOUTH


class AdaptiveRoute:
    """Fault-aware minimal-adaptive routing over the alive subgraph.

    While the network is fault-free this is *exactly* ``xy_route`` (same
    ports, same determinism, turn-model deadlock freedom intact).  Once a
    link or router dies, each hop moves strictly closer to the
    destination on the alive graph — livelock-free by construction —
    preferring the minimal XY port whenever it is still alive, so the
    detour region around a fault stays as small as possible.  Routes
    squeezed around faults can make turns the XY model forbids; the
    network's invariant watchdog is the documented backstop for the
    residual deadlock risk (the same trade FASHION-style fault-tolerant
    routers make).

    Unreachable destinations return the nominal XY port; the router's RC
    stage checks reachability first and drops such packets with
    accounting, so the value is never used to move a flit.
    """

    __slots__ = ("fault_state",)

    fault_aware = True

    def __init__(self, fault_state: FaultState) -> None:
        self.fault_state = fault_state

    def __call__(self, topology: MeshTopology, node: int, dest: int) -> Port:
        if node == dest:
            return Port.LOCAL
        preferred = xy_route(topology, node, dest)
        if not self.fault_state.any_faults:
            return preferred
        port = self.fault_state.next_hop(node, dest, prefer=preferred)
        return preferred if port is None else port

    def __getstate__(self):
        return self.fault_state

    def __setstate__(self, state) -> None:
        self.fault_state = state


#: Registry used by :class:`repro.sim.config.SimulationConfig`: each
#: name maps to the builder of the routing function from the network's
#: fault state.
ROUTING_FUNCTIONS: Dict[str, Callable[[FaultState], RoutingFunction]] = {
    "xy": lambda fault_state: xy_route,
    "adaptive": AdaptiveRoute,
}
