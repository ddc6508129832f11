"""Routing functions and the named routing registry.

The paper uses deterministic X-Y dimension-order routing (Table II), which
is deadlock-free on a mesh without extra virtual-channel classes.  A Y-X
variant and a minimal-adaptive O1TURN-style router are provided for the
extension benchmarks; both restrict themselves to minimal quadrants.

A routing function maps ``(topology, current_node, dest_node)`` to the
output :class:`~repro.noc.topology.Port` the head flit must request.
Because some need per-router state (the O1TURN selector) or shared
network state (the fault-aware adaptive routing reads the live
:class:`~repro.noc.faultstate.FaultState`), the registry maps each name
to a builder; the network builds one routing function per router from
``(topology, router_id, seed, fault_state)``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Union

from repro.noc.faultstate import FaultState
from repro.noc.topology import MeshTopology, Port

__all__ = [
    "RoutingFunction",
    "RoutingBuilder",
    "xy_route",
    "yx_route",
    "minimal_ports",
    "O1TurnRoute",
    "AdaptiveRoute",
    "build_routing",
    "ROUTING_FUNCTIONS",
]

#: Round-robin selector length for the seeded O1TURN variant.
O1TURN_SELECTOR_BITS = 1024

#: Signature shared by all routing functions.
RoutingFunction = Callable[[MeshTopology, int, int], Port]

#: ``(topology, router_id, seed, fault_state)`` -> one router's routing
#: function; the registry's values.
RoutingBuilder = Callable[[MeshTopology, int, int, FaultState], RoutingFunction]


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


def yx_route(topology: MeshTopology, node: int, dest: int) -> Port:
    """Dimension-order Y-then-X routing (used by the O1TURN variant)."""
    if node == dest:
        return Port.LOCAL
    x, y = topology.coordinates(node)
    dx, dy = topology.coordinates(dest)
    if y != dy:
        return Port.NORTH if dy > y else Port.SOUTH
    return Port.EAST if dx > x else Port.WEST


def minimal_ports(topology: MeshTopology, node: int, dest: int) -> List[Port]:
    """All productive (minimal-quadrant) output ports."""
    if node == dest:
        return [Port.LOCAL]
    x, y = topology.coordinates(node)
    dx, dy = topology.coordinates(dest)
    ports = []
    if dx > x:
        ports.append(Port.EAST)
    elif dx < x:
        ports.append(Port.WEST)
    if dy > y:
        ports.append(Port.NORTH)
    elif dy < y:
        ports.append(Port.SOUTH)
    return ports


class O1TurnRoute:
    """O1TURN-style routing: pick XY or YX per packet.

    ``selector`` is any sequence consulted round-robin; in the simulator it
    is seeded per-router so the choice is deterministic and reproducible.
    Note: full O1TURN requires VC partitioning for deadlock freedom; the
    simulator assigns even VCs to XY and odd VCs to YX packets when this
    function is active.

    A plain class (not a closure) so the consumed selector position
    survives a checkpoint pickle — resuming a run mid-flight must replay
    exactly the XY/YX choices an uninterrupted run would have made.
    """

    __slots__ = ("selector", "index")

    fault_aware = False

    def __init__(self, selector: Sequence[int]) -> None:
        self.selector = selector
        self.index = 0

    def __call__(self, topology: MeshTopology, node: int, dest: int) -> Port:
        choice = self.selector[self.index % len(self.selector)]
        self.index += 1
        return xy_route(topology, node, dest) if choice == 0 else yx_route(
            topology, node, dest
        )

    def __getstate__(self):
        return (self.selector, self.index)

    def __setstate__(self, state) -> None:
        self.selector, self.index = state


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


def _build_xy(
    topology: MeshTopology, router_id: int, seed: int, fault_state: FaultState
) -> RoutingFunction:
    return xy_route


def _build_yx(
    topology: MeshTopology, router_id: int, seed: int, fault_state: FaultState
) -> RoutingFunction:
    return yx_route


def _build_o1turn(
    topology: MeshTopology, router_id: int, seed: int, fault_state: FaultState
) -> RoutingFunction:
    # Arithmetic seed mixing (not hash()) keeps the selector identical
    # across interpreters/processes, which sweep caching depends on.
    rng = random.Random(seed * 1_000_003 + router_id * 7_919 + 17)
    selector = tuple(rng.randrange(2) for _ in range(O1TURN_SELECTOR_BITS))
    return O1TurnRoute(selector)


def _build_adaptive(
    topology: MeshTopology, router_id: int, seed: int, fault_state: FaultState
) -> RoutingFunction:
    return AdaptiveRoute(fault_state)


#: Registry used by :class:`repro.sim.config.SimulationConfig`: each
#: name maps to the builder of one router's routing function.
ROUTING_FUNCTIONS: Dict[str, RoutingBuilder] = {
    "xy": _build_xy,
    "yx": _build_yx,
    "o1turn": _build_o1turn,
    "adaptive": _build_adaptive,
}


def build_routing(
    routing: Union[str, RoutingFunction],
    topology: MeshTopology,
    router_id: int,
    seed: int,
    fault_state: FaultState,
) -> RoutingFunction:
    """One router's routing function: a registry name is built for the
    router, a bare routing function (how tests drive custom routing) is
    shared by every router as is."""
    if callable(routing):
        return routing
    try:
        build = ROUTING_FUNCTIONS[routing]
    except KeyError:
        raise ValueError(
            f"unknown routing {routing!r}; pick one of "
            f"{', '.join(sorted(ROUTING_FUNCTIONS))}"
        ) from None
    return build(topology, router_id, seed, fault_state)
