"""Hypothesis property tests for the routing functions.

Complements the example-based tests in ``test_routing.py``: XY must
return a productive minimal port, realize exactly the Manhattan distance
and never make a Y-to-X turn; adaptive must equal XY on a healthy mesh
and route around a dead link.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import FaultState, MeshTopology, Port, xy_route
from repro.noc.routing import AdaptiveRoute

MAX_DIM = 8

dims = st.integers(min_value=2, max_value=MAX_DIM)


@st.composite
def mesh_and_pair(draw):
    width, height = draw(dims), draw(dims)
    topo = MeshTopology(width, height)
    nodes = width * height
    src = draw(st.integers(min_value=0, max_value=nodes - 1))
    dest = draw(st.integers(min_value=0, max_value=nodes - 1))
    return topo, src, dest


def _walk(topology, route_fn, src, dest, limit=None):
    node = src
    path = [node]
    limit = limit if limit is not None else 4 * (topology.width + topology.height)
    for _ in range(limit):
        if node == dest:
            return path
        port = route_fn(topology, node, dest)
        node = topology.neighbour(node, port)
        assert node is not None, "routing walked off the mesh"
        path.append(node)
    raise AssertionError("routing did not reach the destination")


@settings(max_examples=200, deadline=None)
@given(mesh_and_pair())
def test_dimension_order_ports_are_productive_minimal(case):
    """The XY port's neighbour is one hop closer to the destination."""
    topo, src, dest = case
    port = xy_route(topo, src, dest)
    if src == dest:
        assert port is Port.LOCAL
    else:
        hop = topo.neighbour(src, port)
        assert topo.hop_distance(hop, dest) == topo.hop_distance(src, dest) - 1


@settings(max_examples=200, deadline=None)
@given(mesh_and_pair())
def test_route_length_equals_manhattan_distance(case):
    topo, src, dest = case
    path = _walk(topo, xy_route, src, dest)
    assert len(path) - 1 == topo.hop_distance(src, dest)


@settings(max_examples=200, deadline=None)
@given(mesh_and_pair())
def test_xy_never_turns_y_to_x(case):
    topo, src, dest = case
    path = _walk(topo, xy_route, src, dest)
    seen_y = False
    for a, b in zip(path, path[1:]):
        ax, ay = topo.coordinates(a)
        bx, by = topo.coordinates(b)
        if ay != by:
            seen_y = True
        if ax != bx:
            assert not seen_y, f"YX turn on path {path}"


@settings(max_examples=100, deadline=None)
@given(mesh_and_pair())
def test_adaptive_equals_xy_when_healthy(case):
    topo, src, dest = case
    fn = AdaptiveRoute(FaultState(topo))
    assert fn(topo, src, dest) == xy_route(topo, src, dest)


@settings(max_examples=100, deadline=None)
@given(mesh_and_pair(), st.randoms(use_true_random=False))
def test_adaptive_reaches_destination_around_one_dead_link(case, rnd):
    topo, src, dest = case
    fault_state = FaultState(topo)
    fn = AdaptiveRoute(fault_state)
    # Kill one random directed link that isn't the destination's last
    # resort: pick any; if it cuts the graph, reachability must say so.
    channels = list(topo.channels())
    spec = channels[rnd.randrange(len(channels))]
    fault_state.kill_link(spec.src, int(spec.src_port))
    if not fault_state.reachable(src, dest):
        return  # cut graph: RC would drop with accounting, not route
    path = _walk(topo, fn, src, dest)
    for a, b in zip(path, path[1:]):
        assert (a, b) != (spec.src, spec.dst), "route used the dead link"
