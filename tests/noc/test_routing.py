"""Tests for the XY routing function."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import MeshTopology, Port, xy_route


def _walk(topology, route_fn, src, dest, limit=64):
    """Follow a routing function hop by hop; returns the path."""
    node = src
    path = [node]
    for _ in range(limit):
        if node == dest:
            return path
        port = route_fn(topology, node, dest)
        node = topology.neighbour(node, port)
        assert node is not None, "routing walked off the mesh"
        path.append(node)
    raise AssertionError("routing did not reach the destination")


class TestXY:
    def test_local_at_destination(self):
        topo = MeshTopology(4, 4)
        assert xy_route(topo, 5, 5) is Port.LOCAL

    def test_x_first(self):
        topo = MeshTopology(4, 4)
        # from (0,0) to (2,2): must go EAST first
        assert xy_route(topo, 0, topo.node_id(2, 2)) is Port.EAST
        # from (2,0) to (2,2): x aligned, go NORTH
        assert xy_route(topo, topo.node_id(2, 0), topo.node_id(2, 2)) is Port.NORTH

    def test_path_is_minimal(self):
        topo = MeshTopology(4, 4)
        path = _walk(topo, xy_route, 0, 15)
        assert len(path) - 1 == topo.hop_distance(0, 15)

    def test_no_yx_turn(self):
        """XY never turns from a Y direction back into an X direction."""
        topo = MeshTopology(5, 5)
        for src in range(25):
            for dest in range(25):
                if src == dest:
                    continue
                path = _walk(topo, xy_route, src, dest)
                seen_y = False
                for a, b in zip(path, path[1:]):
                    ax, ay = topo.coordinates(a)
                    bx, by = topo.coordinates(b)
                    if ay != by:
                        seen_y = True
                    if ax != bx:
                        assert not seen_y, f"YX turn on path {path}"


class TestMinimalPorts:
    def test_xy_choice_is_always_minimal(self):
        """The XY port's neighbour is one hop closer to the destination."""
        topo = MeshTopology(4, 4)
        for src in range(16):
            for dest in range(16):
                if src != dest:
                    hop = topo.neighbour(src, xy_route(topo, src, dest))
                    assert topo.hop_distance(hop, dest) == topo.hop_distance(src, dest) - 1


@settings(max_examples=200)
@given(
    w=st.integers(min_value=2, max_value=8),
    h=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_property_xy_always_delivers_minimally(w, h, data):
    topo = MeshTopology(w, h)
    src = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    dest = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    if src == dest:
        return
    path = _walk(topo, xy_route, src, dest, limit=w + h)
    assert path[-1] == dest
    assert len(path) - 1 == topo.hop_distance(src, dest)
