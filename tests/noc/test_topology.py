"""Tests for mesh topology construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import MeshTopology, Port
from repro.noc.topology import OPPOSITE_PORT


class TestConstruction:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            MeshTopology(1, 4)
        with pytest.raises(ValueError):
            MeshTopology(4, 1)

    def test_node_count(self):
        assert MeshTopology(8, 8).num_nodes == 64
        assert MeshTopology(4, 2).num_nodes == 8

    def test_channel_count_mesh(self):
        # 2 * (w-1) * h horizontal + 2 * w * (h-1) vertical directed links
        topo = MeshTopology(4, 4)
        assert len(list(topo.channels())) == 2 * 3 * 4 + 2 * 4 * 3


class TestCoordinates:
    def test_roundtrip(self):
        topo = MeshTopology(5, 3)
        for node in range(topo.num_nodes):
            x, y = topo.coordinates(node)
            assert topo.node_id(x, y) == node

    def test_rejects_out_of_range(self):
        topo = MeshTopology(4, 4)
        with pytest.raises(ValueError):
            topo.coordinates(16)
        with pytest.raises(ValueError):
            topo.node_id(4, 0)


class TestNeighbours:
    def test_interior_node_has_four_neighbours(self):
        topo = MeshTopology(4, 4)
        node = topo.node_id(1, 1)
        assert topo.neighbour(node, Port.EAST) == topo.node_id(2, 1)
        assert topo.neighbour(node, Port.WEST) == topo.node_id(0, 1)
        assert topo.neighbour(node, Port.NORTH) == topo.node_id(1, 2)
        assert topo.neighbour(node, Port.SOUTH) == topo.node_id(1, 0)

    def test_corner_has_two_neighbours(self):
        topo = MeshTopology(4, 4)
        assert topo.neighbour(0, Port.WEST) is None
        assert topo.neighbour(0, Port.SOUTH) is None
        assert topo.neighbour(0, Port.EAST) == 1
        assert topo.neighbour(0, Port.NORTH) == 4

    def test_channels_are_symmetric(self):
        topo = MeshTopology(4, 4)
        pairs = {(c.src, c.dst) for c in topo.channels()}
        assert all((dst, src) in pairs for src, dst in pairs)

    def test_channel_dst_port_is_opposite(self):
        for spec in MeshTopology(3, 3).channels():
            assert spec.dst_port == OPPOSITE_PORT[spec.src_port]

    def test_ports_of_corner_and_interior(self):
        topo = MeshTopology(4, 4)

        def wired(node):
            return {p for p in Port if topo.neighbour(node, p) is not None}

        assert wired(0) == {Port.EAST, Port.NORTH}
        assert len(wired(topo.node_id(1, 1))) == 4


class TestHopDistance:
    def test_manhattan(self):
        topo = MeshTopology(4, 4)
        assert topo.hop_distance(0, 15) == 6
        assert topo.hop_distance(0, 0) == 0
        assert topo.hop_distance(0, 3) == 3


@settings(max_examples=100)
@given(
    w=st.integers(min_value=2, max_value=8),
    h=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_property_neighbour_symmetry(w, h, data):
    """neighbour(neighbour(n, p), opposite(p)) == n on any mesh."""
    topo = MeshTopology(w, h)
    node = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    for port, opposite in OPPOSITE_PORT.items():
        other = topo.neighbour(node, port)
        if other is not None:
            assert topo.neighbour(other, opposite) == node


@settings(max_examples=100)
@given(
    w=st.integers(min_value=2, max_value=8),
    h=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_property_hop_distance_is_metric(w, h, data):
    topo = MeshTopology(w, h)
    n = topo.num_nodes
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert topo.hop_distance(a, b) == topo.hop_distance(b, a)
    assert (topo.hop_distance(a, b) == 0) == (a == b)
    assert topo.hop_distance(a, c) <= topo.hop_distance(a, b) + topo.hop_distance(b, c)
