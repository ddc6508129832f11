"""Tests for virtual channels and input ports."""

import pytest

from repro.noc import InputPort, Packet, Port, VCState
from repro.noc.buffers import VirtualChannel


def _flit(index=0, size=4):
    packet = Packet(src=0, dest=1, size=size, flit_bits=8, created_at=0)
    return packet.flits[index]


class TestVirtualChannel:
    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            VirtualChannel(Port.LOCAL, 0, 0)

    def test_fifo_order(self):
        vc = VirtualChannel(Port.EAST, 1, 4)
        packet = Packet(src=0, dest=1, size=3, flit_bits=8, created_at=0)
        for flit in packet.flits:
            vc.push(flit)
        assert [vc.pop() for _ in range(3)] == packet.flits

    def test_overflow_raises(self):
        vc = VirtualChannel(Port.EAST, 0, 1)
        vc.push(_flit())
        with pytest.raises(OverflowError):
            vc.push(_flit())

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            VirtualChannel(Port.EAST, 0, 1).pop()

    def test_release_resets_state(self):
        vc = VirtualChannel(Port.EAST, 0, 2)
        vc.state = VCState.ACTIVE
        vc.out_port = 3
        vc.out_vc = 1
        vc.release()
        assert vc.state is VCState.IDLE
        assert vc.out_port is None and vc.out_vc is None

    def test_front_peeks(self):
        vc = VirtualChannel(Port.EAST, 0, 2)
        assert vc.front is None
        flit = _flit()
        vc.push(flit)
        assert vc.front is flit
        assert len(vc.fifo) == 1


class TestInputPort:
    def test_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            InputPort(Port.LOCAL, 0, 4)

    def test_occupied_vcs_counts_busy_lanes(self):
        port = InputPort(Port.NORTH, 4, 4)
        assert port.occupied_vcs == 0
        port.vcs[0].push(_flit())
        port.vcs[2].state = VCState.ACTIVE
        assert port.occupied_vcs == 2

    def test_free_vc_for_head_skips_busy(self):
        port = InputPort(Port.NORTH, 2, 4)
        port.vcs[0].state = VCState.ROUTING
        free = port.free_vc_for_head()
        assert free is port.vcs[1]
        port.vcs[1].push(_flit())
        assert port.free_vc_for_head() is None
