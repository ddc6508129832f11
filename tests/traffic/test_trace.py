"""Tests for trace records and replay."""

import random

import pytest

from repro.noc import MeshTopology
from repro.traffic import TraceRecord, TraceReplayer


class TestRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, 0, 1, 4)
        with pytest.raises(ValueError):
            TraceRecord(0, 0, 1, 0)
        with pytest.raises(ValueError):
            TraceRecord(0, 3, 3, 4)

    def test_ordering_by_cycle(self):
        records = [TraceRecord(5, 0, 1, 4), TraceRecord(2, 1, 0, 4)]
        assert sorted(records)[0].cycle == 2


class TestReplayer:
    def _records(self):
        return [
            TraceRecord(0, 0, 1, 4),
            TraceRecord(2, 1, 2, 4),
            TraceRecord(2, 3, 0, 2),
            TraceRecord(10, 2, 3, 4),
        ]

    def test_replays_in_time_order(self):
        replayer = TraceReplayer(self._records(), MeshTopology(2, 2))
        assert len(replayer.packets_for_cycle(0)) == 1
        assert len(replayer.packets_for_cycle(1)) == 0
        assert len(replayer.packets_for_cycle(2)) == 2
        assert not replayer.exhausted
        assert len(replayer.packets_for_cycle(10)) == 1
        assert replayer.exhausted

    def test_late_poll_catches_up(self):
        replayer = TraceReplayer(self._records(), MeshTopology(2, 2))
        assert len(replayer.packets_for_cycle(99)) == 4

    def test_packet_fields_match_record(self):
        replayer = TraceReplayer([TraceRecord(1, 3, 0, 2)], MeshTopology(2, 2), flit_bits=32)
        packet = replayer.packets_for_cycle(1)[0]
        assert (packet.src, packet.dest, packet.size) == (3, 0, 2)
        assert packet.flit_bits == 32

    def test_rejects_off_mesh_records(self):
        with pytest.raises(ValueError):
            TraceReplayer([TraceRecord(0, 0, 99, 4)], MeshTopology(2, 2))

    def test_empty_trace(self):
        replayer = TraceReplayer([], MeshTopology(2, 2))
        assert replayer.exhausted
        assert replayer.packets_for_cycle(0) == []
