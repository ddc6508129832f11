"""Tests for packets and flits."""

import pytest

from repro.noc import Packet


class TestFlitTypes:
    def test_multi_flit_layout(self):
        p = Packet(src=0, dest=1, size=4, flit_bits=128, created_at=0)
        assert [(f.is_head, f.is_tail) for f in p.flits] == [
            (True, False),
            (False, False),
            (False, False),
            (False, True),
        ]

    def test_single_flit_packet(self):
        p = Packet(src=0, dest=1, size=1, flit_bits=128, created_at=0)
        flit = p.flits[0]
        assert flit.is_head and flit.is_tail

    def test_two_flit_packet(self):
        p = Packet(src=0, dest=1, size=2, flit_bits=64, created_at=0)
        assert p.flits[0].is_head and not p.flits[0].is_tail
        assert p.flits[1].is_tail and not p.flits[1].is_head


class TestValidation:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Packet(src=0, dest=1, size=0, flit_bits=128, created_at=0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Packet(src=3, dest=3, size=2, flit_bits=128, created_at=0)

    def test_rejects_payload_count_mismatch(self):
        with pytest.raises(ValueError):
            Packet(src=0, dest=1, size=2, flit_bits=128, created_at=0, payloads=[1])


class TestPayloads:
    def test_combined_payload_concatenates(self):
        p = Packet(src=0, dest=1, size=2, flit_bits=8, created_at=0, payloads=[0xAB, 0xCD])
        assert p.combined_payload() == (0xCD << 8) | 0xAB

    def test_received_payload_applies_errors(self):
        p = Packet(src=0, dest=1, size=2, flit_bits=8, created_at=0, payloads=[0xAB, 0xCD])
        p.flits[0].error_mask = 0x01
        assert p.combined_payload(received=True) == (0xCD << 8) | 0xAA
        assert p.flits[0].received_payload != p.flits[0].payload
        assert p.flits[1].received_payload == p.flits[1].payload

    def test_total_bits(self):
        p = Packet(src=0, dest=1, size=4, flit_bits=128, created_at=0)
        assert p.total_bits == 512


class TestRetransmissionClone:
    def test_clone_preserves_identity_and_payload(self):
        p = Packet(
            src=0, dest=5, size=2, flit_bits=8, created_at=17, payloads=[1, 2],
            message_id=3,
        )
        p.crc_check = 0xBEEF
        clone = p.clone_for_retransmission(now=200)
        assert clone is not p
        assert clone.message_id == 3
        assert clone.created_at == p.created_at  # latency measured from origin
        assert [f.payload for f in clone.flits] == [1, 2]
        assert clone.crc_check == p.crc_check
        assert clone.retransmission == 1

    def test_clone_has_fresh_flits(self):
        p = Packet(src=0, dest=5, size=2, flit_bits=8, created_at=0, payloads=[1, 2])
        p.flits[0].error_mask = 0xFF
        clone = p.clone_for_retransmission(now=10)
        assert clone.flits[0].error_mask == 0
        assert clone.path == []

    def test_chained_clones_count_attempts(self):
        p = Packet(src=0, dest=5, size=1, flit_bits=8, created_at=0)
        c2 = p.clone_for_retransmission(1).clone_for_retransmission(2)
        assert c2.retransmission == 2
