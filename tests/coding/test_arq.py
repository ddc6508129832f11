"""Unit and property tests for the ARQ retransmission buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import ArqError, RetransmissionBuffer


class TestBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RetransmissionBuffer(0)

    def test_push_returns_monotonic_sequence(self):
        buf = RetransmissionBuffer(8)
        seqs = [buf.push(f"flit{i}") for i in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_len_and_occupancy(self):
        buf = RetransmissionBuffer(4)
        assert buf.is_empty and len(buf) == 0
        buf.push("a")
        buf.push("b")
        assert len(buf) == 2
        assert not buf.is_empty and not buf.is_full

    def test_overflow_raises(self):
        buf = RetransmissionBuffer(2)
        buf.push("a")
        buf.push("b")
        assert buf.is_full
        with pytest.raises(ArqError):
            buf.push("c")


class TestAckNack:
    def test_ack_releases_entry(self):
        buf = RetransmissionBuffer(4)
        seq = buf.push("flit")
        other = buf.push("next")
        assert buf.ack(seq) == "flit"
        assert len(buf) == 1
        assert {s for s, _ in buf} == {other}

    def test_nack_keeps_entry(self):
        """A NACKed flit is resent from ``peek`` (as often as it is
        corrupted again) and stays buffered until its ACK."""
        buf = RetransmissionBuffer(4)
        seq = buf.push("flit")
        for _ in range(2):
            assert buf.peek(seq) == "flit"
            assert len(buf) == 1
            assert {s for s, _ in buf} == {seq}
        assert buf.ack(seq) == "flit"
        assert buf.is_empty

    def test_unknown_seq_raises(self):
        buf = RetransmissionBuffer(4)
        with pytest.raises(ArqError):
            buf.ack(99)

    def test_flush_empties(self):
        buf = RetransmissionBuffer(4)
        buf.push("a")
        buf.push("b")
        buf.flush()
        assert buf.is_empty

    def test_peek_does_not_consume(self):
        buf = RetransmissionBuffer(4)
        seq = buf.push("a")
        assert buf.peek(seq) == "a"
        assert buf.peek(seq + 1) is None
        assert len(buf) == 1


class TestIteration:
    def test_iteration_is_insertion_order(self):
        buf = RetransmissionBuffer(8)
        items = [f"f{i}" for i in range(5)]
        seqs = [buf.push(item) for item in items]
        assert [(s, i) for s, i in buf] == list(zip(seqs, items))

    def test_order_preserved_after_middle_ack(self):
        buf = RetransmissionBuffer(8)
        s0, s1, s2 = buf.push("a"), buf.push("b"), buf.push("c")
        buf.ack(s1)
        assert [s for s, _ in buf] == [s0, s2]


@settings(max_examples=100)
@given(ops=st.lists(st.sampled_from(["push", "ack", "resend"]), max_size=60))
def test_property_conservation(ops):
    """The buffer holds exactly the pushed, not yet ACKed entries, in
    send order, regardless of the operation sequence."""
    buf = RetransmissionBuffer(16)
    pending = []
    for op in ops:
        if op == "push" and not buf.is_full:
            pending.append(buf.push(object()))
        elif op == "ack" and pending:
            buf.ack(pending.pop(0))
        elif op == "resend" and pending:
            assert buf.peek(pending[0]) is not None
        assert len(buf) == len(pending)
    assert [s for s, _ in buf] == pending
