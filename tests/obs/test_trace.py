"""Unit tests for the trace layer: events, ring buffer, digest, JSONL."""

import pytest

from repro.obs.trace import (
    CATEGORIES,
    DIGEST_EXCLUDE,
    TraceBuffer,
    TraceEvent,
    parse_categories,
    read_trace_jsonl,
    trace_digest,
    write_trace_jsonl,
)


class TestTraceEvent:
    def test_round_trips_through_dict_and_json(self):
        ev = TraceEvent(42, "mode", "transition", subject=3, data={"old": 0, "new": 2})
        assert TraceEvent.from_dict(ev.as_dict()) == ev
        assert TraceEvent.from_json(ev.to_json()) == ev

    def test_optional_fields_omitted_from_encoding(self):
        ev = TraceEvent(0, "watchdog", "check")
        payload = ev.as_dict()
        assert "subject" not in payload
        assert "data" not in payload
        assert TraceEvent.from_json(ev.to_json()) == ev

    def test_canonical_json_is_sorted_and_compact(self):
        ev = TraceEvent(7, "fault", "link_kill", subject=1, data={"b": 2, "a": 1})
        line = ev.to_json()
        assert " " not in line
        assert line.index('"a"') < line.index('"b"')

    def test_from_dict_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="unknown trace category"):
            TraceEvent.from_dict({"cycle": 0, "category": "bogus", "kind": "x"})

    def test_events_with_different_payloads_are_unequal(self):
        a = TraceEvent(1, "rl", "decision", subject=0, data={"action": 1})
        b = TraceEvent(1, "rl", "decision", subject=0, data={"action": 2})
        assert a != b


class TestTraceBuffer:
    def test_emit_rejects_unknown_category(self):
        buf = TraceBuffer()
        with pytest.raises(ValueError, match="unknown trace category"):
            buf.emit(0, "bogus", "x")

    def test_rejects_unknown_filter_categories(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            TraceBuffer(categories=["mode", "bogus"])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceBuffer(capacity=0)

    def test_category_filter_counts_rejects(self):
        buf = TraceBuffer(categories=["mode"])
        assert buf.wants("mode")
        assert not buf.wants("fault")
        buf.emit(1, "mode", "transition", subject=0)
        buf.emit(2, "fault", "link_kill", subject=0)
        assert len(buf) == 1
        assert buf.emitted == 1
        assert buf.filtered == 1
        assert [ev.category for ev in buf] == ["mode"]

    def test_unfiltered_buffer_wants_everything(self):
        buf = TraceBuffer()
        assert all(buf.wants(c) for c in CATEGORIES)

    def test_ring_evicts_oldest_and_accounts_drops(self):
        buf = TraceBuffer(capacity=3)
        for cycle in range(5):
            buf.emit(cycle, "mode", "transition", subject=cycle)
        assert len(buf) == 3
        assert buf.emitted == 5
        assert buf.dropped == 2
        assert [ev.cycle for ev in buf] == [2, 3, 4]

    def test_events_selects_categories(self):
        buf = TraceBuffer()
        buf.emit(0, "mode", "transition")
        buf.emit(1, "fault", "link_kill")
        buf.emit(2, "mode", "transition")
        assert len(buf.events(["mode"])) == 2
        assert len(buf.events()) == 3


class TestDigest:
    def test_checkpoint_events_excluded_by_default(self):
        buf = TraceBuffer()
        buf.emit(0, "mode", "transition", subject=0)
        base = buf.digest()
        buf.emit(1, "checkpoint", "save", segment=0)
        assert buf.digest() == base
        assert buf.digest(exclude=()) != base
        assert DIGEST_EXCLUDE == ("checkpoint",)

    def test_digest_is_order_sensitive(self):
        a = TraceEvent(0, "mode", "transition", subject=0)
        b = TraceEvent(1, "mode", "transition", subject=1)
        assert trace_digest([a, b]) != trace_digest([b, a])

    def test_empty_streams_share_a_digest(self):
        assert trace_digest([]) == TraceBuffer().digest()


class TestJsonl:
    def test_round_trip(self, tmp_path):
        events = [
            TraceEvent(0, "mode", "transition", subject=1, data={"old": 0, "new": 3}),
            TraceEvent(7, "watchdog", "check", data={"outstanding": 4}),
            TraceEvent(9, "fault", "router_kill", subject=5),
        ]
        path = tmp_path / "t.jsonl"
        assert write_trace_jsonl(events, str(path)) == 3
        loaded = read_trace_jsonl(str(path))
        assert loaded == events
        assert trace_digest(loaded) == trace_digest(events)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ev = TraceEvent(0, "retx", "crc_retransmission", subject=2)
        path.write_text("\n" + ev.to_json() + "\n\n")
        assert read_trace_jsonl(str(path)) == [ev]


class TestParseCategories:
    def test_empty_means_all(self):
        assert parse_categories(None) is None
        assert parse_categories("") is None

    def test_splits_and_strips(self):
        assert parse_categories(" mode , fault ") == ("mode", "fault")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            parse_categories("mode,nope")
