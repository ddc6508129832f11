"""Property-based tests for the observability primitives.

Two invariants the rest of the layer leans on:

* the canonical JSONL encoding of a trace round-trips losslessly (the
  ``repro trace`` CLI and the golden-digest tests read files written by
  ``--trace``);
* the ring buffer's drop/filter accounting is exact for any interleaving
  of capacities, filters, and event streams.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.obs.trace import CATEGORIES, TraceBuffer, TraceEvent, trace_digest

# JSON-scalar payload values; floats restricted to finite (NaN does not
# round-trip through equality and the hooks never emit it).
scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=12),
)

events = st.builds(
    TraceEvent,
    cycle=st.integers(min_value=0, max_value=10**9),
    category=st.sampled_from(CATEGORIES),
    kind=st.text(
        alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127),
        min_size=1,
        max_size=16,
    ),
    subject=st.one_of(st.none(), st.integers(min_value=0, max_value=255)),
    data=st.dictionaries(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127),
            min_size=1,
            max_size=8,
        ),
        scalars,
        max_size=4,
    ),
)


class TestJsonlRoundTrip:
    @given(stream=st.lists(events, max_size=20))
    @settings(deadline=None)
    def test_encode_decode_preserves_stream_and_digest(self, stream, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.jsonl"
        from repro.obs.trace import read_trace_jsonl, write_trace_jsonl

        write_trace_jsonl(stream, str(path))
        loaded = read_trace_jsonl(str(path))
        assert loaded == stream
        assert trace_digest(loaded, exclude=()) == trace_digest(stream, exclude=())

    @given(ev=events)
    @settings(deadline=None)
    def test_single_event_json_round_trip(self, ev):
        assert TraceEvent.from_json(ev.to_json()) == ev


class TestRingAccounting:
    @given(
        capacity=st.integers(min_value=1, max_value=32),
        wanted=st.one_of(
            st.none(),
            st.sets(st.sampled_from(CATEGORIES), min_size=1),
        ),
        stream=st.lists(st.sampled_from(CATEGORIES), max_size=100),
    )
    @settings(deadline=None)
    def test_drop_and_filter_invariants(self, capacity, wanted, stream):
        buf = TraceBuffer(capacity=capacity, categories=wanted)
        for cycle, category in enumerate(stream):
            buf.emit(cycle, category, "evt")
        accepted = (
            len(stream)
            if wanted is None
            else sum(1 for c in stream if c in wanted)
        )
        assert buf.emitted == accepted
        assert buf.filtered == len(stream) - accepted
        assert len(buf) == min(accepted, capacity)
        assert buf.dropped == buf.emitted - len(buf)
        # survivors are exactly the newest accepted events, in order
        kept = [c for c in stream if wanted is None or c in wanted]
        assert [ev.category for ev in buf] == kept[-capacity:]
