"""Round-trip tests for the metric exporters (CSV and JSON).

The JSON export is the registry's durable form — ``run --metrics`` dumps
it.  These tests pin what a reader gets back with ``json.load``: the
registry's snapshot and its zero-filled timeline rows, for the empty
registry, for unicode metric names, and (property-tested) for arbitrary
instrument populations.
"""

import csv
import json

import pytest

from repro.obs.export import (
    metrics_timeline_rows,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.metrics import MetricRegistry


def _roundtrip(registry: MetricRegistry, path) -> dict:
    """Write ``registry`` as JSON and read the document back."""
    write_metrics_json(registry, str(path))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestEmptyRegistry:
    def test_json_round_trip(self, tmp_path):
        registry = MetricRegistry()
        payload = _roundtrip(registry, tmp_path / "metrics.json")
        assert payload == {"snapshot": registry.snapshot(), "timeline": []}

    def test_csv_has_header_only(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        assert write_metrics_csv(MetricRegistry(), path) == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["cycle"]]


class TestUnicodeLabels:
    def test_unicode_metric_names_survive_json(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("链路.失败").inc(3)
        registry.gauge("température.°C").set(45.5)
        registry.histogram("λ-latency").record(12.0)
        snapshot = _roundtrip(registry, tmp_path / "metrics.json")["snapshot"]
        assert snapshot["counters"]["链路.失败"] == 3
        assert snapshot["gauges"]["température.°C"] == 45.5
        assert snapshot == registry.snapshot()

    def test_unicode_metric_names_survive_csv(self, tmp_path):
        registry = MetricRegistry()
        registry.gauge("θ.中文").set(1.25)
        registry.snapshot_epoch(100)
        path = str(tmp_path / "metrics.csv")
        assert write_metrics_csv(registry, path) == 1
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["θ.中文"] == "1.25"


class TestTimelineRoundTrip:
    def test_timeline_rows_and_dropped_survive(self, tmp_path):
        registry = MetricRegistry(max_timeline=2)
        for cycle in (100, 200, 300):
            registry.counter("epochs").inc()
            registry.snapshot_epoch(cycle)
        assert registry.timeline_dropped == 1
        payload = _roundtrip(registry, tmp_path / "metrics.json")
        assert payload["snapshot"]["timeline_dropped"] == 1
        assert payload["timeline"] == metrics_timeline_rows(registry)


# ----------------------------------------------------------------------
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

names = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Lo", "Nd"), blacklist_characters="\x00"
    ),
    min_size=1,
    max_size=12,
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def registries(draw):
    registry = MetricRegistry()
    for name in draw(st.lists(names, max_size=4, unique=True)):
        registry.counter(name).inc(draw(st.integers(min_value=0, max_value=10**6)))
    for name in draw(st.lists(names, max_size=4, unique=True)):
        registry.gauge(name).set(draw(finite))
    for name in draw(st.lists(names, max_size=2, unique=True)):
        hist = registry.histogram(name)
        for value in draw(st.lists(finite, max_size=8)):
            hist.record(value)
    for cycle in draw(st.lists(st.integers(min_value=0, max_value=10**9), max_size=3)):
        registry.snapshot_epoch(cycle)
    return registry


@settings(max_examples=50, deadline=None)
@given(registries())
def test_export_reingests_to_equal_registry(tmp_path_factory, registry):
    """The written document reads back as the registry's snapshot and
    timeline rows."""
    payload = _roundtrip(registry, tmp_path_factory.mktemp("export") / "metrics.json")
    assert payload["snapshot"] == registry.snapshot()
    assert payload["timeline"] == metrics_timeline_rows(registry)
