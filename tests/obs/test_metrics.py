"""Unit tests for the metric registry, instruments, and exporters."""

import csv
import json

import pytest

from repro.obs.export import (
    metrics_timeline_rows,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry


class TestInstruments:
    def test_counter_inc_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.5)
        g.set(-1.0)
        assert g.value == -1.0


class TestHistogram:
    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(10.0, 10.0, 20.0))

    def test_records_into_correct_buckets(self):
        h = Histogram(bounds=(10.0, 100.0))
        for value in (1.0, 10.0, 50.0, 1000.0):
            h.record(value)
        assert h.buckets == [2, 1, 1]  # <=10, <=100, overflow
        assert h.count == 4
        assert h.min == 1.0
        assert h.max == 1000.0
        assert h.mean == pytest.approx(1061.0 / 4)

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0


class TestMetricRegistry:
    def test_create_on_access_returns_same_instrument(self):
        m = MetricRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("b") is m.gauge("b")
        assert m.histogram("c") is m.histogram("c")

    def test_rejects_nonpositive_timeline_cap(self):
        with pytest.raises(ValueError, match="max_timeline"):
            MetricRegistry(max_timeline=0)

    def test_ingest_takes_numbers_and_skips_the_rest(self):
        m = MetricRegistry()
        m.ingest("net", {"cycles": 10, "mean": 2.5, "label": "x", "flag": True})
        scalars = m.scalars()
        assert scalars == {"net.cycles": 10, "net.mean": 2.5}

    def test_snapshot_epoch_appends_flat_rows(self):
        m = MetricRegistry()
        m.counter("hits").inc(3)
        m.gauge("temp").set(71.5)
        row = m.snapshot_epoch(500)
        assert row == {"cycle": 500, "hits": 3, "temp": 71.5}
        assert m.timeline == [row]

    def test_timeline_cap_drops_oldest(self):
        m = MetricRegistry(max_timeline=2)
        for cycle in (1, 2, 3):
            m.snapshot_epoch(cycle)
        assert [row["cycle"] for row in m.timeline] == [2, 3]
        assert m.timeline_dropped == 1
        assert m.snapshot()["timeline_dropped"] == 1

    def test_snapshot_is_sorted_and_complete(self):
        m = MetricRegistry()
        m.counter("b").inc()
        m.counter("a").inc()
        m.histogram("lat").record(12.0)
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["histograms"]["lat"]["count"] == 1


class TestExport:
    def test_timeline_rows_fill_missing_columns(self):
        m = MetricRegistry()
        m.counter("early").inc()
        m.snapshot_epoch(1)
        m.counter("late").inc(7)
        m.snapshot_epoch(2)
        rows = metrics_timeline_rows(m)
        assert rows[0] == {"cycle": 1, "early": 1, "late": 0}
        assert rows[1] == {"cycle": 2, "early": 1, "late": 7}

    def test_csv_round_trip(self, tmp_path):
        m = MetricRegistry()
        m.gauge("x").set(1.5)
        m.snapshot_epoch(100)
        path = tmp_path / "m.csv"
        assert write_metrics_csv(m, str(path)) == 1
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"cycle": "100", "x": "1.5"}]

    def test_empty_csv_still_has_header(self, tmp_path):
        path = tmp_path / "m.csv"
        assert write_metrics_csv(MetricRegistry(), str(path)) == 0
        assert path.read_text().strip() == "cycle"

    def test_json_export_shape(self, tmp_path):
        m = MetricRegistry()
        m.counter("a").inc(2)
        m.snapshot_epoch(10)
        path = tmp_path / "m.json"
        write_metrics_json(m, str(path))
        payload = json.loads(path.read_text())
        assert payload["snapshot"]["counters"] == {"a": 2}
        assert payload["timeline"] == [{"cycle": 10, "a": 2}]
