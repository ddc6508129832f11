"""Metric timeline exporters (CSV and JSON).

Trace export lives in :mod:`repro.obs.trace` (JSONL is the only trace
format); this module handles the registry side: a JSON document with the
full snapshot + timeline, or a flat CSV of the per-epoch rows for
spreadsheet/pandas consumption.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List

from repro.obs.metrics import MetricRegistry

__all__ = [
    "metrics_timeline_rows",
    "write_metrics_csv",
    "write_metrics_json",
]


def metrics_timeline_rows(registry: MetricRegistry) -> List[Dict[str, float]]:
    """Timeline rows normalised to a common column set.

    Instruments created mid-run leave early rows short; fill the gaps
    with 0 so CSV columns line up.
    """
    columns: List[str] = ["cycle"]
    seen = {"cycle"}
    for row in registry.timeline:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    out = []
    for row in registry.timeline:
        out.append({col: row.get(col, 0) for col in columns})
    return out


def write_metrics_csv(registry: MetricRegistry, path: str) -> int:
    """Write the per-epoch timeline as CSV; returns the row count."""
    rows = metrics_timeline_rows(registry)
    columns = list(rows[0].keys()) if rows else ["cycle"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


def write_metrics_json(registry: MetricRegistry, path: str) -> None:
    """Write the full registry snapshot plus the timeline as JSON."""
    payload = {
        "snapshot": registry.snapshot(),
        "timeline": metrics_timeline_rows(registry),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
