#!/usr/bin/env python3
"""Print all five paper figures from the committed campaign report.

Reads ``benchmarks/results/campaign.json`` (written by ``repro campaign``;
EXPERIMENTS.md gives the exact command) and prints Figs 6-10 — the
per-benchmark series plus the geometric mean, next to the paper's
reported averages — without running any simulation.

Run:
    python examples/paper_figures.py
"""

import json
import sys
from pathlib import Path

from repro.sim import PAPER_AVERAGES

REPORT = Path(__file__).parent.parent / "benchmarks" / "results" / "campaign.json"


def cells(values):
    return "".join(f"{v:>9.2f}" if v is not None else f"{'n/a':>9s}" for v in values)


def main() -> int:
    if not REPORT.exists():
        raise SystemExit(
            f"no campaign report at {REPORT}; write it with the `repro campaign` "
            "command under 'Regenerating this file' in EXPERIMENTS.md"
        )
    report = json.loads(REPORT.read_text(encoding="utf-8"))
    designs = report["designs"]
    for key, paper in PAPER_AVERAGES.items():
        figure = report["figures"][key]
        print(
            f"\n=== {key} {figure['title']} ({figure['direction']} better)"
            f" — normalized to {report['baseline']} ==="
        )
        print(f"{'benchmark':14s}" + "".join(f"{d:>9s}" for d in designs))
        for bench, row in figure["per_benchmark"].items():
            print(f"{bench:14s}" + cells(row[d] for d in designs))
        print(f"{'GEOMEAN':14s}" + cells(figure["geomean"][d] for d in designs))
        print(f"{'paper avg':14s}" + cells(paper.get(d) for d in designs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
