"""EXPERIMENTS.md quotes the paper table and the committed campaign report.

Every number in the headline table's Paper and Measured columns and in
both per-benchmark tables must equal, to the two decimals it shows,
``repro.sim.PAPER_AVERAGES`` or ``benchmarks/results/campaign.json``;
and the committed ``campaign.md`` must be the rendering of that JSON.
"""

import json
from pathlib import Path

import pytest

from repro.sim import PAPER_AVERAGES, render_report_markdown

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: Half a unit in the second decimal, plus float slack: 0.625 shows as 0.63.
TOLERANCE = 0.005 + 1e-9

DESIGNS = {"CRC": "crc", "ARQ+ECC": "arq_ecc", "DT": "dt", "RL": "rl"}


@pytest.fixture(scope="module")
def experiments():
    return (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def report():
    return json.loads((RESULTS / "campaign.json").read_text(encoding="utf-8"))


def table_after(text, heading):
    """Cell rows of the first Markdown table below ``heading``: the
    header row first, the ``|---|`` rule dropped."""
    lines = text.split(f"\n{heading}", 1)[1].splitlines()[1:]
    rows = []
    for line in lines:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
        elif rows:
            break
    return [rows[0]] + rows[2:]


def number(cell):
    return float(cell.strip("*~"))


def headline(text):
    """(figure key, design, paper cell, measured cell) per headline row."""
    rows = table_after(text, "## Headline results")
    assert rows[0][:5] == ["Figure", "Metric", "Design", "Paper", "Measured"]
    out = []
    key = None
    for figure, _metric, design, paper, measured, *_ in rows[1:]:
        if figure:
            key = "fig" + figure.split()[-1]
        out.append((key, DESIGNS[design.strip("*")], paper, measured))
    return out


def per_benchmark(text, figure):
    """(benchmark, design, cell) per cell of one per-benchmark table."""
    rows = table_after(text, f"## Fig. {figure} per-benchmark series")
    designs = [DESIGNS[name] for name in rows[0][1:]]
    return [
        (row[0], design, cell)
        for row in rows[1:]
        for design, cell in zip(designs, row[1:])
    ]


def mismatches(cells):
    return [
        (where, shown, expected)
        for where, shown, expected in cells
        if abs(number(shown) - expected) > TOLERANCE
    ]


def test_headline_paper_column_quotes_paper_table(experiments):
    rows = headline(experiments)
    assert len(rows) == 15
    cells = [
        ((key, design), paper, PAPER_AVERAGES[key][design])
        for key, design, paper, _measured in rows
    ]
    assert mismatches(cells) == []


def test_headline_measured_column_quotes_report(experiments, report):
    rows = headline(experiments)
    cells = [
        ((key, design), measured, report["figures"][key]["geomean"][design])
        for key, design, _paper, measured in rows
    ]
    assert mismatches(cells) == []


@pytest.mark.parametrize("figure", [6, 8])
def test_per_benchmark_table_quotes_report(experiments, report, figure):
    cells = per_benchmark(experiments, figure)
    assert len(cells) == len(report["benchmarks"]) * len(DESIGNS)
    ratios = report["figures"][f"fig{figure}"]["per_benchmark"]
    assert mismatches(
        ((bench, design), cell, ratios[bench][design]) for bench, design, cell in cells
    ) == []


def test_campaign_md_renders_campaign_json(report):
    committed = (RESULTS / "campaign.md").read_text(encoding="utf-8")
    assert committed == render_report_markdown(report)
