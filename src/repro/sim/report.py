"""Figs 6-10 campaign reports: normalized per-benchmark + geomean tables.

Turns a campaign's merged {benchmark: {design: RunResult}} grid into the
normalized tables the paper's headline figures plot — retransmissions
(Fig 6), execution speed-up (Fig 7), end-to-end latency (Fig 8), energy
efficiency (Fig 9), and dynamic power (Fig 10) — every value normalized
to the CRC baseline and geomean-averaged across benchmarks.  This is
the only place the figures are normalized: ``repro campaign``, the
``benchmarks/`` figure benches and ``examples/paper_figures.py`` all
read :func:`campaign_report`, and :data:`PAPER_AVERAGES` is the one
copy of the paper's reported averages they compare against.

The JSON form is schema-versioned (:data:`REPORT_SCHEMA`) so CI digest
gates can pin its shape; the Markdown form matches EXPERIMENTS.md's
headline tables.  Undefined cells (a zero baseline, a quarantined cell)
come out as ``None`` in JSON and ``n/a`` in Markdown — never as a
silent 0.0.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.experiment import geometric_mean, normalize_to_baseline
from repro.sim.metrics import RunResult

__all__ = [
    "REPORT_SCHEMA",
    "FIGURES",
    "PAPER_AVERAGES",
    "campaign_report",
    "render_report_markdown",
]

#: Bump when the report JSON shape changes (CI gates pin this).
REPORT_SCHEMA = 1


def _retransmissions(result: RunResult) -> float:
    # +1 Laplace smoothing: a zero-retransmission baseline cell would
    # otherwise make the whole column's ratios undefined.
    return float(result.retransmission_events + 1)


#: The five headline figures: (key, title, metric, direction, invert).
#: ``direction`` says how to read the reported ratio ("lower" = below
#: 1.0 beats CRC); ``invert`` reports the reciprocal of the normalized
#: metric (Fig 7 plots speed-UP, i.e. crc_cycles / design_cycles).
FIGURES = (
    ("fig6", "Retransmissions", _retransmissions, "lower", False),
    ("fig7", "Execution speed-up", lambda r: float(r.execution_cycles), "higher", True),
    ("fig8", "End-to-end latency", lambda r: r.mean_latency, "lower", False),
    ("fig9", "Energy efficiency", lambda r: r.energy_efficiency, "higher", False),
    ("fig10", "Dynamic power", lambda r: r.dynamic_power_watts, "lower", False),
)

#: The paper's reported averages (Section VI-A, Figs 6-10), normalized
#: to CRC and read the same way as :data:`FIGURES`.
PAPER_AVERAGES = {
    "fig6": {"crc": 1.00, "arq_ecc": 0.67, "dt": 0.60, "rl": 0.52},
    "fig7": {"crc": 1.00, "arq_ecc": 1.15, "dt": 1.20, "rl": 1.25},
    "fig8": {"crc": 1.00, "arq_ecc": 0.70, "dt": 0.50, "rl": 0.45},
    "fig9": {"crc": 1.00, "arq_ecc": 1.35, "dt": 1.43, "rl": 1.64},
    "fig10": {"crc": 1.00, "arq_ecc": 0.75, "dt": 0.65, "rl": 0.54},
}


def _figure_ratios(
    results: Dict[str, RunResult],
    metric: Callable[[RunResult], float],
    invert: bool,
    baseline: str,
) -> Dict[str, float]:
    ratios = normalize_to_baseline(results, metric, baseline=baseline)
    if not invert:
        return ratios
    return {
        design: (1.0 / value if value and math.isfinite(value) else float("nan"))
        for design, value in ratios.items()
    }


def campaign_report(
    suite: Dict[str, Dict[str, RunResult]],
    baseline: str = "crc",
    designs: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Normalized Figs 6-10 tables for a campaign grid.

    ``suite`` is :attr:`CampaignResult.suite`'s
    {benchmark: {design: RunResult}} shape.  Benchmarks missing the
    baseline design (e.g. a quarantined cell) are dropped from every
    figure with per-design ``None`` placeholders kept out of the
    geomean.  Non-finite ratios serialize as ``None`` — valid JSON, and
    loudly absent rather than silently zero.
    """
    benchmarks = sorted(suite)
    if designs is None:
        seen: List[str] = []
        for results in suite.values():
            for design in results:
                if design not in seen:
                    seen.append(design)
        designs = seen
    designs = list(designs)

    figures: Dict[str, object] = {}
    for key, title, metric, direction, invert in FIGURES:
        per_benchmark: Dict[str, Dict[str, Optional[float]]] = {}
        columns: Dict[str, List[float]] = {design: [] for design in designs}
        for benchmark in benchmarks:
            results = suite[benchmark]
            if baseline not in results:
                continue
            ratios = _figure_ratios(results, metric, invert, baseline)
            row: Dict[str, Optional[float]] = {}
            for design in designs:
                value = ratios.get(design, float("nan"))
                row[design] = value if math.isfinite(value) else None
                if design in ratios:
                    columns[design].append(ratios[design])
            per_benchmark[benchmark] = row
        geomean: Dict[str, Optional[float]] = {}
        for design in designs:
            value = geometric_mean(columns[design])
            geomean[design] = value if math.isfinite(value) else None
        figures[key] = {
            "title": title,
            "direction": direction,
            "per_benchmark": per_benchmark,
            "geomean": geomean,
        }

    return {
        "schema": REPORT_SCHEMA,
        "baseline": baseline,
        "benchmarks": benchmarks,
        "designs": designs,
        "figures": figures,
    }


def _cell(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "n/a"


def render_report_markdown(report: Dict[str, object]) -> str:
    """Markdown tables for a :func:`campaign_report` dict.

    One headline geomean table (a row per figure), then a per-benchmark
    table per figure — the shape EXPERIMENTS.md embeds.  Figures come
    in :data:`FIGURES` order, so a report read back from its
    ``sort_keys`` JSON renders the same as the one that wrote it.
    """
    figures = [(key, report["figures"][key]) for key, *_ in FIGURES]
    designs: List[str] = list(report["designs"])
    baseline = report["baseline"]
    header = "| " + " | ".join([""] + designs) + " |"
    rule = "|" + "---|" * (len(designs) + 1)

    lines: List[str] = []
    lines.append(
        f"Normalized to the `{baseline}` baseline; geomean across "
        f"{len(report['benchmarks'])} benchmark(s)."
    )
    lines.append("")
    lines.append("| Figure | Direction | " + " | ".join(designs) + " |")
    lines.append("|" + "---|" * (len(designs) + 2))
    for key, figure in figures:
        arrow = "better <1" if figure["direction"] == "lower" else "better >1"
        cells = " | ".join(_cell(figure["geomean"].get(d)) for d in designs)
        lines.append(f"| {figure['title']} ({key}) | {arrow} | {cells} |")
    for key, figure in figures:
        lines.append("")
        lines.append(f"### {figure['title']} ({key}, normalized to `{baseline}`)")
        lines.append("")
        lines.append(header)
        lines.append(rule)
        for benchmark in report["benchmarks"]:
            row = figure["per_benchmark"].get(benchmark)
            if row is None:
                continue
            cells = " | ".join(_cell(row.get(d)) for d in designs)
            lines.append(f"| {benchmark} | {cells} |")
        cells = " | ".join(_cell(figure["geomean"].get(d)) for d in designs)
        lines.append(f"| **geomean** | {cells} |")
    lines.append("")
    return "\n".join(lines)
