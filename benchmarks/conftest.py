"""Shared fixtures for the benchmark harness.

Every figure of the paper's evaluation (Figs 6-10) is computed from the
same experiment grid: the PARSEC-like suite run through all four designs.
The grid comes from :func:`repro.sim.run_campaign`, the runner behind
``repro campaign``, with its per-cell result cache and its pretrained
policy artifacts under ``benchmarks/results/sweep_cache/``.  Both are
keyed by content hashes (the full configuration, the cell, the
artifact's content and the sweep ``CACHE_SCHEMA``), so a changed knob
misses the cache instead of replaying stale numbers.  The first run on
a fresh checkout simulates the grid (about half a minute at the
defaults on a 2-vCPU machine); later runs replay it.  Per-figure
bench modules read the normalized tables from
:func:`repro.sim.campaign_report`, assert the paper's qualitative
shape, and print the paper-vs-measured rows.

Scaling knobs (environment variables):

``REPRO_BENCH_WIDTH`` / ``REPRO_BENCH_HEIGHT``
    Mesh size (default 4x4; the paper's 8x8 works but multiplies runtime).
``REPRO_BENCH_TRACE_CYCLES``
    Injection span of each benchmark trace (default 2500).
``REPRO_BENCH_PRETRAIN``
    Synthetic pre-training cycles (default 80000).
``REPRO_BENCH_BENCHMARKS``
    Comma-separated subset of PARSEC benchmark names (default: all ten).
``REPRO_BENCH_REFRESH=1``
    Ignore the caches: re-pretrain the artifacts and recompute the grid.
``REPRO_BENCH_JOBS``
    Worker processes for the grid cells (default: one per design, capped
    by the CPU count).  Every cell clones a fresh policy from its
    design's frozen artifact, so the job count changes no results.
"""

import os
from pathlib import Path

import pytest

from repro.sim import (
    DESIGN_ORDER,
    PAPER_AVERAGES,
    CampaignSpec,
    campaign_report,
    run_campaign,
    scaled_config,
    stderr_progress,
)
from repro.traffic import PARSEC_PROFILES

SWEEP_CACHE_DIR = Path(__file__).parent / "results" / "sweep_cache"


def bench_config():
    return scaled_config(
        width=int(os.environ.get("REPRO_BENCH_WIDTH", "4")),
        height=int(os.environ.get("REPRO_BENCH_HEIGHT", "4")),
        epoch_cycles=250,
        pretrain_cycles=int(os.environ.get("REPRO_BENCH_PRETRAIN", "80000")),
        warmup_cycles=2000,
    )


def bench_benchmarks():
    raw = os.environ.get("REPRO_BENCH_BENCHMARKS")
    if raw:
        names = [n.strip() for n in raw.split(",") if n.strip()]
        unknown = set(names) - set(PARSEC_PROFILES)
        if unknown:
            raise ValueError(f"unknown benchmarks: {sorted(unknown)}")
        return names
    return sorted(PARSEC_PROFILES)


@pytest.fixture(scope="session")
def suite_results():
    """The {benchmark: {design: RunResult}} grid, from the cached campaign."""
    refresh = os.environ.get("REPRO_BENCH_REFRESH") == "1"
    default_jobs = min(len(DESIGN_ORDER), os.cpu_count() or 1)
    result = run_campaign(
        CampaignSpec(
            bench_config(),
            tuple(bench_benchmarks()),
            seed=11,
            trace_cycles=int(os.environ.get("REPRO_BENCH_TRACE_CYCLES", "2500")),
        ),
        jobs=int(os.environ.get("REPRO_BENCH_JOBS", default_jobs)),
        cache_dir=SWEEP_CACHE_DIR,
        artifact_dir=SWEEP_CACHE_DIR / "artifacts",
        refresh=refresh,
        refresh_artifacts=refresh,
        progress=stderr_progress,
    )
    if not result.succeeded:
        pytest.fail(
            "campaign quarantined cell(s): " + ", ".join(result.report.quarantined),
            pytrace=False,
        )
    return result.suite


@pytest.fixture(scope="session")
def figures(suite_results):
    """The grid's normalized Figs 6-10 tables, keyed "fig6" .. "fig10"."""
    return campaign_report(suite_results)["figures"]


def figure_rows(suite, key):
    """One figure's [design, paper, measured] rows and measured geomeans."""
    geomean = campaign_report(suite)["figures"][key]["geomean"]
    rows = [[d, PAPER_AVERAGES[key][d], geomean[d]] for d in DESIGN_ORDER]
    return rows, geomean


def print_figure(title, header, rows):
    """Uniform figure rendering for the bench output."""
    print(f"\n=== {title} ===")
    print("  ".join(f"{h:>12s}" for h in header))
    for row in rows:
        print("  ".join(f"{v:>12}" if isinstance(v, str) else f"{v:>12.3f}" for v in row))


def print_series(key, figures):
    """One figure's per-benchmark ratios, a line per benchmark."""
    for bench, ratios in sorted(figures[key]["per_benchmark"].items()):
        series = "  ".join(f"{d}={ratios[d]:.2f}" for d in DESIGN_ORDER)
        print(f"  {bench:14s} {series}")
