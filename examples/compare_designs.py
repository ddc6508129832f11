#!/usr/bin/env python3
"""Compare the four fault-tolerant designs on one workload.

Reproduces one column of the paper's Figs 6-10 at example scale: static
CRC, static ARQ+ECC, the decision-tree predictor, and the proposed RL
policy all carry the *same* canneal-like trace, and the script prints
every figure's metric normalized to the CRC baseline.

This is a one-benchmark paper-figure campaign
(:func:`repro.sim.run_campaign`): each learning design pre-trains once
into a cached artifact, and every design's cell runs through the sweep
runner, so ``--jobs 4`` runs the four cells in parallel and a re-run
replays them from the cache.

Run from the repository root with an optional benchmark name (default
canneal) and ``--jobs N`` / ``--cache-dir DIR`` / ``--no-cache``.
"""

import argparse

from repro.sim import (
    DESIGN_ORDER,
    CampaignSpec,
    campaign_report,
    run_campaign,
    scaled_config,
    stderr_progress,
)
from repro.sim.sweep import DEFAULT_CACHE_DIR
from repro.traffic import PARSEC_PROFILES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark", nargs="?", default="canneal")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument(
        "--no-cache", action="store_true",
        help="re-simulate every cell (artifacts are still reused)",
    )
    args = parser.parse_args()
    benchmark = args.benchmark
    if benchmark not in PARSEC_PROFILES:
        raise SystemExit(
            f"unknown benchmark {benchmark!r}; pick one of "
            f"{', '.join(sorted(PARSEC_PROFILES))}"
        )

    config = scaled_config(
        width=4,
        height=4,
        epoch_cycles=250,
        pretrain_cycles=40_000,
        warmup_cycles=2_000,
    )
    print(f"benchmark {benchmark}, 4x4 mesh")
    print("running 4 designs (learning designs pre-train once) ...\n")
    result = run_campaign(
        CampaignSpec(config, (benchmark,), seed=7, trace_cycles=3_000),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=stderr_progress,
    )
    if not result.succeeded:
        raise SystemExit(
            "quarantined cell(s): " + ", ".join(result.report.quarantined)
        )
    results = result.suite[benchmark]
    report = campaign_report(result.suite)

    header = f"{'metric':24s}" + "".join(f"{d:>10s}" for d in DESIGN_ORDER)
    print(header + "   (normalized to CRC)")
    print("-" * len(header))
    for figure in report["figures"].values():
        row = figure["per_benchmark"][benchmark]
        cells = "".join(
            f"{row[d]:>10.2f}" if row[d] is not None else f"{'n/a':>10s}"
            for d in DESIGN_ORDER
        )
        print(f"{figure['title']:24s}{cells}   ({figure['direction']} is better)")

    print("\nabsolute numbers:")
    for design in DESIGN_ORDER:
        r = results[design]
        print(
            f"  {design:8s} lat={r.mean_latency:7.1f}cyc "
            f"retx={r.retransmission_events:5d} "
            f"eff={r.energy_efficiency:8.0f}flits/uJ "
            f"dynP={r.dynamic_power_watts*1e3:6.1f}mW "
            f"T={r.mean_temperature:.0f}C"
        )


if __name__ == "__main__":
    main()
