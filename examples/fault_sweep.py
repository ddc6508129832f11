#!/usr/bin/env python3
"""Sweep the timing-error level and watch each operation mode's trade-off.

Pins the whole mesh to each of the four operation modes in turn, sweeps a
flat per-transfer error probability across the channels (bypassing the
thermal loop), and prints latency / retransmissions / energy — the raw
trade-off surface (Section III) that the RL controller learns to navigate.

The 4 modes x 4 error levels grid runs through the sweep runner
(:mod:`repro.sim.sweep`), so points execute in parallel with ``--jobs``
and completed points are cached: re-running the example is instant.

Run:
    python examples/fault_sweep.py [--jobs N] [--no-cache]
"""

import argparse

from repro.core.modes import OperationMode
from repro.sim import SweepRunner, SweepSpec, scaled_config, stderr_progress
from repro.sim.sweep import DEFAULT_CACHE_DIR, MODE_DESIGNS

ERROR_LEVELS = (0.0, 0.01, 0.05, 0.15)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    spec = SweepSpec(
        config=scaled_config(width=4, height=4),
        kind="mode_error",
        designs=MODE_DESIGNS,
        traffics=("uniform",),
        error_probabilities=ERROR_LEVELS,
        seeds=(5,),
        cycles=250,  # packets injected per point
    )
    runner = SweepRunner(
        spec.expand(),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=stderr_progress,
    )
    results = runner.run()

    print("uniform random traffic, 4x4 mesh, whole mesh pinned per mode\n")
    print(f"{'p(error)':>9s} {'mode':>6s} {'latency':>9s} {'retx':>6s} "
          f"{'corrected':>10s} {'escaped':>8s} {'duplicates':>11s}")
    for i, error in enumerate(ERROR_LEVELS):
        for j, mode in enumerate(OperationMode):
            stats = results[i * len(OperationMode) + j].ledger
            print(
                f"{error:>9.2f} {int(mode):>6d} {stats['mean_latency']:>9.1f} "
                f"{stats['retransmission_events']:>6d} {stats['corrected_errors']:>10d} "
                f"{stats['escaped_errors']:>8d} {stats['duplicate_flits']:>11d}"
            )
        print()
    print("reading the table:")
    print("  - mode 0 is cheapest when clean but collapses as p grows;")
    print("  - mode 1 corrects singles, NACK-retransmits doubles per hop;")
    print("  - mode 2 trades duplicate bandwidth for fewer retransmissions;")
    print("  - mode 3 eliminates errors at a flat latency premium.")


if __name__ == "__main__":
    main()
