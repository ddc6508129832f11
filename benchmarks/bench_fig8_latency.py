"""Fig. 8 — average end-to-end packet latency, normalized to CRC.

Paper (Section VI-A): ARQ+ECC reduces average E2E latency by 30 % over
CRC (normalized ~ 0.70); the proposed RL design by 55 % (~ 0.45), which
is also 10 % below the DT baseline (~ 0.50).
"""

from conftest import figure_rows, print_figure, print_series


def test_fig8_latency(suite_results, benchmark):
    rows, averages = benchmark.pedantic(
        figure_rows, args=(suite_results, "fig8"), rounds=1, iterations=1
    )
    print_figure(
        "Fig. 8: average end-to-end latency (normalized to CRC)",
        ["design", "paper", "measured"],
        rows,
    )
    # The CRC baseline is the slowest design under faults.
    for design in ("arq_ecc", "dt", "rl"):
        assert averages[design] < 1.0
    # And the reduction is substantial (paper: 55 % for RL; require >= 30 %).
    assert averages["rl"] < 0.70


def test_fig8_per_benchmark_series(figures):
    print("\nFig. 8 per-benchmark series (normalized to CRC):")
    print_series("fig8", figures)
    for bench, ratios in figures["fig8"]["per_benchmark"].items():
        # No benchmark may invert the headline: RL never slower than CRC.
        assert ratios["rl"] < 1.20, bench
