"""Fig. 7 — execution-time speed-up, normalized to the CRC baseline.

Paper (Section VI-A): the proposed architecture averages a 1.25x speed-up
over the CRC baseline, with larger gains for higher-traffic applications.
"""

from conftest import figure_rows, print_figure


def test_fig7_speedup(suite_results, benchmark):
    rows, averages = benchmark.pedantic(
        figure_rows, args=(suite_results, "fig7"), rounds=1, iterations=1
    )
    print_figure(
        "Fig. 7: execution-time speed-up (normalized to CRC)",
        ["design", "paper", "measured"],
        rows,
    )
    assert averages["crc"] == 1.0
    # Every fault-tolerant design finishes the same work no slower.
    for design in ("arq_ecc", "dt", "rl"):
        assert averages[design] >= 1.0
    # And a real speed-up materializes for the proposed design.
    assert averages["rl"] > 1.02


def test_fig7_higher_traffic_higher_speedup(suite_results, figures):
    """The paper deduces the speed-up grows with traffic intensity —
    check the heaviest benchmark beats the lightest one."""
    by_load = sorted(suite_results, key=lambda b: suite_results[b]["crc"].flits_delivered)
    if len(by_load) < 2:
        return
    speedups = figures["fig7"]["per_benchmark"]
    light_speedup = speedups[by_load[0]]["rl"]
    heavy_speedup = speedups[by_load[-1]]["rl"]
    print(f"\nFig. 7 trend: lightest speedup {light_speedup:.3f}, heaviest {heavy_speedup:.3f}")
    assert heavy_speedup >= light_speedup * 0.95  # allow noise, forbid inversion
