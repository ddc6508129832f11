"""Fig. 9 — energy efficiency (flits/energy), normalized to CRC.

Paper (Section VI-A): the proposed framework improves energy efficiency
by an average of 64 % over the CRC baseline (normalized ~ 1.64) and by
15 % over the DT baseline.
"""

from conftest import figure_rows, print_figure


def test_fig9_energy_efficiency(suite_results, benchmark):
    rows, averages = benchmark.pedantic(
        figure_rows, args=(suite_results, "fig9"), rounds=1, iterations=1
    )
    print_figure(
        "Fig. 9: energy efficiency (normalized to CRC)",
        ["design", "paper", "measured"],
        rows,
    )
    # Under faults, avoiding retransmission energy beats the CRC design.
    assert averages["rl"] > 1.10
    assert averages["arq_ecc"] > 1.0
    # The proposed design is at least on par with the DT baseline
    # (paper: 15 % better).
    assert averages["rl"] > 0.95 * averages["dt"]


def test_fig9_hot_benchmarks_show_biggest_gain(suite_results, figures):
    """Energy efficiency gains should be largest where faults cost most
    (hot, high-traffic benchmarks)."""
    gains = {
        bench: ratios["rl"] for bench, ratios in figures["fig9"]["per_benchmark"].items()
    }
    temps = {
        bench: results["crc"].mean_temperature
        for bench, results in suite_results.items()
    }
    print("\nFig. 9 RL gain vs CRC by benchmark temperature:")
    for bench in sorted(gains, key=temps.get):
        print(f"  {bench:14s} T={temps[bench]:5.1f}C  gain={gains[bench]:.2f}")
    hottest = max(temps, key=temps.get)
    coolest = min(temps, key=temps.get)
    assert gains[hottest] >= gains[coolest]
