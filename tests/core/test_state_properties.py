"""Property tests for the discretization bins (hypothesis).

The observation guard only clamps what it can *see* is out of range; the
last line of defense is that every bin function is total over the whole
float line (NaN and infinities included), monotonic, and stable at its
boundaries — so no telemetry value, however corrupted, can crash the
Q-table key computation or map out of the bin range.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.state import (  # noqa: E402
    NUM_PORTS,
    DiscretizationConfig,
    RouterObservation,
    discretize_observation,
)

CFG = DiscretizationConfig()

any_float = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)


class TestTotality:
    """Every bin accepts every float and lands inside its range."""

    @given(any_float)
    def test_utilization_bin_total(self, value):
        assert 0 <= CFG.utilization_bin(value) < CFG.utilization_bins

    @given(any_float)
    def test_buffer_bin_total(self, value):
        assert 0 <= CFG.buffer_bin(value) < CFG.utilization_bins

    @given(any_float)
    def test_nack_bin_total(self, value):
        assert 0 <= CFG.nack_bin(value) <= len(CFG.nack_thresholds)

    @given(any_float)
    def test_temperature_bin_total(self, value):
        assert 0 <= CFG.temperature_bin(value) < CFG.temperature_bins

    def test_nan_reads_as_no_signal_or_saturates(self):
        nan = float("nan")
        assert CFG.utilization_bin(nan) == 0
        assert CFG.buffer_bin(nan) == 0
        assert CFG.temperature_bin(nan) == 0
        # NaN compares False against every threshold, so it falls through
        # to the top NACK bin — conservative (reads as "high error").
        assert CFG.nack_bin(nan) == len(CFG.nack_thresholds)

    def test_infinities_saturate(self):
        assert CFG.utilization_bin(math.inf) == CFG.utilization_bins - 1
        assert CFG.buffer_bin(math.inf) == CFG.utilization_bins - 1
        assert CFG.nack_bin(math.inf) == len(CFG.nack_thresholds)
        assert CFG.temperature_bin(math.inf) == CFG.temperature_bins - 1
        for bin_fn in (CFG.utilization_bin, CFG.buffer_bin,
                       CFG.nack_bin, CFG.temperature_bin):
            assert bin_fn(-math.inf) == 0


class TestMonotonicity:
    @given(finite, finite)
    def test_utilization_bin_monotonic(self, a, b):
        lo, hi = sorted((a, b))
        assert CFG.utilization_bin(lo) <= CFG.utilization_bin(hi)

    @given(finite, finite)
    def test_buffer_bin_monotonic(self, a, b):
        lo, hi = sorted((a, b))
        assert CFG.buffer_bin(lo) <= CFG.buffer_bin(hi)

    @given(finite, finite)
    def test_nack_bin_monotonic(self, a, b):
        lo, hi = sorted((a, b))
        assert CFG.nack_bin(lo) <= CFG.nack_bin(hi)

    @given(finite, finite)
    def test_temperature_bin_monotonic(self, a, b):
        lo, hi = sorted((a, b))
        assert CFG.temperature_bin(lo) <= CFG.temperature_bin(hi)


class TestBoundaries:
    """Exact boundary values map stably (no off-by-one drift)."""

    def test_utilization_boundaries(self):
        assert CFG.utilization_bin(0.0) == 0
        assert CFG.utilization_bin(CFG.max_link_utilization) == CFG.utilization_bins - 1
        # Just below a fifth of the max stays in bin 0; at it, bin 1.
        step = CFG.max_link_utilization / CFG.utilization_bins
        assert CFG.utilization_bin(step * 0.999) == 0
        assert CFG.utilization_bin(step) == 1

    @given(any_float)
    def test_nack_bin_matches_the_threshold_scan(self, value):
        # The scan nack_bin's bisection replaced: first threshold above.
        expected = next(
            (i for i, t in enumerate(CFG.nack_thresholds) if value < t),
            len(CFG.nack_thresholds),
        )
        assert CFG.nack_bin(value) == expected

    def test_nack_thresholds_are_half_open(self):
        for i, threshold in enumerate(CFG.nack_thresholds):
            assert CFG.nack_bin(threshold * 0.999) == i
            assert CFG.nack_bin(threshold) == i + 1
        assert CFG.nack_bin(0.0) == 0
        assert CFG.nack_bin(1.0) == len(CFG.nack_thresholds)

    def test_temperature_boundaries(self):
        lo, hi = CFG.temperature_range
        assert CFG.temperature_bin(lo) == 0
        assert CFG.temperature_bin(hi) == CFG.temperature_bins - 1

    def test_buffer_boundaries(self):
        assert CFG.buffer_bin(0) == 0
        assert CFG.buffer_bin(CFG.num_vcs) == CFG.utilization_bins - 1


class TestDiscretizeObservation:
    @given(
        st.lists(any_float, min_size=NUM_PORTS, max_size=NUM_PORTS),
        st.lists(any_float, min_size=NUM_PORTS, max_size=NUM_PORTS),
        st.lists(any_float, min_size=NUM_PORTS, max_size=NUM_PORTS),
        st.lists(any_float, min_size=NUM_PORTS, max_size=NUM_PORTS),
        st.lists(any_float, min_size=NUM_PORTS, max_size=NUM_PORTS),
        any_float,
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_total_over_arbitrary_telemetry(
        self, vcs, in_util, out_util, in_nack, out_nack, temp, compact
    ):
        """Whatever floats the sensors report, discretization returns a
        tuple of in-range ints — it never raises."""
        obs = RouterObservation(
            router_id=0,
            occupied_vcs=vcs,
            input_utilization=in_util,
            output_utilization=out_util,
            input_nack_rate=in_nack,
            output_nack_rate=out_nack,
            temperature=temp,
        )
        key = discretize_observation(obs, CFG, compact=compact, mode=2)
        assert isinstance(key, tuple)
        assert all(isinstance(b, int) for b in key)
        expected_len = 7 if compact else 5 * NUM_PORTS + 2
        assert len(key) == expected_len
        assert key[-1] == 2  # appended mode
