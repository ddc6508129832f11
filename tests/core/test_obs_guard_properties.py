"""Property test: the one-pass observation guard against a reference.

``ReferenceGuard`` keeps the element-by-element validation and clamping
loops that :meth:`ObservationGuard.inspect` replaced with C-level
builtins.  Over random multi-epoch sequences of corrupted readings both
guards must repair every observation identically and end in the same
state.
"""

import copy
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.controller import GuardReport, ObservationGuard  # noqa: E402
from repro.core.state import (  # noqa: E402
    NUM_PORTS,
    DiscretizationConfig,
    RouterObservation,
)

FIELDS = (
    "occupied_vcs",
    "input_utilization",
    "output_utilization",
    "input_nack_rate",
    "output_nack_rate",
    "temperature",
)


class ReferenceGuard(ObservationGuard):
    """The per-element guard loops, kept as the reference."""

    _FIELDS = (
        ("occupied_vcs", "buf"),
        ("input_utilization", "util"),
        ("output_utilization", "util"),
        ("input_nack_rate", "nack"),
        ("output_nack_rate", "nack"),
        ("temperature", "temp"),
    )

    @staticmethod
    def _valid_list(value):
        if not isinstance(value, list) or len(value) != NUM_PORTS:
            return False
        try:
            return all(math.isfinite(el) for el in value)
        except TypeError:
            return False

    @staticmethod
    def _valid_scalar(value):
        return isinstance(value, (int, float)) and math.isfinite(value)

    def _clamp(self, kind, value):
        if kind == "temp":
            clamped = min(max(value, 0.0), self.MAX_TEMPERATURE)
            return clamped, int(clamped != value)
        if kind == "buf":
            lo, hi = 0, self.state_config.num_vcs
        elif kind == "nack":
            lo, hi = 0.0, 1.0
        else:
            lo, hi = 0.0, None
        out = None
        hits = 0
        for i, el in enumerate(value):
            fixed = lo if el < lo else (hi if (hi is not None and el > hi) else el)
            if fixed != el:
                if out is None:
                    out = list(value)
                out[i] = fixed
                hits += 1
        return (out if out is not None else value), hits

    def inspect(self, router_id, obs, epoch_index):
        report = GuardReport()
        last_good = self._last_good[router_id]
        for attr, kind in self._FIELDS:
            value = getattr(obs, attr)
            valid = self._valid_scalar(value) if kind == "temp" else self._valid_list(value)
            if not valid:
                report.rejected = True
                held = last_good.get(attr)
                if held is not None and epoch_index - held[0] <= self.hold_ttl:
                    replacement = held[1]
                    report.holds += 1
                else:
                    replacement = self._default_for(kind)
                    report.defaults += 1
                setattr(
                    obs, attr,
                    list(replacement) if isinstance(replacement, list) else replacement,
                )
                continue
            clamped, hits = self._clamp(kind, value)
            if hits:
                report.clamps += hits
                setattr(obs, attr, clamped)
            last_good[attr] = (
                epoch_index,
                list(clamped) if isinstance(clamped, list) else clamped,
            )
        if report.rejected:
            self._streak[router_id] += 1
            report.streak = self._streak[router_id]
        else:
            self._streak[router_id] = 0
        return report


element = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-2.0, max_value=8.0),  # negative and above range
    st.integers(min_value=-3, max_value=9),
    st.booleans(),
    st.none(),
)
list_field = st.one_of(
    st.lists(st.floats(min_value=0.0, max_value=0.9), min_size=NUM_PORTS, max_size=NUM_PORTS),
    st.lists(element, min_size=NUM_PORTS, max_size=NUM_PORTS),
    st.lists(element, max_size=NUM_PORTS + 2),  # wrong length, mostly
    element,  # not a list
    st.tuples(*[st.floats(min_value=0.0, max_value=0.5)] * NUM_PORTS),
)
temperature = st.one_of(
    st.floats(min_value=20.0, max_value=120.0),
    element,
    st.floats(min_value=250.0, max_value=1e6),
    st.lists(st.floats(), max_size=2),
)
step = st.tuples(
    st.integers(min_value=0, max_value=2),  # router
    st.integers(min_value=0, max_value=3),  # epochs since the previous step
    st.tuples(*[list_field] * 5, temperature),
)


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(step, min_size=1, max_size=14),
    hold_ttl=st.integers(min_value=1, max_value=3),
)
def test_guard_matches_the_per_element_reference(steps, hold_ttl):
    kwargs = dict(
        num_routers=3,
        state_config=DiscretizationConfig(),
        hold_ttl=hold_ttl,
    )
    guard = ObservationGuard(**kwargs)
    reference = ReferenceGuard(**kwargs)
    epoch = 0
    for router, gap, values in steps:
        epoch += gap
        obs = RouterObservation(router, *copy.deepcopy(values), discrete=("unset",))
        expected = copy.deepcopy(obs)
        report = guard.inspect(router, obs, epoch)
        wanted = reference.inspect(router, expected, epoch)
        # repr() tells 0, 0.0 and False apart.
        assert [repr(getattr(obs, f)) for f in FIELDS] == [
            repr(getattr(expected, f)) for f in FIELDS
        ]
        assert obs.discrete == expected.discrete == ("unset",)  # the stage re-bins
        assert (report.holds, report.clamps, report.defaults, report.rejected,
                report.streak) == (
            wanted.holds, wanted.clamps, wanted.defaults, wanted.rejected,
            wanted.streak,
        )
        assert repr(guard._last_good) == repr(reference._last_good)
        assert guard._streak == reference._streak
