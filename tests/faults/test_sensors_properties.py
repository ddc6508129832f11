"""Property test: the partitioned sensor-fault model against a reference.

``ReferenceModel.corrupt`` keeps the four scans of the sorted rule list
and the every-router snapshot that :meth:`SensorFaultModel.corrupt`
replaced with per-kind rule lists and stale-router snapshots.  Over
random rule sets and observation streams both must corrupt identically
and consume the RNG stream identically.
"""

import copy

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.state import NUM_PORTS, RouterObservation  # noqa: E402
from repro.faults.sensors import (  # noqa: E402
    _FIELD_ATTRS,
    SensorFaultModel,
    SensorFaultRule,
    _restore,
    _snapshot,
)

FIELDS = (
    "occupied_vcs",
    "input_utilization",
    "output_utilization",
    "input_nack_rate",
    "output_nack_rate",
    "temperature",
)
ROUTERS = 3
EPOCH = 50


class ReferenceModel(SensorFaultModel):
    """The rule-list scans of the sensor model, kept as the reference."""

    def corrupt(self, obs, now):
        rng = self.rng
        events = []
        router = obs.router_id
        for rule in self.rules:
            if rule.kind != "noise":
                continue
            for attr in _FIELD_ATTRS[rule.field]:
                current = getattr(obs, attr)
                if attr == "temperature":
                    setattr(obs, attr, current + rng.gauss(0.0, rule.sigma))
                else:
                    setattr(
                        obs, attr,
                        [el + rng.gauss(0.0, rule.sigma) for el in current],
                    )
            events.append(("noise", rule.field))
        for rule in self.rules:
            if rule.kind != "drop":
                continue
            if rng.random() < rule.probability:
                for attr in _FIELD_ATTRS[rule.field]:
                    setattr(obs, attr, None)
                events.append(("drop", rule.field))
        for rule in self.rules:
            if rule.kind != "stuck" or rule.router != router:
                continue
            for attr in _FIELD_ATTRS[rule.field]:
                if attr == "temperature":
                    obs.temperature = float(rule.value)
                elif attr == "occupied_vcs":
                    obs.occupied_vcs = [int(rule.value)] * len(obs.occupied_vcs or [0] * 5)
                else:
                    current = getattr(obs, attr)
                    setattr(
                        obs, attr,
                        [float(rule.value)] * len(current or [0.0] * 5),
                    )
            events.append(("stuck", rule.field))
        for index, rule in enumerate(self.rules):
            if rule.kind != "stale" or rule.router != router or now < rule.cycle:
                continue
            state = self._stale.get(index)
            if state is None:
                state = {
                    "held": self._prev.get(router) or _snapshot(obs),
                    "remaining": rule.epochs,
                }
                self._stale[index] = state
            if state["remaining"] <= 0:
                continue
            _restore(obs, state["held"])
            state["remaining"] -= 1
            events.append(("stale", "all"))
        self._prev[router] = _snapshot(obs)
        return events


router = st.integers(min_value=0, max_value=ROUTERS - 1)
rule = st.one_of(
    st.builds(
        SensorFaultRule, st.just("noise"),
        field=st.sampled_from(("util", "nack", "temp", "all")),
        sigma=st.floats(min_value=0.01, max_value=2.0),
    ),
    st.builds(
        SensorFaultRule, st.just("drop"),
        field=st.sampled_from(("buf", "util", "nack", "temp", "all")),
        probability=st.floats(min_value=0.05, max_value=1.0),
    ),
    st.builds(
        SensorFaultRule, st.just("stuck"), router=router,
        field=st.sampled_from(("buf", "util", "nack", "temp")),
        value=st.floats(min_value=-1.0, max_value=100.0),
    ),
    # Onsets from before the first epoch to past the last one.
    st.builds(
        SensorFaultRule, st.just("stale"), router=router,
        cycle=st.integers(min_value=0, max_value=8 * EPOCH),
        epochs=st.integers(min_value=1, max_value=4),
    ),
)
reading = st.tuples(
    st.lists(st.integers(0, 4), min_size=NUM_PORTS, max_size=NUM_PORTS),
    *[st.lists(st.floats(0.0, 1.0), min_size=NUM_PORTS, max_size=NUM_PORTS)] * 4,
    st.floats(min_value=40.0, max_value=110.0),
)


def observation(router_id, values):
    return RouterObservation(router_id, *copy.deepcopy(values))


@settings(max_examples=100, deadline=None)
@given(
    rules=st.lists(rule, max_size=6),
    stale_router=router,
    readings=st.lists(st.lists(reading, min_size=ROUTERS, max_size=ROUTERS),
                      min_size=1, max_size=8),
    offset=st.integers(min_value=0, max_value=EPOCH - 1),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_model_matches_the_rule_scan_reference(rules, stale_router, readings, offset, seed):
    # Two stale rules on one router, the first active from the start.
    rules = rules + [
        SensorFaultRule("stale", router=stale_router, cycle=0, epochs=2),
        SensorFaultRule("stale", router=stale_router, cycle=2 * EPOCH, epochs=3),
    ]
    model = SensorFaultModel(rules, ROUTERS, seed=seed)
    reference = ReferenceModel(rules, ROUTERS, seed=seed)
    for epoch, values in enumerate(readings):
        now = epoch * EPOCH + offset
        for router_id in range(ROUTERS):
            obs = observation(router_id, values[router_id])
            expected = observation(router_id, values[router_id])
            events = model.corrupt(obs, now)
            assert events == reference.corrupt(expected, now)
            assert [repr(getattr(obs, f)) for f in FIELDS] == [
                repr(getattr(expected, f)) for f in FIELDS
            ]
    assert model.rng.getstate() == reference.rng.getstate()
    assert model._stale == reference._stale
