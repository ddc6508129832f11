"""Tests for the sensor-fault model (telemetry corruption campaigns)."""

import pickle
import random

import pytest

from repro.core.state import RouterObservation
from repro.faults import SensorFaultModel, parse_sensor_spec


def make_obs(router_id=0, temp=60.0):
    return RouterObservation(
        router_id=router_id,
        occupied_vcs=[1, 0, 2, 0, 1],
        input_utilization=[0.1, 0.0, 0.2, 0.05, 0.0],
        output_utilization=[0.0, 0.1, 0.0, 0.15, 0.0],
        input_nack_rate=[0.01, 0.0, 0.0, 0.02, 0.0],
        output_nack_rate=[0.0, 0.0, 0.03, 0.0, 0.0],
        temperature=temp,
    )


class TestGrammar:
    def test_round_trip_is_canonical(self):
        spec = "stale@r7+400:8; drop@0.2:util ;noise@0.05:nack;stuck@r3.temp=0.9"
        canonical = [
            "stuck@r3.temp=0.9", "drop@0.2:util", "noise@0.05:nack", "stale@r7+400:8",
        ]
        for text in (spec, ";".join(canonical)):
            assert [rule.format() for rule in parse_sensor_spec(text)] == canonical

    def test_empty_spec_is_healthy(self):
        assert parse_sensor_spec("") == []
        assert parse_sensor_spec(" ; ;") == []

    def test_rules_sorted_kind_then_router(self):
        rules = parse_sensor_spec("stuck@r5.buf=2;stuck@r1.temp=0.5;drop@0.1:all")
        assert [r.format() for r in rules] == [
            "stuck@r1.temp=0.5", "stuck@r5.buf=2", "drop@0.1:all",
        ]

    @pytest.mark.parametrize("clause", [
        "wobble@r1.temp=3",      # unknown kind
        "drop@1.5:util",         # probability out of range
        "drop@0:util",           # zero probability
        "noise@-0.1:nack",       # non-positive sigma
        "noise@0.1:buf",         # noise on integer VC counts is ill-typed
        "stuck@r2.all=1",        # stuck targets one concrete field
        "stuck@3.temp=1",        # router must be written r<id>
        "stale@r2+100:0",        # zero-epoch staleness
        "stale@r2+-5:3",         # negative onset
        "drop@x:util",           # unparseable number
        "stuck@r1.temp",         # missing value
    ])
    def test_bad_clause_named_in_error(self, clause):
        with pytest.raises(ValueError, match="bad sensor clause"):
            parse_sensor_spec(f"drop@0.5:util;{clause}")


class TestModel:
    def test_targeted_rule_must_fit_mesh(self):
        rules = parse_sensor_spec("stuck@r9.temp=0.5")
        with pytest.raises(ValueError, match="only 9 routers"):
            SensorFaultModel(rules, num_routers=9)
        SensorFaultModel(rules, num_routers=10)  # r9 exists in a 10-router mesh

    def test_stuck_wedges_the_sensor(self):
        model = SensorFaultModel(parse_sensor_spec("stuck@r0.temp=88"), 4)
        obs = make_obs(0)
        events = model.corrupt(obs, now=1000)
        assert obs.temperature == 88.0
        assert ("stuck", "temp") in events
        other = make_obs(1)
        assert model.corrupt(other, now=1000) == []
        assert other.temperature == 60.0

    def test_stuck_overrides_noise(self):
        spec = "noise@5.0:temp;stuck@r0.temp=70"
        model = SensorFaultModel(parse_sensor_spec(spec), 2, seed=3)
        obs = make_obs(0)
        model.corrupt(obs, now=0)
        assert obs.temperature == 70.0  # wedged sensors do not jitter

    def test_drop_removes_the_reading(self):
        model = SensorFaultModel(parse_sensor_spec("drop@1.0:util"), 2)
        obs = make_obs(0)
        events = model.corrupt(obs, now=0)
        assert obs.input_utilization is None
        assert obs.output_utilization is None
        assert obs.occupied_vcs is not None  # other fields untouched
        assert events == [("drop", "util")]

    def test_noise_perturbs_every_element(self):
        model = SensorFaultModel(parse_sensor_spec("noise@0.5:nack"), 2, seed=1)
        obs = make_obs(0)
        before = list(obs.input_nack_rate)
        model.corrupt(obs, now=0)
        assert obs.input_nack_rate != before
        assert len(obs.input_nack_rate) == 5

    def test_stale_replays_last_reported_reading(self):
        model = SensorFaultModel(parse_sensor_spec("stale@r0+500:2"), 2)
        first = make_obs(0, temp=55.0)
        model.corrupt(first, now=250)  # before onset: untouched, snapshotted
        assert first.temperature == 55.0
        frozen = make_obs(0, temp=90.0)
        model.corrupt(frozen, now=500)
        assert frozen.temperature == 55.0  # replays the pre-onset reading
        again = make_obs(0, temp=95.0)
        model.corrupt(again, now=750)
        assert again.temperature == 55.0  # second held epoch
        fresh = make_obs(0, temp=99.0)
        model.corrupt(fresh, now=1000)
        assert fresh.temperature == 99.0  # window exhausted

    def test_injected_tallies(self):
        model = SensorFaultModel(parse_sensor_spec("drop@1.0:temp;stuck@r0.buf=3"), 2)
        assert model.corrupt(make_obs(0), now=0) == [("drop", "temp"), ("stuck", "buf")]
        assert model.corrupt(make_obs(1), now=0) == [("drop", "temp")]


class TestDeterminism:
    SPEC = "drop@0.3:util;noise@0.1:nack;stuck@r1.temp=0.9;stale@r0+750:3"

    def _stream(self, model, epochs=8, routers=4):
        out = []
        for e in range(epochs):
            for r in range(routers):
                obs = make_obs(r, temp=50.0 + e + r)
                events = model.corrupt(obs, now=e * 250)
                out.append((events, obs.temperature, obs.input_utilization,
                            obs.input_nack_rate))
        return out

    def test_same_seed_same_stream(self):
        rules = parse_sensor_spec(self.SPEC)
        a = SensorFaultModel(rules, 4, seed=11)
        b = SensorFaultModel(rules, 4, seed=11)
        assert self._stream(a) == self._stream(b)

    def test_different_seed_diverges(self):
        rules = parse_sensor_spec(self.SPEC)
        a = SensorFaultModel(rules, 4, seed=11)
        b = SensorFaultModel(rules, 4, seed=12)
        assert self._stream(a) != self._stream(b)

    def test_pickle_mid_campaign_resumes_identically(self):
        rules = parse_sensor_spec(self.SPEC)
        model = SensorFaultModel(rules, 4, seed=5)
        self._stream(model, epochs=3)
        clone = pickle.loads(pickle.dumps(model))
        assert self._stream(model, epochs=5) == self._stream(clone, epochs=5)

    def test_fixed_rng_draws_regardless_of_activation(self):
        # A drop rule draws exactly one uniform per corrupt() call whether
        # or not it fires, so downstream draws stay aligned.
        rules = parse_sensor_spec("drop@0.5:temp")
        model = SensorFaultModel(rules, 2, seed=9)
        for r in range(2):
            model.corrupt(make_obs(r), now=0)
        reference = random.Random(9)
        reference.random()
        reference.random()
        assert model.rng.getstate() == reference.getstate()
