"""Unit tests for the SEU model: grammar, determinism, one-shot rules.

The determinism contract under test is the same one the sensor model
carries: one master-RNG token per rule per epoch *unconditionally*, all
variable-count sampling on throwaway sub-RNGs, so the upset stream is a
pure function of (spec, seed, epoch sequence) and pickles mid-campaign.
"""

import copy
import pickle
import random

import pytest

from repro.core.modes import TmrModeBank
from repro.core.qlearning import QLearningAgent, QTableStorage
from repro.faults.softerrors import (
    SoftErrorModel,
    _poisson,
    parse_soft_error_spec,
)


def _storage(num_rows=6, num_actions=4, ecc=True, seed=0):
    """A small bound storage with deterministic contents."""
    agent = QLearningAgent(num_actions=num_actions, rng=random.Random(seed))
    storage = QTableStorage(ecc=ecc)
    agent.attach_storage(storage)
    rng = random.Random(seed)
    for row in range(num_rows):
        for action in range(num_actions):
            agent.update((row,), action, rng.uniform(-2, 2), (row,))
    return storage


class TestGrammar:
    def test_round_trip_canonical_order(self):
        canonical = ["qtable@1e-06", "mode@r3+500", "burst@800:4"]
        for spec in ("burst@800:4;qtable@1e-6;mode@r3+500", ";".join(canonical)):
            assert [rule.format() for rule in parse_soft_error_spec(spec)] == canonical

    def test_empty_spec(self):
        assert parse_soft_error_spec("") == []

    @pytest.mark.parametrize(
        "bad",
        [
            "qtable@0",        # rate must be > 0
            "qtable@1.5",      # rate must be <= 1
            "mode@3+500",      # router must be r<N>
            "mode@r3+x",       # cycle must be an int
            "burst@800:0",     # count must be positive
            "burst@800",       # missing count
            "flux@1",          # unknown kind
        ],
    )
    def test_malformed_clauses(self, bad):
        with pytest.raises(ValueError, match="bad soft-error clause"):
            parse_soft_error_spec(bad)


class TestPoisson:
    def test_zero_mean(self):
        assert _poisson(random.Random(0), 0.0) == 0

    def test_small_mean_is_deterministic(self):
        assert _poisson(random.Random(7), 2.0) == _poisson(random.Random(7), 2.0)

    def test_large_mean_gaussian_branch(self):
        value = _poisson(random.Random(1), 100.0)
        assert 50 <= value <= 150


class TestModelValidation:
    def test_mode_rule_router_bounds(self):
        rules = parse_soft_error_spec("mode@r9+0")
        with pytest.raises(ValueError, match="only 9 routers"):
            SoftErrorModel(rules, num_routers=9)

    def test_needs_routers(self):
        with pytest.raises(ValueError, match="at least one router"):
            SoftErrorModel([], num_routers=0)


class TestDeterminism:
    SPEC = "qtable@1e-4;mode@r2+500;burst@900:3"

    def _run(self, model, storages, epochs=6, epoch_cycles=250):
        mode_flips = []
        out = []
        for e in range(1, epochs + 1):
            out.append(
                model.inject(
                    e * epoch_cycles, storages,
                    flip_mode=lambda r, b, c: mode_flips.append((r, b, c)),
                )
            )
        return out, mode_flips

    def test_same_seed_same_stream(self):
        rules = parse_soft_error_spec(self.SPEC)
        s1, s2 = _storage(), _storage()
        m1 = SoftErrorModel(rules, num_routers=9, seed=11)
        m2 = SoftErrorModel(rules, num_routers=9, seed=11)
        out1, flips1 = self._run(m1, [s1])
        out2, flips2 = self._run(m2, [s2])
        assert out1 == out2  # each epoch's returned tallies
        assert flips1 == flips2
        assert s1.to_state() == s2.to_state()

    def test_one_shot_rules_fire_exactly_once(self):
        rules = parse_soft_error_spec("mode@r2+500;burst@900:3")
        storage = _storage()
        model = SoftErrorModel(rules, num_routers=9, seed=3)
        out, flips = self._run(model, [storage], epochs=8)
        assert sum(o["mode"] for o in out) == 1
        assert sum(o["burst"] for o in out) == 3
        assert len(flips) == 1
        router, bit, copy_id = flips[0]
        assert router == 2
        assert 0 <= bit < TmrModeBank.REGISTER_BITS
        assert 0 <= copy_id < TmrModeBank.COPIES
        # The mode rule became due at cycle 500 (epoch 2 at 250 c/epoch).
        assert out[0]["mode"] == 0 and out[1]["mode"] == 1

    def test_token_draw_is_unconditional(self):
        """A campaign whose one-shots all fired must keep consuming one
        token per rule per epoch: the qtable flips after the one-shots
        expire must match a fresh model fast-forwarded the same way."""
        rules = parse_soft_error_spec(self.SPEC)
        m1 = SoftErrorModel(rules, num_routers=9, seed=5)
        m2 = SoftErrorModel(rules, num_routers=9, seed=5)
        s1, s2 = _storage(), _storage()
        # m1 runs with storages all along; m2 runs the first 4 epochs
        # against *empty* storages (no bits to flip) — the stream of
        # master tokens must stay aligned regardless.
        empty_agent = QLearningAgent(num_actions=4)
        empty = QTableStorage()
        empty_agent.attach_storage(empty)
        for e in range(1, 5):
            m1.inject(e * 250, [s1])
            m2.inject(e * 250, [empty])
        r1 = m1.inject(5 * 250, [s1])
        r2 = m2.inject(5 * 250, [s1])
        assert r1["qtable"] == r2["qtable"]

    def test_pickle_mid_campaign_resumes_identically(self):
        rules = parse_soft_error_spec(self.SPEC)
        storage = _storage()
        model = SoftErrorModel(rules, num_routers=9, seed=7)
        for e in range(1, 4):
            model.inject(e * 250, [storage])
        clone_model = pickle.loads(pickle.dumps(model))
        clone_storage = copy.deepcopy(storage)
        for e in range(4, 8):
            a = model.inject(e * 250, [storage])
            b = clone_model.inject(e * 250, [clone_storage])
            assert a == b
        assert storage.to_state() == clone_storage.to_state()


class TestWordClassification:
    def test_burst_hits_classified_single_vs_multi(self):
        storage = _storage(num_rows=1, num_actions=1)  # one 39-bit word
        rules = parse_soft_error_spec("burst@0:5")
        model = SoftErrorModel(rules, num_routers=9, seed=0)
        stats = model.inject(250, [storage])
        assert stats["burst"] == 5
        # All five flips landed in the only word.
        assert stats["words_single"] == 0
        assert stats["words_multi"] == 1
