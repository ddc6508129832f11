"""Unit tests for the ECC Q-table backing store and the TMR mode bank.

The storage contract: the agent's float table is a decoded cache of the
fixed-point SRAM — writes quantize through it, flips corrupt it, and a
scrub pass corrects single-bit errors, quarantines double-bit rows, and
leaves the cache equal to the decoded words at all times.
"""

import itertools
import math
import random

import pytest

from repro.core.modes import TmrModeBank
from repro.core.qlearning import AgentStateError, QLearningAgent, QTableStorage


def _agent_with_storage(ecc=True, num_actions=4, rows=5, seed=0):
    agent = QLearningAgent(num_actions=num_actions, rng=random.Random(seed))
    storage = QTableStorage(ecc=ecc)
    agent.attach_storage(storage)
    rng = random.Random(seed + 1)
    for row in range(rows):
        for action in range(num_actions):
            agent.update((row,), action, rng.uniform(-3, 3), (row,))
    return agent, storage


def _cache_matches_words(agent, storage):
    for state, row in storage._words.items():
        for action, word in enumerate(row):
            assert agent._table[state][action] == storage._decode(word)


class TestQuantization:
    def test_quantize_is_fixed_point(self):
        step = 1.0 / (1 << QTableStorage.FRAC_BITS)
        assert QTableStorage.quantize(0.0) == 0.0
        assert QTableStorage.quantize(step / 3) == 0.0
        assert QTableStorage.quantize(1.2345) == pytest.approx(1.2345, abs=step)

    def test_quantize_clamps_nan_to_zero(self):
        assert QTableStorage.quantize(float("nan")) == 0.0

    @pytest.mark.parametrize("ecc", [True, False])
    def test_store_returns_the_quantized_value_and_rejects_nan(self, ecc):
        agent, storage = _agent_with_storage(ecc=ecc)
        state = next(iter(storage._words))
        for value in (1.2345, -7.5, 1e12, -1e12, 0.0):
            assert storage.store(state, 1, value) == QTableStorage.quantize(value)
            assert storage._decode(storage._words[state][1]) == QTableStorage.quantize(value)
        with pytest.raises(ValueError):
            storage.store(state, 1, float("nan"))

    def test_quantize_saturates(self):
        huge = 1e12
        top = QTableStorage._WORD_MAX / QTableStorage._SCALE
        assert QTableStorage.quantize(huge) == top
        assert QTableStorage.quantize(-huge) == QTableStorage._WORD_MIN / QTableStorage._SCALE

    def test_writes_are_write_through_quantized(self):
        agent, storage = _agent_with_storage()
        _cache_matches_words(agent, storage)
        for row in agent._table.values():
            for value in row:
                assert value == QTableStorage.quantize(value)


class TestFlipAndScrub:
    def test_single_flip_is_invisible_under_ecc_then_corrected(self):
        agent, storage = _agent_with_storage(ecc=True)
        before = {s: list(r) for s, r in agent._table.items()}
        key = storage.flip_bit(17)
        # ECC decode-on-read: the cache still shows the original value.
        assert agent._table == before
        stats = storage.scrub()
        assert stats == {"corrected": 1, "detected": 0, "quarantined_rows": 0}
        assert agent._table == before
        # The word itself was re-encoded clean: a second scrub is a no-op.
        assert storage.scrub() == {"corrected": 0, "detected": 0, "quarantined_rows": 0}
        assert key in storage._words or key[0] in storage._words

    def test_double_flip_quarantines_row_to_q_init(self):
        agent, storage = _agent_with_storage(ecc=True)
        # Two distinct bits of the same word.
        storage.flip_bit(3)
        storage.flip_bit(11)
        stats = storage.scrub()
        assert stats == {"corrected": 0, "detected": 1, "quarantined_rows": 1}
        state = storage._row_order[0]
        q_init = QTableStorage.quantize(agent.q_init)
        assert agent._table[state] == [q_init] * agent.num_actions
        _cache_matches_words(agent, storage)

    def test_no_ecc_corruption_reaches_cache_and_scrub_is_blind(self):
        agent, storage = _agent_with_storage(ecc=False)
        before = {s: list(r) for s, r in agent._table.items()}
        # Flip the sign bit of the first word: a large value change.
        storage.flip_bit(QTableStorage.DATA_BITS - 1)
        assert agent._table != before
        corrupted = {s: list(r) for s, r in agent._table.items()}
        stats = storage.scrub()
        assert stats == {"corrected": 0, "detected": 0, "quarantined_rows": 0}
        assert agent._table == corrupted  # nothing to repair without ECC
        _cache_matches_words(agent, storage)

    def test_corrupted_values_stay_finite(self):
        """Fixed-point garbage is bounded — the NaN/inf class of failure
        cannot arise from any flip pattern."""
        agent, storage = _agent_with_storage(ecc=False, rows=2)
        rng = random.Random(5)
        for _ in range(200):
            storage.flip_bit(rng.randrange(storage.bit_count()))
        for row in agent._table.values():
            assert all(math.isfinite(v) for v in row)

    def test_scrub_counts_accumulate(self):
        """Each pass reports its own repairs; only quarantined rows
        accumulate on the storage."""
        agent, storage = _agent_with_storage(ecc=True)
        passes = []
        for bit in (0, 1):
            storage.flip_bit(bit)
            passes.append(storage.scrub())
        assert passes == [{"corrected": 1, "detected": 0, "quarantined_rows": 0}] * 2
        storage.flip_bit(3)
        storage.flip_bit(11)
        assert storage.scrub()["quarantined_rows"] == 1
        storage.flip_bit(3)
        storage.flip_bit(11)
        storage.scrub()
        assert storage.quarantined_rows == 2


class TestStateRoundTrip:
    def test_mid_corruption_round_trip_is_bit_identical(self):
        agent, storage = _agent_with_storage(ecc=True)
        storage.flip_bit(40)
        storage.flip_bit(41)  # same word: pending DETECTED
        storage.flip_bit(200)  # different word: pending CORRECTED
        state = agent.to_state()
        clone = QLearningAgent.from_state(state)
        assert clone._table == agent._table
        assert clone.storage.to_state() == storage.to_state()
        # Scrubbing both sides produces identical outcomes.
        assert clone.storage.scrub() == storage.scrub()
        assert clone._table == agent._table

    def test_frac_bits_mismatch_rejected(self):
        agent, storage = _agent_with_storage()
        state = agent.to_state()
        state["storage"]["frac_bits"] = 99
        with pytest.raises(AgentStateError, match="fixed-point layout mismatch"):
            QLearningAgent.from_state(state)

    def test_overwide_word_rejected(self):
        agent, storage = _agent_with_storage()
        state = agent.to_state()
        first = next(iter(state["storage"]["words"]))
        state["storage"]["words"][first][0] = 1 << 60
        with pytest.raises(AgentStateError, match="does not fit"):
            QLearningAgent.from_state(state)


class TestTmrModeBank:
    def test_single_upset_is_outvoted(self):
        bank = TmrModeBank(4)
        bank.write(2, 3)
        bank.upset(2, bit=0, copy=1)
        assert bank.read(2) == 3
        assert bank.vote() == 1  # one copy resynced
        assert bank.copies[2] == [3, 3, 3]

    def test_two_upsets_distinct_copies_corrupt_majority(self):
        bank = TmrModeBank(4)
        bank.write(1, 0)
        bank.upset(1, bit=1, copy=0)
        bank.upset(1, bit=1, copy=2)
        assert bank.read(1) == 2  # majority flipped

    def test_write_resyncs_all_copies(self):
        bank = TmrModeBank(2)
        bank.upset(0, bit=0, copy=0)
        bank.write(0, 1)
        assert bank.copies[0] == [1, 1, 1]
        assert bank.vote() == 0

    def test_vote_counts_accumulate(self):
        bank = TmrModeBank(3)
        bank.upset(0, bit=0, copy=0)
        bank.upset(1, bit=1, copy=2)
        assert bank.vote() == 2
        assert bank.vote() == 0  # every copy already agrees

    def test_bitwise_majority_equals_per_bit_vote(self):
        # Exhaustive over three copies of 3-bit values: bits above the
        # 2-bit register never reach the datapath.
        bank = TmrModeBank(1)
        for copies in itertools.product(range(8), repeat=3):
            expected = sum(
                1 << bit
                for bit in range(TmrModeBank.REGISTER_BITS)
                if sum((reg >> bit) & 1 for reg in copies) >= 2
            )
            bank.copies[0] = list(copies)
            assert bank.read(0) == expected, copies
            wrong = sum(reg != expected for reg in copies)
            assert bank.vote() == wrong
            assert bank.copies[0] == [expected] * 3

    def test_needs_routers(self):
        with pytest.raises(ValueError, match="at least one router"):
            TmrModeBank(0)
