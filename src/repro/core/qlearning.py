"""Tabular Q-learning (Section IV-A).

The paper uses the classic tabular algorithm [Sutton & Barto]: a
state-action mapping table per router, updated with the temporal-
difference rule

    Q(s, a) <- (1 - alpha) Q(s, a) + alpha [r + gamma max_a' Q(s', a')]

with alpha = 0.1, gamma = 0.5, epsilon-greedy exploration at
epsilon = 0.1, and Q initialized to zero (Section IV-C).  The table is a
dictionary keyed by the discretized state tuple, so only visited states
occupy memory — the hardware analogue is the per-router SRAM Q-table
whose area the paper budgets at 2360 um^2 together with the update ALU.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Hashable, List, Optional, Tuple

from repro.coding.hamming import DecodeStatus, SecdedCode

__all__ = ["AgentStateError", "QLearningAgent", "QTableStorage"]

State = Hashable


class AgentStateError(ValueError):
    """A serialized Q-table failed validation (NaN/inf values, wrong
    action count, malformed rows).  Callers treat the table as lost and
    fall back to safe-mode control rather than loading poison."""


class QTableStorage:
    """Fixed-point SRAM backing store for one agent's Q-table.

    The paper budgets the Q-table as per-router SRAM, and SRAM takes
    single-event upsets (:mod:`repro.faults.softerrors`).  This layer
    models the physical storage so upsets have somewhere real to land:
    every Q-entry is a signed :attr:`DATA_BITS`-bit fixed-point word
    (:attr:`FRAC_BITS` fractional bits, saturating), stored either as a
    SECDED codeword (``ecc=True``, the defended layout — 39 bits per
    32-bit word via :class:`repro.coding.hamming.SecdedCode`) or as the
    raw word (``ecc=False``, the ``--no-ecc`` strawman).

    Contract with the owning :class:`QLearningAgent`:

    * The agent's float ``_table`` becomes a decoded *cache* of this
      store: every write is quantized, encoded, stored, and the
      quantized value written back to the cache, so the learning loop
      always sees exactly what the SRAM holds.  Reads stay plain dict
      lookups — zero overhead on the hot path.
    * :meth:`flip_bit` (the SEU injection point) corrupts the stored
      word and refreshes the cache with its *decoded* view: under ECC a
      single-bit error decodes to the original data (corrected on read,
      invisible to behaviour, not tallied); without ECC the corrupted
      word's value lands straight in the cache and drives the policy.
    * :meth:`scrub` is the periodic repair pass: it re-checks every
      word flipped since the last scrub (writes always store valid
      codewords, so only flips can dirty a word — checking the dirty
      set is outcome-identical to walking the whole memory), corrects
      and re-encodes single-bit errors, and quarantines rows holding
      uncorrectable words by re-initializing them to ``q_init`` —
      the learned row is lost, never silently wrong.

    Everything (words, quarantine count, dirty set) pickles with the
    agent, and :meth:`to_state`/:meth:`from_state` carry the codewords
    verbatim, so checkpointed campaigns resume bit-identically
    mid-corruption.
    """

    DATA_BITS = 32
    FRAC_BITS = 10
    #: quarantined rows before the owning router should degrade to safe mode
    QUARANTINE_LIMIT = 4

    _SCALE = 1 << FRAC_BITS
    _WORD_MAX = (1 << (DATA_BITS - 1)) - 1
    _WORD_MIN = -(1 << (DATA_BITS - 1))

    def __init__(self, ecc: bool = True) -> None:
        self.ecc = ecc
        self.code: Optional[SecdedCode] = SecdedCode(self.DATA_BITS) if ecc else None
        self.word_bits = self.code.codeword_bits if ecc else self.DATA_BITS
        self.agent: Optional["QLearningAgent"] = None
        self.num_actions = 0
        #: stored words per state row (codewords with ECC, raw without)
        self._words: Dict[State, List[int]] = {}
        #: row keys in insertion order, for O(1) global bit addressing
        self._row_order: List[State] = []
        #: (state, action) words flipped since the last scrub, in order
        self._dirty: List[Tuple[State, int]] = []
        self._dirty_set: set = set()
        #: rows quarantined so far (the ECC escalation reads it; the
        #: run's ``ecc.*`` counters keep the other scrub tallies)
        self.quarantined_rows = 0

    # ------------------------------------------------------------------
    # fixed-point codec
    # ------------------------------------------------------------------
    @classmethod
    def quantize(cls, value: float) -> float:
        """Value as actually representable in the fixed-point word."""
        if math.isnan(value):
            value = 0.0
        return cls._fixed(value) / cls._SCALE

    @classmethod
    def _fixed(cls, value: float) -> int:
        """The signed fixed-point word of ``value`` (raises on NaN)."""
        return int(round(min(max(value * cls._SCALE, cls._WORD_MIN), cls._WORD_MAX)))

    def _pack(self, word: int) -> int:
        """The stored form of a signed word: its codeword, or raw bits."""
        unsigned = word & ((1 << self.DATA_BITS) - 1)
        return self.code.encode(unsigned) if self.ecc else unsigned

    def _data_value(self, data: int) -> float:
        if data >= 1 << (self.DATA_BITS - 1):
            data -= 1 << self.DATA_BITS
        return data / self._SCALE

    def _decode(self, stored: int) -> float:
        """Best-effort value of a stored word (the read-path view)."""
        if not self.ecc:
            return self._data_value(stored)
        return self._data_value(self.code.decode(stored).data)

    # ------------------------------------------------------------------
    # agent-facing writes
    # ------------------------------------------------------------------
    def bind(self, agent: "QLearningAgent") -> None:
        """Adopt an agent: encode its existing rows and take over writes."""
        self.agent = agent
        self.num_actions = agent.num_actions
        for state in list(agent._table):
            agent._table[state] = self.init_row(state, agent._table[state])

    def init_row(self, state: State, values: List[float]) -> List[float]:
        """Store a fresh row; returns the quantized cache row."""
        if state not in self._words:
            self._row_order.append(state)
        words = [self._fixed(v) for v in values]
        self._words[state] = [self._pack(word) for word in words]
        return [word / self._SCALE for word in words]

    def store(self, state: State, action: int, value: float) -> float:
        """Store one Q-write; returns the quantized value for the cache."""
        word = self._fixed(value)
        self._words[state][action] = self._pack(word)
        return word / self._SCALE

    # ------------------------------------------------------------------
    # SEU injection surface
    # ------------------------------------------------------------------
    def bit_count(self) -> int:
        """Total stored bits, the SEU model's address space."""
        return len(self._row_order) * self.num_actions * self.word_bits

    def flip_bit(self, index: int) -> Tuple[State, int]:
        """Flip one stored bit by global index; returns the word's key."""
        word_index, bit = divmod(index, self.word_bits)
        row_index, action = divmod(word_index, self.num_actions)
        state = self._row_order[row_index]
        self._words[state][action] ^= 1 << bit
        key = (state, action)
        if key not in self._dirty_set:
            self._dirty_set.add(key)
            self._dirty.append(key)
        # The cache tracks the (decoded) SRAM contents, corruption included.
        self.agent._table[state][action] = self._decode(self._words[state][action])
        return key

    # ------------------------------------------------------------------
    # scrub pass (the defense)
    # ------------------------------------------------------------------
    def scrub(self) -> Dict[str, int]:
        """Check and repair every word dirtied since the last scrub.

        Single-bit errors are corrected in place and re-encoded;
        uncorrectable words quarantine their whole row back to
        ``q_init``.  Returns this pass's tallies; quarantined rows also
        accumulate on the instance.  Without ECC there is nothing to
        check.
        """
        stats = {"corrected": 0, "detected": 0, "quarantined_rows": 0}
        if not self.ecc:
            self._dirty.clear()
            self._dirty_set.clear()
            return stats
        for state, action in self._dirty:
            result = self.code.decode(self._words[state][action])
            if result.status is DecodeStatus.CLEAN:
                continue
            if result.status is DecodeStatus.CORRECTED:
                self._words[state][action] = self.code.encode(result.data)
                self.agent._table[state][action] = self._data_value(result.data)
                stats["corrected"] += 1
                continue
            # DETECTED: the word is unrecoverable — lose the row loudly.
            q_init = self.quantize(self.agent.q_init)
            self._words[state] = [self._pack(self._fixed(q_init))] * self.num_actions
            self.agent._table[state] = [q_init] * self.num_actions
            stats["detected"] += 1
            stats["quarantined_rows"] += 1
        self._dirty.clear()
        self._dirty_set.clear()
        self.quarantined_rows += stats["quarantined_rows"]
        return stats

    # ------------------------------------------------------------------
    # durable state
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """Codewords + quarantine count, verbatim — resumes mid-corruption."""
        return {
            "ecc": self.ecc,
            "frac_bits": self.FRAC_BITS,
            "words": {state: list(row) for state, row in self._words.items()},
            "dirty": list(self._dirty),
            "quarantined_rows": self.quarantined_rows,
        }

    @classmethod
    def from_state(
        cls, state: Dict[str, object], agent: "QLearningAgent"
    ) -> "QTableStorage":
        """Rebuild a storage snapshot and attach it to ``agent``.

        The float cache is recomputed by decoding the stored words, so a
        snapshot taken mid-corruption (flipped, not yet scrubbed) resumes
        with the cache bit-identical to the original process.
        """
        if int(state.get("frac_bits", cls.FRAC_BITS)) != cls.FRAC_BITS:
            raise AgentStateError(
                f"storage fixed-point layout mismatch: snapshot has "
                f"{state.get('frac_bits')} fractional bits, expected {cls.FRAC_BITS}"
            )
        storage = cls(ecc=bool(state.get("ecc", True)))
        storage.agent = agent
        storage.num_actions = agent.num_actions
        words = state.get("words", {})
        if not isinstance(words, dict):
            raise AgentStateError("storage words must be a dict of state -> row")
        limit = 1 << storage.word_bits
        for key, row in words.items():
            if not isinstance(row, (list, tuple)) or len(row) != agent.num_actions:
                raise AgentStateError(f"storage row for state {key!r} is malformed")
            clean: List[int] = []
            for word in row:
                word = int(word)
                if not 0 <= word < limit:
                    raise AgentStateError(
                        f"stored word {word!r} does not fit in {storage.word_bits} bits"
                    )
                clean.append(word)
            storage._words[key] = clean
            storage._row_order.append(key)
        for key in state.get("dirty", []):
            pair = (key[0], int(key[1]))
            if pair[0] in storage._words and pair not in storage._dirty_set:
                storage._dirty_set.add(pair)
                storage._dirty.append(pair)
        storage.quarantined_rows = int(state.get("quarantined_rows", 0))
        agent.storage = storage
        agent._table = {
            s: [storage._decode(w) for w in row] for s, row in storage._words.items()
        }
        return storage


class QLearningAgent:
    """One tabular Q-learning agent over a fixed discrete action set."""

    def __init__(
        self,
        num_actions: int,
        alpha: float = 0.1,
        gamma: float = 0.5,
        epsilon: float = 0.1,
        q_init: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if num_actions <= 0:
            raise ValueError("need at least one action")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.num_actions = num_actions
        self.alpha = alpha
        self.gamma = gamma
        self.epsilon = epsilon
        self.q_init = q_init
        self.rng = rng if rng is not None else random.Random(0)
        self._table: Dict[State, List[float]] = {}
        self.updates = 0
        #: optional fixed-point/ECC backing store (soft-error campaigns);
        #: ``None`` keeps the plain float table bit-identical to before
        self.storage: Optional[QTableStorage] = None

    # ------------------------------------------------------------------
    def attach_storage(self, storage: QTableStorage) -> None:
        """Back this agent's table with a :class:`QTableStorage`."""
        self.storage = storage
        storage.bind(self)

    def _row(self, state: State) -> List[float]:
        row = self._table.get(state)
        if row is None:
            row = [self.q_init] * self.num_actions
            if self.storage is not None:
                row = self.storage.init_row(state, row)
            self._table[state] = row
        return row

    def q_values(self, state: State) -> Tuple[float, ...]:
        """Current Q-values of a state (zeros if unvisited)."""
        return tuple(self._table.get(state, [self.q_init] * self.num_actions))

    def best_action(self, state: State) -> int:
        """Greedy action; exact ties are broken uniformly at random so a
        fresh state does not systematically favour action 0."""
        row = self._table.get(state)
        if row is None:
            return self.rng.randrange(self.num_actions)
        best = max(row)
        winners = [a for a, q in enumerate(row) if q == best]
        if len(winners) == 1:
            return winners[0]
        return winners[self.rng.randrange(len(winners))]

    def select_action(self, state: State) -> int:
        """Epsilon-greedy action selection."""
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            return self.rng.randrange(self.num_actions)
        return self.best_action(state)

    def update(self, state: State, action: int, reward: float, next_state: State) -> None:
        """Apply the temporal-difference rule (paper equation 2)."""
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} outside the action space")
        row = self._row(state)
        bootstrap = max(self._row(next_state))
        value = (1.0 - self.alpha) * row[action] + self.alpha * (
            reward + self.gamma * bootstrap
        )
        if self.storage is not None:
            # Write-through: the cache keeps exactly what the SRAM holds,
            # so learning dynamics see the quantized value, not the ideal.
            value = self.storage.store(state, action, value)
        row[action] = value
        self.updates += 1

    # ------------------------------------------------------------------
    @property
    def states_visited(self) -> int:
        return len(self._table)

    def greedy_policy(self) -> Dict[State, int]:
        """Snapshot of the current greedy policy over visited states."""
        return {state: self.best_action(state) for state in self._table}

    def set_epsilon(self, epsilon: float) -> None:
        """Adjust exploration (e.g. anneal to 0 after pre-training)."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon

    def set_alpha(self, alpha: float) -> None:
        """Adjust the learning rate (the paper notes alpha may be reduced
        over time to aid convergence)."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha

    # ------------------------------------------------------------------
    # Durable state (checkpoint/resume)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """Serializable snapshot of everything the agent has learned.

        The snapshot carries the hyper-parameters, the full Q-table, the
        update counter, and the exploration RNG state, so
        ``from_state(to_state())`` resumes action selection and learning
        bit-identically to the original agent.
        """
        state: Dict[str, object] = {
            "num_actions": self.num_actions,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "q_init": self.q_init,
            "updates": self.updates,
            "rng_state": self.rng.getstate(),
            "table": {state: list(row) for state, row in self._table.items()},
        }
        if self.storage is not None:
            state["storage"] = self.storage.to_state()
        return state

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "QLearningAgent":
        """Rebuild an agent from :meth:`to_state`, rejecting poison.

        Raises :class:`AgentStateError` when the snapshot is malformed,
        carries NaN/inf Q-values, or its rows do not match the declared
        action count — a corrupted table must never drive a live router.
        """
        if not isinstance(state, dict):
            raise AgentStateError(f"agent state must be a dict, got {type(state).__name__}")
        try:
            num_actions = int(state["num_actions"])
            table = state["table"]
        except (KeyError, TypeError, ValueError) as exc:
            raise AgentStateError(f"agent state missing required field: {exc}") from None
        if num_actions <= 0:
            raise AgentStateError(f"invalid action count {num_actions}")
        if not isinstance(table, dict):
            raise AgentStateError("Q-table must be a dict of state -> row")
        validated: Dict[State, List[float]] = {}
        for key, row in table.items():
            if not isinstance(row, (list, tuple)) or len(row) != num_actions:
                raise AgentStateError(
                    f"Q-row for state {key!r} has {len(row) if isinstance(row, (list, tuple)) else 'non-sequence'} "
                    f"entries, expected {num_actions}"
                )
            values = []
            for q in row:
                q = float(q)
                if not math.isfinite(q):
                    raise AgentStateError(f"non-finite Q-value {q!r} for state {key!r}")
                values.append(q)
            validated[key] = values
        try:
            agent = cls(
                num_actions=num_actions,
                alpha=float(state.get("alpha", 0.1)),
                gamma=float(state.get("gamma", 0.5)),
                epsilon=float(state.get("epsilon", 0.1)),
                q_init=float(state.get("q_init", 0.0)),
            )
        except ValueError as exc:
            raise AgentStateError(f"invalid hyper-parameters: {exc}") from None
        agent._table = validated
        agent.updates = int(state.get("updates", 0))
        rng_state = state.get("rng_state")
        if rng_state is not None:
            try:
                agent.rng.setstate(rng_state)
            except (TypeError, ValueError) as exc:
                raise AgentStateError(f"invalid RNG state: {exc}") from None
        storage_state = state.get("storage")
        if storage_state is not None:
            if not isinstance(storage_state, dict):
                raise AgentStateError("storage state must be a dict")
            # Restores the codewords verbatim and rebuilds the float
            # cache from them, overriding the validated table copy above.
            QTableStorage.from_state(storage_state, agent)
        return agent
