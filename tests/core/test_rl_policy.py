"""Tests for the RL control policy."""

import pytest

from repro.core.modes import OperationMode
from repro.core.rl_policy import RLControlPolicy
from repro.core.state import RouterObservation


def obs(discrete, router_id=0):
    return RouterObservation(
        router_id=router_id,
        occupied_vcs=[0] * 5,
        input_utilization=[0.0] * 5,
        output_utilization=[0.0] * 5,
        input_nack_rate=[0.0] * 5,
        output_nack_rate=[0.0] * 5,
        temperature=50.0,
        discrete=discrete,
    )


class TestLifecycle:
    def test_select_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            RLControlPolicy().select(0, obs((0,)))

    def test_reset_rejects_zero_routers(self):
        with pytest.raises(ValueError):
            RLControlPolicy().reset(0)

    def test_per_router_agents_are_independent(self):
        policy = RLControlPolicy(epsilon=0.0, pretrain_epsilon=0.0, seed=1)
        policy.reset(2)
        policy.learn(0, obs((1,)), OperationMode.MODE_2, 50.0, obs((1,)))
        # Router 0 learned something; router 1's table is untouched.
        assert policy._agents[0].states_visited > 0
        assert policy._agents[1].states_visited == 0

    def test_shared_table_pools_experience(self):
        policy = RLControlPolicy(
            epsilon=0.0, pretrain_epsilon=0.0, share_table=True, seed=1
        )
        policy.reset(4)
        for _ in range(30):
            policy.learn(0, obs((7,)), OperationMode.MODE_3, 50.0, obs((7,)))
        # All routers select from the same table.
        assert policy.select(3, obs((7,))) is OperationMode.MODE_3

    def test_reset_preserves_learning_for_same_size(self):
        policy = RLControlPolicy(share_table=True, seed=1)
        policy.reset(4)
        policy.learn(0, obs((7,)), OperationMode.MODE_1, 10.0, obs((7,)))
        visited = policy.states_visited()
        policy.reset(4)
        assert policy.states_visited() == visited
        policy.reset(9)  # different platform: fresh agents
        assert policy.states_visited() == 0

    def test_profile_is_rl_design(self):
        policy = RLControlPolicy()
        assert policy.profile.name == "rl"
        assert policy.profile.has_rl_logic
        assert policy.profile.ecc_gated
        assert policy.trainable


class TestLearning:
    def test_learns_state_conditional_modes(self):
        """Mode 0 pays in 'cool' states, mode 3 pays in 'hot' states."""
        policy = RLControlPolicy(
            epsilon=0.0, pretrain_epsilon=0.5, pretrain_alpha=0.3, seed=3
        )
        policy.reset(1)
        cool, hot = (0,), (4,)
        import random

        rng = random.Random(0)
        for _ in range(600):
            state = cool if rng.random() < 0.5 else hot
            action = policy.select(0, obs(state))
            if state == cool:
                reward = 10.0 if action is OperationMode.MODE_0 else 5.0
            else:
                reward = 10.0 if action is OperationMode.MODE_3 else 2.0
            policy.learn(0, obs(state), action, reward, obs(state))
        policy.freeze()
        assert policy.select(0, obs(cool)) is OperationMode.MODE_0
        assert policy.select(0, obs(hot)) is OperationMode.MODE_3

    def test_freeze_anneals_parameters(self):
        policy = RLControlPolicy(
            alpha=0.1, epsilon=0.02, pretrain_alpha=0.3, pretrain_epsilon=0.4
        )
        policy.reset(2)
        agent = policy._agents[0]
        assert agent.alpha == 0.3 and agent.epsilon == 0.4
        policy.freeze()
        assert agent.alpha == 0.1 and agent.epsilon == 0.02


class TestIntrospection:
    def test_counters(self):
        policy = RLControlPolicy(share_table=True)
        policy.reset(4)
        policy.learn(1, obs((1,)), OperationMode.MODE_0, 1.0, obs((2,)))
        policy.learn(2, obs((2,)), OperationMode.MODE_1, 1.0, obs((1,)))
        assert policy.total_updates() == 2
        assert policy.states_visited() == 2

    def test_mode_distribution_sums_to_states(self):
        policy = RLControlPolicy(share_table=True, pretrain_epsilon=0.0)
        policy.reset(2)
        policy.learn(0, obs((1,)), OperationMode.MODE_2, 9.0, obs((1,)))
        dist = policy.mode_distribution()
        assert sum(dist.values()) == policy.states_visited()
        assert dist[OperationMode.MODE_2] == 1


class TestDurableState:
    def _trained(self, num_routers=3, share=False):
        policy = RLControlPolicy(seed=5, share_table=share)
        policy.reset(num_routers)
        for step in range(40):
            rid = step % num_routers
            policy.learn(
                rid, obs((step % 4,), rid), OperationMode(step % 4),
                float(step), obs(((step + 1) % 4,), rid),
            )
        return policy

    def test_state_round_trip_preserves_behaviour(self):
        policy = self._trained()
        clone = RLControlPolicy(seed=5)
        clone.load_state(policy.to_state())
        assert clone.total_updates() == policy.total_updates()
        assert clone.states_visited() == policy.states_visited()
        for rid in range(3):
            seq_a = [int(policy.select(rid, obs((i % 4,), rid))) for i in range(20)]
            seq_b = [int(clone.select(rid, obs((i % 4,), rid))) for i in range(20)]
            assert seq_a == seq_b

    def test_shared_table_round_trip(self):
        policy = self._trained(share=True)
        clone = RLControlPolicy(seed=5, share_table=True)
        clone.load_state(policy.to_state())
        assert clone.total_updates() == policy.total_updates()
        assert len(clone._unique_agents()) == 1

    def test_load_state_none_is_noop(self):
        policy = self._trained()
        updates = policy.total_updates()
        policy.load_state(None)
        assert policy.total_updates() == updates

    def test_load_state_reports_no_rejection_for_a_clean_snapshot(self):
        for share in (False, True):
            policy = self._trained(share=share)
            clone = RLControlPolicy(seed=5, share_table=share)
            assert clone.load_state(policy.to_state()) == {}

    def test_poisoned_table_degrades_instead_of_raising(self):
        policy = self._trained()
        state = policy.to_state()
        agent_state = state["agents"][1]
        key = next(iter(agent_state["table"]))
        agent_state["table"][key][0] = float("nan")
        clone = RLControlPolicy(seed=5)
        rejected = clone.load_state(state)  # must not raise
        assert set(rejected) == {1}
        assert rejected[1].startswith("rejected Q-table: ")
        # The rejected router keeps a fresh table; the others keep their own.
        assert clone._agents[1].states_visited == 0
        for rid in (0, 2):
            assert clone._agents[rid].to_state() == policy._agents[rid].to_state()

    def test_poisoned_shared_table_degrades_all_routers(self):
        policy = self._trained(share=True)
        state = policy.to_state()
        key = next(iter(state["agents"][0]["table"]))
        state["agents"][0]["table"][key][0] = float("inf")
        clone = RLControlPolicy(seed=5, share_table=True)
        rejected = clone.load_state(state)
        assert set(rejected) == {0, 1, 2}
        assert all(reason.startswith("rejected Q-table: ") for reason in rejected.values())
        assert clone.states_visited() == 0

    def test_a_router_the_snapshot_has_no_table_for_is_rejected(self):
        state = self._trained().to_state()
        state["agents"] = state["agents"][:2]
        clone = RLControlPolicy(seed=5)
        rejected = clone.load_state(state)
        assert set(rejected) == {2}
        assert rejected[2].startswith("rejected Q-table: ")
        assert clone._agents[2].states_visited == 0

        state = self._trained(share=True).to_state()
        state["agents"] = []
        clone = RLControlPolicy(seed=5, share_table=True)
        rejected = clone.load_state(state)
        assert set(rejected) == {0, 1, 2}
        assert all(reason.startswith("rejected Q-table: ") for reason in rejected.values())

    def test_snapshot_carries_no_pins(self):
        state = self._trained().to_state()
        assert set(state) == {"policy", "share_table", "num_routers", "seed", "agents"}
