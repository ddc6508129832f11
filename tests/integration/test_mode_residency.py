"""Mode residency: ``RunResult.mode_cycles`` against a per-cycle count.

A router books its cycles to the old mode when a switch takes effect
(``Network.now`` for ``set_mode``, the cycle after ``Router.step`` for a
deferred ECC-off switch), and ``Network.harvest_epoch_counters`` books
the rest at each epoch boundary, after the select stage has applied the
next epoch's modes.  ``mode_cycles`` is in no pinned result digest.
"""

import pytest

from repro.sim import default_design_factories, scaled_config, synthesize_benchmark_trace
from repro.sim.experiment import pretrain_policy
from repro.sim.simulator import Simulator

#: Cycles each mode was active, summed over routers, in the measured
#: window below (counted before every cycle).
PER_CYCLE_TRUTH = {0: 4784, 1: 3258, 2: 2708, 3: 3227}


@pytest.fixture(scope="module")
def residency():
    """One RL cell on a 3x3 mesh (campaign protocol): booked and counted."""
    config = scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=6_000, warmup_cycles=400
    )
    policy = default_design_factories(0)["rl"]()
    pretrain_policy(policy, config, seed=0)
    sim = Simulator(config, policy, seed=0)
    sim.warmup()
    counted = {mode: 0 for mode in PER_CYCLE_TRUTH}
    network_cycle = sim.network.cycle

    def cycle_counting_modes():
        for router in sim.network.routers:
            counted[int(router.mode)] += 1
        network_cycle()

    sim.network.cycle = cycle_counting_modes
    records = synthesize_benchmark_trace("canneal", config, 1_500, 0)
    result = sim.measure_trace(records, "canneal")
    return result, counted


def test_per_cycle_residency_is_pinned(residency):
    result, counted = residency
    assert counted == PER_CYCLE_TRUTH
    assert sum(counted.values()) == 9 * result.execution_cycles


def test_mode_cycles_follow_the_active_mode(residency):
    result, _ = residency
    assert result.mode_cycles == PER_CYCLE_TRUTH
