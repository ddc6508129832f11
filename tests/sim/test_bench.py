"""Kernel equivalence of the quick closed-loop control-plane fault campaigns.

Sensor faults, SEUs and their defenses live in the epoch loop, so these
campaigns drive the full :class:`Simulator` under RL control on a 4x4
mesh: scaled pre-training and warm-up, then a 6 000-cycle uniform
window and a drain.  Both kernels must agree on every traffic outcome
and on the family's whole defense ledger, and the campaign must
actually fire on both.
"""

import random

from repro.core.rl_policy import RLControlPolicy
from repro.sim import Simulator, scaled_config
from repro.traffic import SyntheticTraffic

#: ``sensor``: dropout, one wedged temperature sensor, nack-rate noise
#: and a staleness window, with mode-switch hysteresis
SENSOR_OVERRIDES = {
    "sensor_spec": "drop@0.2:util;stuck@r5.temp=0.9;noise@0.05:nack;stale@r2+1500:4",
    "mode_hysteresis_epochs": 2,
}

#: ``softerror``: a per-bit Q-table upset rate, one mode-register flip
#: and one multi-bit burst
SOFTERROR_OVERRIDES = {"soft_error_spec": "qtable@2e-5;mode@r3+2000;burst@3000:4"}


def _sensor_ledger(sim):
    return {
        "injected": dict(sim.sensors.injected),
        "rejected": int(sim.metrics.peek("sensor.rejected_observations")),
        "holds": int(sim.metrics.peek("sensor.holds")),
        "clamps": int(sim.metrics.peek("sensor.clamps")),
        "debounced": int(sim.metrics.peek("sensor.debounced_switches")),
        "quarantined": sorted(sim.obs_guard.quarantined),
    }


def _ecc_ledger(sim):
    return {
        "injected": dict(sim.soft_errors.injected),
        "scrubs": int(sim.metrics.peek("ecc.scrubs")),
        "corrected": int(sim.metrics.peek("ecc.corrected")),
        "detected": int(sim.metrics.peek("ecc.detected")),
        "quarantined_rows": int(sim.metrics.peek("ecc.quarantined_rows")),
        "mode_votes": int(sim.metrics.peek("ecc.mode_votes")),
        "safe_mode_entries": int(sim.metrics.peek("ecc.safe_mode_entries")),
    }


def _closed_loop_digest(kernel, overrides, key, ledger, cycles=6_000, seed=0):
    config = scaled_config(
        width=4,
        height=4,
        epoch_cycles=250,
        pretrain_cycles=cycles,
        warmup_cycles=1_000,
        **overrides,
    )
    policy = RLControlPolicy(share_table=True, seed=seed)
    sim = Simulator(config, policy, seed=seed, kernel=kernel)
    sim.pretrain()
    policy.freeze()
    sim.warmup()
    source = SyntheticTraffic(
        sim.network.topology,
        pattern="uniform",
        injection_rate=0.05,
        packet_size=config.packet_size,
        flit_bits=config.flit_bits,
        rng=random.Random(seed + 97),
    )
    sim.run(source, cycles)
    sim.drain()
    stats = sim.network.stats
    digest = {
        "messages_created": stats.messages_created,
        "packets_delivered": stats.packets_delivered,
        "messages_dropped": stats.messages_dropped,
        "retransmission_events": stats.retransmission_events,
        "corrected_errors": stats.corrected_errors,
        "mean_latency": stats.mean_latency,
        "final_cycle": sim.network.now,
    }
    digest[key] = ledger(sim)
    digest[key]["mode_switches"] = sum(r.mode_switches for r in sim.network.routers)
    return digest


def test_sensor_scenario_kernel_equivalent_and_faulted():
    """The digest carries the defense tallies, and the campaign actually
    corrupted telemetry on both kernels."""
    fast, naive = (
        _closed_loop_digest(kernel, SENSOR_OVERRIDES, "sensor", _sensor_ledger)
        for kernel in ("fast", "naive")
    )
    assert fast == naive
    sensor = fast["sensor"]
    assert sensor["injected"]["drop"] > 0
    assert sensor["injected"]["stuck"] > 0
    assert sensor["rejected"] > 0
    assert sensor["holds"] + sensor["clamps"] > 0
    assert fast["packets_delivered"] > 0


def test_softerror_scenario_kernel_equivalent_and_upset():
    """The digest folds the full ECC ledger, so any kernel divergence in
    flip placement or scrub outcomes fails; the campaign actually upset
    the Q-tables and the scrubber actually corrected on both kernels."""
    fast, naive = (
        _closed_loop_digest(kernel, SOFTERROR_OVERRIDES, "ecc", _ecc_ledger)
        for kernel in ("fast", "naive")
    )
    assert fast == naive
    ecc = fast["ecc"]
    assert ecc["injected"]["qtable"] > 0
    assert ecc["scrubs"] > 0
    assert ecc["corrected"] > 0
    assert fast["packets_delivered"] > 0
