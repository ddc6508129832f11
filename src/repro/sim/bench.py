"""Kernel throughput benchmarks: activity-driven vs naive cycle kernel.

The PR-4 performance work replaced the full-scan ``Network.cycle`` with
an activity-driven kernel (iterate only registered-active channels, NIs,
and routers; fast-forward fully idle spans in ``Network.run``).  This
module measures what that buys, honestly, on three workload shapes:

``idle``
    Sparse bursts separated by long silent spans — the common shape of
    control-epoch simulations (pre-training curricula, warm-up, drain
    tails).  Dominated by the fast-forward path.
``saturated``
    Open-loop uniform traffic at an offered load past the saturation
    knee, with a bounded outstanding-message cap so the run does not
    grow without limit.  Dominated by active-set iteration under load.
``chaos``
    Moderate uniform load under a hard-fault campaign (link and router
    kills plus an error burst) with adaptive routing — the stress shape
    of the graceful-degradation experiments.
``traced``
    Byte-for-byte the chaos scenario with a :class:`~repro.obs.trace.
    TraceBuffer` attached.  Its stats digest must equal chaos's — the
    observability layer's zero-cost-when-disabled *and* behaviour-
    neutral-when-enabled contract (DESIGN.md §12) — and the reported
    ``trace_overhead`` ratio shows what event capture costs.
``sensor``
    The full closed control loop (RL policy + observation guard) under
    a combined sensor-fault campaign — dropout, stuck-at, noise, and
    staleness — with mode-switch hysteresis enabled.  Unlike the other
    scenarios this drives the complete :class:`~repro.sim.simulator.
    Simulator`, so it proves the degraded-telemetry defenses (DESIGN.md
    §13) are kernel-identical: corruption draws, holds, and quarantines
    happen at epoch boundaries only, which both kernels execute alike.
``softerror``
    The full closed control loop under an SEU campaign flipping bits in
    the SECDED-protected Q-table SRAM and the TMR'd mode registers
    (DESIGN.md §14).  Injection and scrubbing happen at epoch
    boundaries only, so the digest — which folds in every injected
    flip, correction, detection, and quarantine — must be
    kernel-identical.

Each scenario runs on both kernels from identical seeds; the two runs
must agree on a stats digest (the bit-identical contract from
DESIGN.md §11) or the bench itself fails.  Speedups are the ratio of
measured cycles/second, which makes the *ratio* machine-independent
enough for a CI smoke check even though the absolute rates are not.

``python -m repro.cli bench`` is the entry point; ``--check`` compares
against a committed baseline (``BENCH_kernel.json``) and fails on a
speedup regression beyond the threshold or on any stats-digest drift
from a baseline entry at the same (quick, seed, mesh) point
(:func:`check_digests`).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.hardfaults import HardFaultModel, HardFaultSchedule
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology
from repro.obs import TraceBuffer

__all__ = [
    "SCENARIOS",
    "run_scenario",
    "run_bench",
    "check_regression",
    "check_digests",
    "format_report",
]

#: scenario name -> cycles at (default, --quick) scale
SCENARIOS: Dict[str, Tuple[int, int]] = {
    "idle": (150_000, 40_000),
    "saturated": (15_000, 4_000),
    "chaos": (20_000, 6_000),
    # Same cycles as chaos on purpose: run_bench() asserts their stats
    # digests are identical, proving tracing does not perturb the run.
    "traced": (20_000, 6_000),
    # Measured-window cycles of the closed-loop sensor-fault scenario
    # (pre-train/warm-up phases are on top and scale with --quick).
    "sensor": (20_000, 6_000),
    # Measured-window cycles of the closed-loop soft-error scenario
    # (same phase structure as sensor).
    "softerror": (20_000, 6_000),
}

#: payload schema version for BENCH_kernel.json
BENCH_VERSION = 1

_PACKET_SIZE = 4
_FLIT_BITS = 128


def _digest(net: Network) -> Dict[str, object]:
    """Result fingerprint both kernels must agree on (bit-identity)."""
    stats = net.stats
    return {
        "messages_created": stats.messages_created,
        "packets_delivered": stats.packets_delivered,
        "messages_dropped": stats.messages_dropped,
        "retransmission_events": stats.retransmission_events,
        "corrected_errors": stats.corrected_errors,
        "mean_latency": stats.mean_latency,
        "final_cycle": net.now,
    }


def _make_network(
    kernel: str,
    seed: int,
    width: int,
    height: int,
    routing: str = "xy",
    fault_spec: Optional[str] = None,
    error_probability: float = 0.0,
    relax_factor: float = 0.0,
) -> Network:
    net = Network(
        MeshTopology(width, height),
        routing_fn=routing,
        rng=random.Random(seed + 1),
        routing_seed=seed,
        kernel=kernel,
    )
    if fault_spec:
        net.hard_faults = HardFaultModel(net, HardFaultSchedule.parse(fault_spec))
    if error_probability > 0.0:
        for _, model in net.channel_models():
            model.event_probability = error_probability
            model.relax_factor = relax_factor
    return net


def _inject(net: Network, rng: random.Random, message_id: int) -> int:
    """Inject one uniform-random packet; returns the next message id."""
    nodes = net.topology.num_nodes
    src = rng.randrange(nodes)
    dst = rng.randrange(nodes)
    if src == dst:
        return message_id
    net.inject(
        Packet(src, dst, _PACKET_SIZE, _FLIT_BITS, net.now, message_id=message_id)
    )
    return message_id + 1


def _drain(net: Network, limit: int = 200_000) -> None:
    deadline = net.now + limit
    while not net.quiescent and net.now < deadline:
        net.cycle()


def _drive_idle(net: Network, cycles: int, rng: random.Random) -> None:
    """Short bursts separated by long idle spans (fast-forward food)."""
    burst_every = 2_000
    end = net.now + cycles
    message_id = 0
    while net.now < end:
        for _ in range(3):
            message_id = _inject(net, rng, message_id)
        net.run(min(burst_every, end - net.now))
    _drain(net)


def _drive_saturated(net: Network, cycles: int, rng: random.Random) -> None:
    """Offered load past the knee, outstanding-bounded so memory stays flat."""
    end = net.now + cycles
    message_id = 0
    nodes = net.topology.num_nodes
    cap = 16 * nodes  # enough in flight to keep every column loaded
    while net.now < end:
        if net.stats.outstanding_messages < cap:
            for _ in range(nodes // 4):
                if rng.random() < 0.5:
                    message_id = _inject(net, rng, message_id)
        net.cycle()
    _drain(net)


def _drive_chaos(net: Network, cycles: int, rng: random.Random) -> None:
    """Moderate load while the fault campaign cuts links and routers."""
    end = net.now + cycles
    message_id = 0
    while net.now < end:
        if rng.random() < 0.1:
            message_id = _inject(net, rng, message_id)
        net.cycle()
    _drain(net)


_DRIVERS: Dict[str, Callable[[Network, int, random.Random], None]] = {
    "idle": _drive_idle,
    "saturated": _drive_saturated,
    "chaos": _drive_chaos,
    "traced": _drive_chaos,
}


def _scenario_network(name: str, kernel: str, seed: int, width: int, height: int) -> Network:
    if name == "idle":
        return _make_network(
            kernel, seed, width, height, error_probability=0.002, relax_factor=0.5
        )
    if name == "saturated":
        return _make_network(
            kernel, seed, width, height, error_probability=0.01, relax_factor=0.5
        )
    if name in ("chaos", "traced"):
        # Kill an east link early, a router mid-run, and raise error rates
        # in a burst window — adaptive routing reroutes around the holes.
        spec = "link@2000:5E;router@8000:10;burst@4000+2000:0.05"
        net = _make_network(
            kernel, seed, width, height, routing="adaptive", fault_spec=spec
        )
        if name == "traced":
            net.attach_tracer(TraceBuffer())
        return net
    raise ValueError(f"unknown scenario {name!r}; pick one of {', '.join(SCENARIOS)}")


def _result(net: Network, wall: float, digest: Dict[str, object]) -> Dict[str, object]:
    """One kernel's timing + digest + activity counters."""
    return {
        "kernel": net.kernel,
        "cycles": net.now,
        "wall_seconds": wall,
        "cycles_per_second": net.now / wall if wall > 0 else 0.0,
        "digest": digest,
        "activity": net.activity.counters(),
    }


def _sensor_ledger(sim) -> Dict[str, object]:
    """Every injected corruption, rejected observation, and quarantine."""
    return {
        "injected": dict(sim.sensors.injected),
        "rejected": int(sim.metrics.peek("sensor.rejected_observations")),
        "holds": int(sim.metrics.peek("sensor.holds")),
        "clamps": int(sim.metrics.peek("sensor.clamps")),
        "debounced": int(sim.metrics.peek("sensor.debounced_switches")),
        "quarantined": sorted(sim.obs_guard.quarantined),
    }


def _ecc_ledger(sim) -> Dict[str, object]:
    """Every injected flip and every scrub correction/detection/quarantine."""
    return {
        "injected": dict(sim.soft_errors.injected),
        "scrubs": int(sim.metrics.peek("ecc.scrubs")),
        "corrected": int(sim.metrics.peek("ecc.corrected")),
        "detected": int(sim.metrics.peek("ecc.detected")),
        "quarantined_rows": int(sim.metrics.peek("ecc.quarantined_rows")),
        "mode_votes": int(sim.metrics.peek("ecc.mode_votes")),
        "safe_mode_entries": int(sim.metrics.peek("ecc.safe_mode_entries")),
    }


#: closed-loop scenario -> (config overrides, digest key, defense ledger).
#: ``sensor``: dropout, one wedged temperature sensor, nack-rate noise,
#: and a staleness window, with mode-switch hysteresis.  ``softerror``:
#: a continuous per-bit Q-table upset rate, one mode-register flip, and
#: one multi-bit burst.
_CLOSED_LOOP: Dict[str, Tuple[Dict[str, object], str, Callable]] = {
    "sensor": (
        {
            "sensor_spec": "drop@0.2:util;stuck@r5.temp=0.9;noise@0.05:nack;stale@r2+1500:4",
            "mode_hysteresis_epochs": 2,
        },
        "sensor",
        _sensor_ledger,
    ),
    "softerror": (
        {"soft_error_spec": "qtable@2e-5;mode@r3+2000;burst@3000:4"},
        "ecc",
        _ecc_ledger,
    ),
}


def _run_closed_loop_scenario(
    name: str, kernel: str, cycles: int, seed: int, width: int, height: int
) -> Dict[str, object]:
    """Closed-loop RL control under one control-plane fault family.

    The other scenarios drive a bare :class:`Network`; sensor faults,
    SEUs and their defenses live in the epoch loop, so these build the
    full :class:`Simulator`.  ``cycles`` is the measured injection
    window; the scaled pre-train and warm-up phases run on top.  The
    digest folds in the family's whole defense ledger, so the two
    kernels must agree not only on traffic outcomes but on every
    injected fault and every defensive action.
    """
    from repro.core.rl_policy import RLControlPolicy
    from repro.sim.config import scaled_config
    from repro.sim.simulator import Simulator
    from repro.traffic import SyntheticTraffic

    overrides, digest_key, ledger = _CLOSED_LOOP[name]
    config = scaled_config(
        width=width,
        height=height,
        epoch_cycles=250,
        pretrain_cycles=min(6_000, cycles),
        warmup_cycles=1_000,
        **overrides,
    )
    policy = RLControlPolicy(share_table=True, seed=seed)
    sim = Simulator(config, policy, seed=seed, kernel=kernel)
    start = time.perf_counter()
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
    wall = time.perf_counter() - start
    digest = _digest(sim.network)
    digest[digest_key] = ledger(sim)
    digest[digest_key]["mode_switches"] = sum(r.mode_switches for r in sim.network.routers)
    return _result(sim.network, wall, digest)


def run_scenario(
    name: str,
    kernel: str,
    cycles: int,
    seed: int = 0,
    width: int = 4,
    height: int = 4,
) -> Dict[str, object]:
    """Run one scenario on one kernel; returns timing + digest + counters."""
    if name in _CLOSED_LOOP:
        return _run_closed_loop_scenario(name, kernel, cycles, seed, width, height)
    net = _scenario_network(name, kernel, seed, width, height)
    rng = random.Random(seed + 97)
    start = time.perf_counter()
    _DRIVERS[name](net, cycles, rng)
    result = _result(net, time.perf_counter() - start, _digest(net))
    if net.tracer is not None:
        result["trace"] = {
            "events": len(net.tracer),
            "dropped": net.tracer.dropped,
            "digest": net.tracer.digest(),
        }
    return result


def run_bench(
    quick: bool = False,
    seed: int = 0,
    width: int = 4,
    height: int = 4,
    scenarios: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run every scenario on both kernels; returns the BENCH payload.

    Raises ``RuntimeError`` if the two kernels disagree on any scenario's
    stats digest — a speedup measured against a wrong answer is noise —
    or (when both ``chaos`` and ``traced`` run) if attaching a tracer
    changed the chaos run's stats digest, which would mean observability
    is not behaviour-neutral.
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    payload: Dict[str, object] = {
        "version": BENCH_VERSION,
        "quick": quick,
        "seed": seed,
        "mesh": [width, height],
        "scenarios": {},
        "speedups": {},
    }
    for name in names:
        cycles = SCENARIOS[name][1 if quick else 0]
        fast = run_scenario(name, "fast", cycles, seed, width, height)
        naive = run_scenario(name, "naive", cycles, seed, width, height)
        if fast["digest"] != naive["digest"]:
            raise RuntimeError(
                f"kernel divergence in scenario {name!r}: "
                f"fast={fast['digest']} naive={naive['digest']}"
            )
        if "trace" in fast and fast["trace"]["digest"] != naive["trace"]["digest"]:
            raise RuntimeError(
                f"trace divergence in scenario {name!r}: the two kernels "
                f"emitted different event streams "
                f"(fast={fast['trace']['digest'][:16]} "
                f"naive={naive['trace']['digest'][:16]})"
            )
        speedup = (
            fast["cycles_per_second"] / naive["cycles_per_second"]
            if naive["cycles_per_second"] > 0
            else 0.0
        )
        payload["scenarios"][name] = {
            "cycles": cycles,
            "fast": fast,
            "naive": naive,
            "speedup": speedup,
        }
        payload["speedups"][name] = speedup

    rows = payload["scenarios"]
    if "chaos" in rows and "traced" in rows:
        chaos_fast, traced_fast = rows["chaos"]["fast"], rows["traced"]["fast"]
        if chaos_fast["digest"] != traced_fast["digest"]:
            raise RuntimeError(
                "observability overhead check failed: the traced scenario's "
                f"stats digest {traced_fast['digest']} differs from the "
                f"untraced chaos run's {chaos_fast['digest']} — tracing "
                "must not perturb simulation behaviour"
            )
        # Wall-clock cost of event capture (>= ~1.0; timing-noisy, so it
        # is reported rather than gated — the digest equality above is
        # the hard contract).
        payload["trace_overhead"] = (
            chaos_fast["cycles_per_second"] / traced_fast["cycles_per_second"]
            if traced_fast["cycles_per_second"] > 0
            else 0.0
        )
    return payload


def check_regression(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 0.25,
) -> List[str]:
    """Compare speedup ratios against a committed baseline.

    Returns human-readable failure strings (empty = pass).  Ratios, not
    absolute cycles/second, so a slower CI machine does not fail the
    check — only a change that erodes the fast kernel's relative
    advantage does.
    """
    failures = []
    base_speedups = baseline.get("speedups", {})
    for name, current_speedup in current.get("speedups", {}).items():
        base = base_speedups.get(name)
        if base is None or base <= 0:
            continue
        floor = base * (1.0 - threshold)
        if current_speedup < floor:
            failures.append(
                f"{name}: speedup {current_speedup:.2f}x fell below "
                f"{floor:.2f}x ({(1 - threshold) * 100:.0f}% of baseline {base:.2f}x)"
            )
    return failures


def check_digests(
    current: Dict[str, object],
    trajectory: Dict[str, object],
) -> List[str]:
    """Compare per-scenario stats digests against baseline entries.

    Scans every trajectory entry recorded at the same measurement point
    (``quick`` scale, seed, mesh) and fails if any scenario present in
    both runs produced a different stats digest at the same cycle count.
    Digests are pure simulation results — unlike cycles/second they are
    machine-independent, so any drift means the simulation's behaviour
    changed, not that the hardware did.

    Returns human-readable failure strings (empty = pass, including the
    vacuous pass when no entry matches the measurement point).
    """
    failures: List[str] = []
    point = (current.get("quick"), current.get("seed"), current.get("mesh"))
    for entry in trajectory.get("entries", []):
        if (entry.get("quick"), entry.get("seed"), entry.get("mesh")) != point:
            continue
        base_rows = entry.get("scenarios") or {}
        for name, row in (current.get("scenarios") or {}).items():
            base_row = base_rows.get(name)
            if base_row is None or base_row.get("cycles") != row.get("cycles"):
                continue
            base_digest = (base_row.get("fast") or {}).get("digest")
            digest = (row.get("fast") or {}).get("digest")
            if base_digest and digest != base_digest:
                label = entry.get("label", "(unlabelled)")
                failures.append(
                    f"{name}: stats digest drifted from baseline {label!r}: "
                    f"now {digest} was {base_digest}"
                )
    return failures


def format_report(payload: Dict[str, object]) -> str:
    """Fixed-width text table of the bench payload."""
    lines = [
        f"{'scenario':>10s} {'cycles':>9s} {'fast c/s':>12s} "
        f"{'naive c/s':>12s} {'speedup':>8s}"
    ]
    for name, row in payload["scenarios"].items():
        lines.append(
            f"{name:>10s} {row['cycles']:>9d} "
            f"{row['fast']['cycles_per_second']:>12.0f} "
            f"{row['naive']['cycles_per_second']:>12.0f} "
            f"{row['speedup']:>7.2f}x"
        )
        trace = row["fast"].get("trace")
        if trace is not None:
            lines.append(
                f"{'':>10s} tracing captured {trace['events']} event(s), "
                f"{trace['dropped']} dropped"
            )
    overhead = payload.get("trace_overhead")
    if overhead:
        lines.append(f"trace overhead (chaos vs traced, fast kernel): {overhead:.2f}x")
    return "\n".join(lines)
