"""Golden-trace regression tests.

A fixed-seed run must emit a byte-identical event stream forever: the
digests hard-coded here pin the exact traces of three reference runs
(healthy XY, adaptive chaos, and a full RL simulation under a fault
campaign).  If a code change alters any digest, either the change broke
run determinism or it deliberately changed the observable event stream —
in which case the constants are updated in the same commit, making trace
changes reviewable.

The same runs double as kernel-equivalence checks (fast and naive must
emit identical streams, not just identical stats) and as the
checkpoint/resume contract: a resumed run's trace digests identically to
the uninterrupted run because the ``checkpoint`` category is excluded
from the canonical digest.
"""

import random
import shutil

import pytest

from repro.faults.hardfaults import HardFaultModel, parse_fault_spec
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology
from repro.obs import TraceBuffer, trace_digest
from repro.sim import ResumableRun, read_checkpoint_meta, scaled_config

CHAOS_SPEC = "link@300:1E;router@700:5;burst@500+200:0.1"

# sha256 of the canonical JSONL stream (checkpoint category excluded).
GOLDEN_XY = "38f70261953925cac4f3aa217f85600ba82f10869eff92d1597726e254244c0f"
GOLDEN_CHAOS = "bf8f49390b4c5bda5585601d431114eb3627c6076a95bcd3482d912df0fd10e9"
# GOLDEN_SIM moved when benchmark trace seeding switched to the full
# 32-bit crc32 mix (the old `% 1000` fold let distinct benchmark names
# collide onto identical traces): the reference run's synthesized
# swaptions trace — and therefore its event stream — changed.
GOLDEN_SIM = "5d942d131e3c7ca72d28f195dedb1809f42072d4a6d72c363603f655a35d12fb"


def _build(kernel, seed, routing, fault_spec=None):
    net = Network(
        MeshTopology(4, 4),
        routing=routing,
        rng=random.Random(seed + 1),
    )
    net.kernel = kernel
    if fault_spec:
        net.hard_faults = HardFaultModel(net, parse_fault_spec(fault_spec))
    for _, model in net.channel_models():
        model.event_probability = 0.01
        model.relax_factor = 0.5
    net.attach_tracer(TraceBuffer())
    return net


def _drive(net, seed, cycles=1_200, rate=0.15):
    rng = random.Random(seed + 7)
    nodes = net.topology.num_nodes
    end = net.now + cycles
    while net.now < end:
        if rng.random() < rate:
            src, dst = rng.randrange(nodes), rng.randrange(nodes)
            if src != dst:
                net.inject(Packet(src, dst, 4, 128, net.now))
        net.cycle()
    deadline = net.now + 50_000
    while not net.quiescent and net.now < deadline:
        net.cycle()
    return net.tracer


class TestNetworkGoldenTraces:
    @pytest.mark.parametrize("kernel", ["fast", "naive"])
    def test_healthy_xy_trace_digest(self, kernel):
        tracer = _drive(_build(kernel, 11, "xy"), 11)
        assert tracer.digest() == GOLDEN_XY

    @pytest.mark.parametrize("kernel", ["fast", "naive"])
    def test_adaptive_chaos_trace_digest(self, kernel):
        tracer = _drive(_build(kernel, 23, "adaptive", CHAOS_SPEC), 23)
        assert tracer.digest() == GOLDEN_CHAOS

    def test_chaos_trace_contains_required_event_families(self):
        tracer = _drive(_build("fast", 23, "adaptive", CHAOS_SPEC), 23)
        kinds = {f"{ev.category}/{ev.kind}" for ev in tracer}
        assert "fault/campaign_event" in kinds
        assert "fault/link_kill" in kinds
        assert "fault/router_kill" in kinds
        assert "watchdog/check" in kinds
        assert tracer.dropped == 0

    def test_rerun_in_same_process_is_stable(self):
        first = _drive(_build("fast", 23, "adaptive", CHAOS_SPEC), 23)
        second = _drive(_build("fast", 23, "adaptive", CHAOS_SPEC), 23)
        assert first.digest() == second.digest()


def _sim_config():
    return scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=1_500,
        warmup_cycles=300, fault_spec="link@600:1E;router@1200:4",
    )


def _traced_run(tmp_path=None, checkpoint_every=0):
    kwargs = {}
    if tmp_path is not None:
        kwargs = {
            "checkpoint_path": tmp_path / "run.ckpt",
            "checkpoint_every": checkpoint_every,
        }
    run = ResumableRun(_sim_config(), "rl", "swaptions", trace_cycles=300, **kwargs)
    run.sim.attach_tracer(TraceBuffer())
    return run


class TestSimulatorGoldenTrace:
    def test_rl_fault_campaign_trace_digest(self):
        run = _traced_run()
        result = run.run()
        tracer = run.sim.tracer
        categories = {ev.category for ev in tracer}
        # the acceptance-criteria families: mode transitions, RL
        # decisions, hard faults, and watchdog heartbeats all present
        assert {"mode", "rl", "fault", "watchdog"} <= categories
        assert tracer.digest() == GOLDEN_SIM
        assert result.packets_delivered > 0

    def test_resumed_run_digests_identically(self, tmp_path):
        baseline = _traced_run()
        baseline_result = baseline.run()
        golden = baseline.sim.tracer.digest()
        assert golden == GOLDEN_SIM

        run = _traced_run(tmp_path, checkpoint_every=90)
        copies = []
        original_save = run.save

        def keep(path=None):
            saved = original_save(path)
            copy = tmp_path / f"{run.sim.network.now}.snap"
            if not copy.exists():
                shutil.copy(saved, copy)
                copies.append(copy)
            return saved

        run.save = keep
        assert run.run() == baseline_result
        # checkpoint save markers are digest-excluded, so the
        # checkpointed-but-uninterrupted run still matches
        assert run.sim.tracer.digest() == golden
        assert any(
            ev.category == "checkpoint" and ev.kind == "save"
            for ev in run.sim.tracer
        )

        unfinished = [c for c in copies if not read_checkpoint_meta(c)["finished"]]
        assert unfinished, "plan must checkpoint mid-run"
        snap = unfinished[len(unfinished) // 2]
        resumed = ResumableRun.resume(
            snap, checkpoint_path=tmp_path / "scratch.ckpt", checkpoint_every=0
        )
        assert resumed.sim.tracer is not None, "tracer must survive the snapshot"
        assert resumed.run() == baseline_result
        assert resumed.sim.tracer.digest() == golden
        assert any(
            ev.category == "checkpoint" and ev.kind == "restore"
            for ev in resumed.sim.tracer
        )

    def test_trace_filter_does_not_perturb_the_run(self):
        full = _traced_run()
        full_result = full.run()

        run = ResumableRun(_sim_config(), "rl", "swaptions", trace_cycles=300)
        run.sim.attach_tracer(TraceBuffer(categories=["mode", "fault"]))
        assert run.run() == full_result
        tracer = run.sim.tracer
        assert {ev.category for ev in tracer} <= {"mode", "fault"}
        assert tracer.filtered > 0
        # the filtered stream is the full stream restricted to the
        # selected categories
        wanted = full.sim.tracer.events(["mode", "fault"])
        assert trace_digest(tracer.events(), exclude=()) == trace_digest(
            wanted, exclude=()
        )
