"""The degradation paths: watchdog trips, guard quarantines, ECC
escalation, a resumed poisoned table and pinned routers during the
pre-training curriculum.

A degraded router runs in mode 3 (timing relaxation) from the epoch it
degrades until the run ends, whatever the policy or the curriculum asks
for.  These tests drive each path on a 3x3 mesh and watch the modes the
select stage hands to ``Network.set_mode``, the one WARNING line and the
one ``mode/degrade`` event each degraded router gives, and the count
``RunResult.safe_mode_entries`` reads off the ledger.
"""

import logging
import math
import re

import pytest

from repro.baselines import crc_policy
from repro.cli import main
from repro.core.modes import OperationMode
from repro.core.qlearning import QTableStorage
from repro.core.rl_policy import RLControlPolicy
from repro.noc.watchdog import ConservationError, DeadlockError
from repro.obs import TraceBuffer, write_trace_jsonl
from repro.sim import Simulator, scaled_config, synthesize_benchmark_trace
from repro.sim.checkpoint import ResumableRun, load_checkpoint, save_checkpoint
from repro.sim.simulator import MAX_SAFE_MODE_TRIPS
from repro.traffic import TraceRecord

STUCK_ROUTER = 3
#: Q-table upsets heavy enough that some per-router tables pass
#: QUARANTINE_LIMIT during pre-training
SOFT_ERRORS = "qtable@2e-3"


def mesh_config(**overrides):
    """A 3x3 mesh whose 3000-cycle pre-training gives every curriculum
    segment at least one epoch boundary."""
    return scaled_config(
        width=3, height=3, epoch_cycles=100, pretrain_cycles=3000,
        warmup_cycles=0, **overrides,
    )


def record_set_mode(sim):
    """Log every ``(cycle, router, mode)`` handed to ``Network.set_mode``."""
    calls = []
    real = sim.network.set_mode

    def set_mode(router_id, mode):
        calls.append((sim.network.now, router_id, int(mode)))
        real(router_id, mode)

    sim.network.set_mode = set_mode
    return calls


def trip_when(sim, when, error=DeadlockError, routers=(STUCK_ROUTER,)):
    """After each real cycle for which ``when(cycle)`` holds, raise a
    watchdog error that names ``routers``."""
    real = sim.network.cycle

    def cycle():
        real()
        if when(sim.network.now):
            raise error("stuck", {"stuck": [{"router": r} for r in routers]})

    sim.network.cycle = cycle


def long_trace(n=200):
    return [TraceRecord(i * 3, i % 9, (i + 4) % 9, 4) for i in range(n)]


def assert_one_warning_per_router(caplog, degraded):
    """The WARNING lines logged are one line per router of the
    ``degraded`` ledger, and nothing else."""
    lines = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(lines) == len(degraded), lines
    routers = [re.match(r"router (\d+) degraded to mode 3 at cycle \d+: ", line) for line in lines]
    assert None not in routers, lines
    assert sorted(int(match.group(1)) for match in routers) == sorted(degraded)


class TestWatchdogTrip:
    TRIP_CYCLE = 150

    def test_trip_pins_the_router_for_the_rest_of_the_run(self):
        sim = Simulator(mesh_config(), crc_policy(), seed=2)
        calls = record_set_mode(sim)
        trip_when(sim, lambda now: now == self.TRIP_CYCLE)
        result = sim.measure_trace(long_trace(), "tiny")

        assert result.safe_mode_entries == 1
        later = [(now, mode) for now, rid, mode in calls
                 if rid == STUCK_ROUTER and now >= self.TRIP_CYCLE]
        assert {mode for _, mode in later} == {int(OperationMode.MODE_3)}
        epoch = sim.config.epoch_cycles
        epochs = {now for now, _ in later if now % epoch == 0}
        first = -(-self.TRIP_CYCLE // epoch) * epoch
        assert epochs == set(range(first, sim.network.now + 1, epoch))
        # The static design keeps every other router in its own mode.
        others = {mode for _, rid, mode in calls if rid != STUCK_ROUTER}
        assert others == {int(OperationMode.MODE_0)}

    def test_trip_past_the_cap_propagates(self):
        sim = Simulator(mesh_config(), crc_policy(), seed=2)
        trip_when(sim, lambda now: now >= 10)
        with pytest.raises(DeadlockError):
            sim.measure_trace(long_trace(), "tiny")
        assert sim.network.now == 10 + MAX_SAFE_MODE_TRIPS
        assert sim.metrics.peek("watchdog.handled_trips") == MAX_SAFE_MODE_TRIPS

    def test_conservation_error_propagates_at_once(self):
        sim = Simulator(mesh_config(), crc_policy(), seed=2)
        trip_when(sim, lambda now: now == 50, error=ConservationError)
        with pytest.raises(ConservationError):
            sim.measure_trace(long_trace(), "tiny")
        assert sim.network.now == 50
        assert sim.metrics.peek("watchdog.handled_trips") == 0

    def test_a_trip_naming_two_routers_counts_both(self):
        sim = Simulator(mesh_config(), crc_policy(), seed=2)
        trip_when(sim, lambda now: now == self.TRIP_CYCLE, routers=(STUCK_ROUTER, 5))
        result = sim.measure_trace(long_trace(), "tiny")
        assert result.safe_mode_entries == 2
        assert sorted(sim.degraded) == [STUCK_ROUTER, 5]
        assert sim.metrics.peek("watchdog.handled_trips") == 1


@pytest.fixture
def quarantine_after_two(monkeypatch):
    """Degrade a router after two consecutive rejected observations."""
    monkeypatch.setattr("repro.sim.simulator.SENSOR_QUARANTINE_K", 2)


class TestGuardQuarantine:
    def test_quarantined_static_router_is_pinned_without_debounce(
        self, quarantine_after_two
    ):
        """Every reading lost: the simulator quarantines each router after
        ``SENSOR_QUARANTINE_K`` epochs.  The static design keeps asking
        for mode 0, so right after the pin the debounce would hold the
        router back if the pin were not exempt from it."""
        config = mesh_config(
            sensor_spec="drop@1.0:all", mode_hysteresis_epochs=3,
        )
        sim = Simulator(config, crc_policy(), seed=2)
        calls = record_set_mode(sim)
        result = sim.measure_trace(long_trace(), "tiny")

        assert result.safe_mode_entries == 9
        assert sim.metrics.peek("sensor.debounced_switches") == 0
        epoch = config.epoch_cycles
        # Quarantined at the second epoch's observe stage, pinned by its
        # select stage and held in mode 3 from then on.
        assert {mode for now, _, mode in calls if now < 2 * epoch} == {0}
        assert {mode for now, _, mode in calls if now >= 2 * epoch} == {3}


def over_limit(policy):
    """Routers whose Q storage lost at least QUARANTINE_LIMIT rows."""
    return {
        index
        for index, storage in enumerate(policy.q_storages())
        if storage.quarantined_rows >= QTableStorage.QUARANTINE_LIMIT
    }


class TestEccEscalation:
    def test_every_router_over_the_limit_is_pinned_once(self):
        policy = RLControlPolicy(share_table=False, seed=0)
        sim = Simulator(mesh_config(soft_error_spec=SOFT_ERRORS), policy, seed=0)
        sim.pretrain()
        escalated = over_limit(policy)
        assert len(escalated) == 5
        assert set(sim.degraded) == escalated
        assert all(
            cause == "ecc" and reason.startswith("ECC quarantine: ")
            for cause, reason in sim.degraded.values()
        )

    def test_trace_summary_counts_ecc_escalations(self, tmp_path, capsys):
        config = mesh_config(soft_error_spec=SOFT_ERRORS)
        policy = RLControlPolicy(share_table=False, seed=0)
        tracer = TraceBuffer()
        sim = Simulator(config, policy, seed=0, tracer=tracer)
        sim.pretrain()
        policy.freeze()
        records = synthesize_benchmark_trace("blackscholes", config, 100, 0)
        result = sim.measure_trace(records, "blackscholes")
        assert tracer.dropped == 0
        degrades = [ev for ev in tracer if (ev.category, ev.kind) == ("mode", "degrade")]
        assert {ev.data["cause"] for ev in degrades} == {"ecc"}
        escalated = [ev.subject for ev in degrades]
        assert sorted(escalated) == sorted(sim.degraded) == sorted(over_limit(policy))

        trace_file = tmp_path / "ecc.jsonl"
        write_trace_jsonl(tracer, str(trace_file))
        assert main(["trace", str(trace_file)]) == 0
        summary = capsys.readouterr().out
        count = re.search(r"degradation: (\d+) safe-mode entr", summary)
        assert count is not None
        assert int(count.group(1)) == result.safe_mode_entries == len(escalated)


class TestCurriculum:
    PINNED = 4

    def _pinned_sim(self, tracer=None):
        policy = RLControlPolicy(share_table=True, seed=0)
        sim = Simulator(mesh_config(), policy, seed=0, tracer=tracer)
        sim.degrade(self.PINNED, "checkpoint", "pinned before pre-training")
        return sim

    def test_ledger_keeps_the_first_reason(self, caplog):
        tracer = TraceBuffer()
        with caplog.at_level(logging.WARNING):
            sim = self._pinned_sim(tracer)
            sim.degrade(self.PINNED, "watchdog", "watchdog trip")
            sim.degrade(STUCK_ROUTER, "watchdog", "watchdog trip")
        expected = {
            self.PINNED: ("checkpoint", "pinned before pre-training"),
            STUCK_ROUTER: ("watchdog", "watchdog trip"),
        }
        assert sim.degraded == expected
        assert_one_warning_per_router(caplog, sim.degraded)
        assert [(ev.category, ev.kind, ev.subject, ev.data) for ev in tracer] == [
            ("mode", "degrade", self.PINNED, {"cause": "checkpoint"}),
            ("mode", "degrade", STUCK_ROUTER, {"cause": "watchdog"}),
        ]

    def test_curriculum_keeps_a_pinned_router_in_mode_3(self):
        sim = self._pinned_sim()
        calls = record_set_mode(sim)
        sim.pretrain()
        pinned = [mode for _, rid, mode in calls if rid == self.PINNED]
        # One select stage per epoch, forced-mode segments included.
        assert len(pinned) == sim.network.now // sim.config.epoch_cycles
        assert set(pinned) == {int(OperationMode.MODE_3)}
        # The curriculum did force every mode onto the other routers.
        others = {mode for _, rid, mode in calls if rid != self.PINNED}
        assert others == {int(mode) for mode in OperationMode}

    def test_policy_never_sees_a_pinned_router(self):
        """The learn and select stages skip a degraded router: the policy
        neither trains on it nor chooses its mode."""
        sim = self._pinned_sim()
        seen = {"select": set(), "learn": set()}
        for name, routers in seen.items():
            real = getattr(sim.policy, name)

            def spy(router_id, *args, _real=real, _routers=routers):
                _routers.add(router_id)
                return _real(router_id, *args)

            setattr(sim.policy, name, spy)
        sim.pretrain()
        others = set(range(sim.network.topology.num_nodes)) - {self.PINNED}
        assert seen["select"] == others
        assert seen["learn"] == others


class TestOneWarningPerDegradedRouter:
    """Every path into the ledger logs exactly one line per router it
    adds, and nothing else."""

    def test_watchdog_trip(self, caplog):
        sim = Simulator(mesh_config(), RLControlPolicy(seed=0), seed=2)
        trip_when(sim, lambda now: now == 150)
        with caplog.at_level(logging.WARNING):
            sim.measure_trace(long_trace(), "tiny")
        assert list(sim.degraded) == [STUCK_ROUTER]
        assert_one_warning_per_router(caplog, sim.degraded)

    def test_guard_quarantine(self, caplog, quarantine_after_two):
        config = mesh_config(sensor_spec="drop@1.0:all")
        sim = Simulator(config, RLControlPolicy(seed=0), seed=2)
        with caplog.at_level(logging.WARNING):
            sim.measure_trace(long_trace(), "tiny")
        assert len(sim.degraded) == 9
        assert_one_warning_per_router(caplog, sim.degraded)

    def test_ecc_escalation(self, caplog):
        policy = RLControlPolicy(share_table=False, seed=0)
        sim = Simulator(mesh_config(soft_error_spec=SOFT_ERRORS), policy, seed=0)
        with caplog.at_level(logging.WARNING):
            sim.pretrain()
        assert len(sim.degraded) == 5
        assert_one_warning_per_router(caplog, sim.degraded)

    def test_resume_of_a_poisoned_table(self, caplog, tmp_path):
        config = scaled_config(
            width=3, height=3, epoch_cycles=100, pretrain_cycles=0, warmup_cycles=200,
        )
        path = tmp_path / "run.ckpt"
        run = ResumableRun(config, "rl", "swaptions", trace_cycles=300, checkpoint_path=path)
        run.save()
        payload, meta = load_checkpoint(path)
        payload["sim"].policy._agent(0)._row((0,) * 5)[0] = math.nan
        save_checkpoint(path, payload, meta)
        with caplog.at_level(logging.WARNING):
            resumed = ResumableRun.resume(path)
        assert len(resumed.sim.degraded) == 9
        assert_one_warning_per_router(caplog, resumed.sim.degraded)


class TestOneCount:
    """``RunResult.safe_mode_entries`` is the size of the ledger, and a
    trace from the run's start holds one ``mode/degrade`` event for each
    of its routers, whatever path degraded it and however often."""

    def test_a_router_degraded_twice_counts_once(
        self, quarantine_after_two, tmp_path, capsys
    ):
        """The watchdog degrades router 3 at cycle 50; two epochs of lost
        readings later the sensor rule reaches every router, router 3
        included."""
        config = mesh_config(sensor_spec="drop@1.0:all")
        tracer = TraceBuffer()
        sim = Simulator(config, crc_policy(), seed=2, tracer=tracer)
        trip_when(sim, lambda now: now == 50)
        result = sim.measure_trace(long_trace(), "tiny")

        assert result.safe_mode_entries == len(sim.degraded) == 9
        assert sim.degraded[STUCK_ROUTER][0] == "watchdog"
        assert {cause for cause, _ in sim.degraded.values()} == {"watchdog", "sensor"}
        degrades = [ev for ev in tracer if (ev.category, ev.kind) == ("mode", "degrade")]
        assert sorted(ev.subject for ev in degrades) == list(range(9))
        assert {ev.subject: ev.data["cause"] for ev in degrades} == {
            router: cause for router, (cause, _) in sim.degraded.items()
        }

        trace_file = tmp_path / "degraded.jsonl"
        write_trace_jsonl(tracer, str(trace_file))
        assert main(["trace", str(trace_file)]) == 0
        assert "degradation: 9 safe-mode entries" in capsys.readouterr().out
