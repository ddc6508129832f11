"""Acceptance tests for the hard-fault / graceful-degradation subsystem.

These encode the ISSUE's acceptance scenarios end to end:

* a 4x4 mesh with one non-boundary link killed mid-run — adaptive
  routing delivers >= 95% of packets with no watchdog trip, while XY
  reports the loss through conservation accounting (counted drops)
  instead of wedging buffers;
* a two-link cut that isolates a node is reported through counted
  unreachable drops, with every message accounted for;
* identical seeds and fault schedules produce identical chaos results
  whether points run serially or through the process pool.
"""

import dataclasses

from repro.sim import SweepRunner, SweepSpec, scaled_config
from repro.sim.sweep import SweepPoint, run_sweep_point

# Channel 5 -> 6 sits in the interior of the 4x4 mesh: both endpoints
# keep full degree, so the mesh stays connected after the kill.
MIDRUN_LINK_KILL = "link@500:5E"


def _config(**overrides):
    return scaled_config(width=4, height=4, **overrides)


def _chaos_point(routing, fault_spec, seed=0, cycles=2_000, rate=0.1):
    return SweepPoint(
        config=_config(fault_spec=fault_spec),
        kind="chaos",
        design=routing,
        traffic="uniform",
        seed=seed,
        cycles=cycles,
        rate=rate,
    )


def _conserved(chaos):
    return (
        chaos["messages_created"]
        == chaos["packets_delivered"] + chaos["messages_dropped"] + chaos["outstanding"]
    )


class TestMidRunLinkKill:
    def test_adaptive_delivers_95_percent(self):
        payload = run_sweep_point(_chaos_point("adaptive", MIDRUN_LINK_KILL))
        chaos = payload["ledger"]
        assert chaos["diagnosis"] is None, chaos["diagnosis"]
        assert chaos["link_kills"] == 1
        assert chaos["messages_created"] > 100
        assert chaos["delivered_fraction"] >= 0.95
        assert chaos["outstanding"] == 0
        assert _conserved(chaos)

    def test_xy_reports_loss_through_accounting(self):
        payload = run_sweep_point(_chaos_point("xy", MIDRUN_LINK_KILL))
        chaos = payload["ledger"]
        # XY cannot route around the dead column crossing: packets that
        # need 5->E are dropped with accounting, not wedged in buffers.
        assert chaos["diagnosis"] is None, chaos["diagnosis"]
        assert chaos["messages_dropped"] > 0
        assert chaos["outstanding"] == 0
        assert _conserved(chaos)
        assert chaos["delivered_fraction"] < 1.0


class TestIsolatingCut:
    # Corner node 0 receives only through 1->W and 4->S; cutting both
    # makes it unreachable as a destination while the rest of the mesh
    # keeps running.
    CUT = "link@64:1W;link@64:4S"

    def test_chaos_evaluator_counts_unreachable_drops(self):
        payload = run_sweep_point(_chaos_point("adaptive", self.CUT, cycles=1_500))
        chaos = payload["ledger"]
        assert chaos["diagnosis"] is None
        assert chaos["unreachable_drops"] > 0
        assert chaos["outstanding"] == 0
        assert _conserved(chaos)


class TestDeterminism:
    SPECS = ("", MIDRUN_LINK_KILL)

    def _strip(self, payload):
        payload = dict(payload)
        payload.pop("elapsed", None)
        return payload

    def test_point_results_reproducible(self):
        for spec in self.SPECS:
            point = _chaos_point("adaptive", spec, cycles=1_000)
            first = self._strip(run_sweep_point(point))
            second = self._strip(run_sweep_point(point))
            assert first == second

    def test_serial_and_pooled_runs_agree(self, tmp_path):
        points = [
            point
            for fault_spec in self.SPECS
            for point in SweepSpec(
                config=_config(fault_spec=fault_spec),
                kind="chaos",
                designs=("xy", "adaptive"),
                traffics=("uniform",),
                seeds=(0,),
                rates=(0.1,),
                cycles=800,
            ).expand()
        ]
        serial = SweepRunner(points, jobs=1, use_cache=False).run()
        pooled = SweepRunner(points, jobs=2, use_cache=False).run()
        assert [dataclasses.replace(r, elapsed=0.0) for r in serial] == [
            dataclasses.replace(r, elapsed=0.0) for r in pooled
        ]
