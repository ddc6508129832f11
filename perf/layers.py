"""Per-layer self-time attribution, installed from outside the program.

The layer table below is data: each layer names the entry points
("module:Qualified.name") whose calls it owns.  :class:`LayerClock`
replaces every target with a timing wrapper for the lifetime of a
``with clock.installed(LAYERS):`` block and restores the originals on
exit.  A layer's *self time* is its calls' wall time minus the time spent
in wrapped calls nested inside them, so the self times of one window plus
its unattributed remainder add up to the window's wall time exactly.

No file under ``src/`` knows about this module: a target that moves or
disappears is reported as missing with a one-line warning and skipped.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: (layer, targets).  Functions imported by name into another module are
#: patched where the caller looks them up (e.g. ``observe_router`` as
#: bound in ``repro.sim.simulator``).
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("noc.cycle", ("repro.noc.network:Network.cycle",)),
    ("noc.router.step", ("repro.noc.router:Router.step",)),
    ("noc.router.receive", (
        "repro.noc.router:Router.receive_transmissions",
        "repro.noc.router:Router.receive_credit",
        "repro.noc.router:Router.receive_ack",
    )),
    ("noc.ni.inject", ("repro.noc.interface:NetworkInterface.step_inject",)),
    ("noc.ni.eject", ("repro.noc.interface:NetworkInterface.step_eject",)),
    ("noc.watchdog", ("repro.noc.watchdog:NetworkWatchdog.check",)),
    ("noc.harvest", (
        "repro.noc.network:Network.harvest_epoch_counters",
        "repro.noc.network:Network.reset_epoch_counters",
    )),
    ("traffic.source", (
        "repro.traffic.trace:TraceReplayer.packets_for_cycle",
        "repro.traffic.synthetic:SyntheticTraffic.packets_for_cycle",
    )),
    ("traffic.inject", ("repro.noc.network:Network.inject",)),
    ("traffic.synthesize", ("repro.traffic.parsec:ParsecTraceSynthesizer.synthesize",)),
    ("faults.hardfaults", ("repro.faults.hardfaults:HardFaultModel.tick",)),
    ("faults.thermal", ("repro.faults.thermal:ThermalGrid.step",)),
    ("faults.injector", ("repro.faults.injector:FaultInjector.refresh",)),
    ("faults.sensors", ("repro.faults.sensors:SensorFaultModel.corrupt",)),
    ("faults.softerrors", ("repro.faults.softerrors:SoftErrorModel.inject",)),
    ("power.energy", ("repro.power.orion:RouterPowerModel.epoch_energy",)),
    ("core.observe", ("repro.sim.simulator:observe_router",)),
    ("core.guard", ("repro.core.controller:ObservationGuard.inspect",)),
    ("core.select", (
        "repro.core.rl_policy:RLControlPolicy.select",
        "repro.baselines.decision_tree:DecisionTreePolicy.select",
        "repro.baselines.static:StaticPolicy.select",
    )),
    ("core.learn", (
        "repro.core.rl_policy:RLControlPolicy.learn",
        "repro.baselines.decision_tree:DecisionTreePolicy.learn",
        "repro.core.controller:ControlPolicy.learn",
    )),
    ("core.scrub", ("repro.core.qlearning:QTableStorage.scrub",)),
    ("obs.metrics", (
        "repro.obs.metrics:MetricRegistry.snapshot_epoch",
        "repro.obs.metrics:MetricRegistry.ingest",
    )),
    # The one private target: the only entry into the control epoch.
    ("sim.epoch", ("repro.sim.simulator:Simulator._epoch_boundary",)),
    ("sim.pretrain", ("repro.sim.simulator:Simulator.pretrain",)),
    ("sim.warmup", ("repro.sim.simulator:Simulator.warmup",)),
    ("sim.measure", ("repro.sim.simulator:Simulator.measure_trace",)),
    ("campaign.pretrain", ("repro.sim.campaign:pretrain_policy",)),
    ("campaign.artifact_io", (
        "repro.sim.campaign:save_policy_artifact",
        "repro.sim.campaign:read_policy_artifact_meta",
        "repro.sim.sweep:load_policy_artifact",
    )),
    ("sweep.cell", ("repro.sim.sweep:run_sweep_point",)),
    ("sweep.cache_io", (
        "repro.sim.sweep:SweepCache.load",
        "repro.sim.sweep:SweepCache.store",
    )),
    ("baselines.cart", ("repro.baselines.cart:RegressionTree.fit",)),
    ("report", (
        "repro.sim.report:campaign_report",
        "repro.sim.report:render_report_markdown",
    )),
)

#: Layer groups whose summed self time is reported as ``group.<name>.share``:
#: the network kernel, and everything done at the control-epoch boundary.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "noc": tuple(name for name, _ in LAYERS if name.startswith("noc.")),
    "epoch": (
        "sim.epoch", "core.observe", "core.guard", "core.select", "core.learn",
        "core.scrub", "faults.thermal", "faults.injector", "faults.sensors",
        "faults.softerrors", "power.energy", "obs.metrics", "noc.harvest",
    ),
}

#: Layers whose per-call inclusive times are kept as samples.
SAMPLED = ("sim.epoch",)

_MISSING = object()


def resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute, raw value)`` for a ``module:Qual.name`` target.

    Raises ``LookupError`` with a one-line reason when the module, owner
    or attribute is gone, or the attribute is not a plain function.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"cannot import {module_name}: {exc}") from None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            raise LookupError(f"{module_name} has no {part}")
    if inspect.isclass(owner):
        raw = next(
            (klass.__dict__[attribute] for klass in owner.__mro__
             if attribute in klass.__dict__),
            _MISSING,
        )
    else:
        raw = getattr(owner, attribute, _MISSING)
    if raw is _MISSING:
        raise LookupError(f"{qualname} not found in {module_name}")
    if not inspect.isfunction(raw):
        raise LookupError(f"{qualname} is not a plain function")
    return owner, attribute, raw


class LayerClock:
    """Accumulates per-layer calls and self time from wrapped entry points.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.samples_ns: Dict[str, List[int]] = defaultdict(list)
        #: targets that could not be wrapped, as "target: reason" lines
        self.missing: List[str] = []
        #: one [child_ns] cell per wrapped call in progress
        self._stack: List[List[int]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = self.clock
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        samples = self.samples_ns[layer] if layer in SAMPLED else None

        def timed(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[layer] += 1
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        timed.__wrapped__ = fn
        return timed

    @contextlib.contextmanager
    def installed(
        self, layers: Sequence[Tuple[str, Sequence[str]]] = LAYERS
    ) -> Iterator["LayerClock"]:
        """Wrap every resolvable target; restore all of them on exit."""
        restore: List[Tuple[object, str, object]] = []
        try:
            for layer, targets in layers:
                for target in targets:
                    try:
                        owner, attribute, raw = resolve(target)
                    except LookupError as exc:
                        self.missing.append(f"{layer} -> {target}: {exc}")
                        continue
                    restore.append(
                        (owner, attribute, vars(owner).get(attribute, _MISSING))
                    )
                    setattr(owner, attribute, self.wrap(layer, raw))
            yield self
        finally:
            for owner, attribute, previous in reversed(restore):
                if previous is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, previous)

    def take(self) -> Dict[str, object]:
        """Return and reset everything accumulated since the last take."""
        window = {
            "calls": dict(self.calls),
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "samples_s": {
                name: [ns / 1e9 for ns in values]
                for name, values in self.samples_ns.items()
            },
        }
        self.calls.clear()
        self.self_ns.clear()
        for values in self.samples_ns.values():
            values.clear()
        return window
