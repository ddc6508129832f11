"""Hard-fault campaigns: permanent kills and transient bursts on a schedule.

The soft-error substrate (:mod:`repro.faults.varius`) models *parametric*
degradation — timing-error probabilities that rise with temperature.  This
module models the *catastrophic* end of the fault spectrum the
fault-tolerant NoC literature evaluates against: links and routers that
die outright, plus transient error bursts (particle strikes, voltage
droops) that temporarily inflate every channel's error probability.

A campaign is a list of :class:`HardFaultEvent` parsed from a spec
string (:func:`parse_fault_spec`) and applied to a live network by
:class:`HardFaultModel`.  Three properties matter for the sweep harness:

* **Determinism** — events are pure values, sorted into a canonical
  order (cycle first) that is the order the model applies them in.
  Identical (config, spec) pairs therefore produce identical results in
  any process, which the on-disk sweep cache depends on.
* **Idempotence** — killing a dead link/router is a no-op, so schedules
  with overlapping events (a router kill implies its link kills) apply
  cleanly.
* **Observability** — the model records what it applied and snapshots the
  latency accumulator at the first fault so post-fault latency can be
  separated from the healthy baseline.

Spec grammar (one event per ``;``-separated clause)::

    link@<cycle>:<node><PORT>     e.g. link@500:5E   (kill 5 -> EAST at 500)
    router@<cycle>:<node>         e.g. router@800:7
    burst@<cycle>+<duration>:<p>  e.g. burst@300+200:0.2

Ports are the compass letters E/W/N/S.  The empty string is the healthy
baseline (no events).  A kill of a router or link the mesh lacks is
rejected (:func:`check_fault_targets`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.specs import parse_spec
from repro.noc.topology import Port

__all__ = [
    "HardFaultEvent",
    "HardFaultModel",
    "check_fault_targets",
    "parse_fault_spec",
]

_PORT_LETTERS = {
    "E": Port.EAST,
    "W": Port.WEST,
    "N": Port.NORTH,
    "S": Port.SOUTH,
}
_LETTER_OF_PORT = {int(v): k for k, v in _PORT_LETTERS.items()}


class HardFaultEvent:
    """One scheduled fault: a link kill, a router kill, or an error burst."""

    __slots__ = ("kind", "cycle", "node", "port", "duration", "probability")

    KINDS = ("link", "router", "burst")

    def __init__(
        self,
        kind: str,
        cycle: int,
        node: int = 0,
        port: Optional[Port] = None,
        duration: int = 0,
        probability: float = 0.0,
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        if cycle < 0:
            raise ValueError("fault cycle cannot be negative")
        if kind == "link" and port is None:
            raise ValueError("link faults need a port")
        if kind == "burst":
            if duration <= 0:
                raise ValueError("burst duration must be positive")
            if not 0.0 <= probability <= 1.0:
                raise ValueError("burst probability must be in [0, 1]")
        self.kind = kind
        self.cycle = cycle
        self.node = node
        self.port = port
        self.duration = duration
        self.probability = probability

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Canonical spec clause (inverse of :func:`parse_fault_spec`)."""
        if self.kind == "link":
            return f"link@{self.cycle}:{self.node}{_LETTER_OF_PORT[int(self.port)]}"
        if self.kind == "router":
            return f"router@{self.cycle}:{self.node}"
        return f"burst@{self.cycle}+{self.duration}:{self.probability:g}"

    def sort_key(self) -> Tuple[int, str, int, int]:
        return (self.cycle, self.kind, self.node, int(self.port or 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HardFaultEvent({self.format()!r})"


def _parse_fault_clause(kind: str, rest: str) -> HardFaultEvent:
    when, arg = rest.split(":", 1)
    if kind == "link":
        letter = arg[-1].upper()
        if letter not in _PORT_LETTERS:
            raise ValueError(
                f"bad port letter {letter!r} (expected one of "
                f"{''.join(sorted(_PORT_LETTERS))})"
            )
        node, port = int(arg[:-1]), _PORT_LETTERS[letter]
        return HardFaultEvent("link", int(when), node, port)
    if kind == "router":
        return HardFaultEvent("router", int(when), int(arg))
    if kind == "burst":
        cycle, duration = when.split("+", 1)
        return HardFaultEvent(
            "burst", int(cycle), duration=int(duration), probability=float(arg)
        )
    raise ValueError(f"unknown fault kind {kind!r}")


def parse_fault_spec(spec: str) -> List[HardFaultEvent]:
    """Parse a ``;``-separated spec string into events (sorted by cycle)."""
    return parse_spec(spec, "fault", _parse_fault_clause, HardFaultEvent.sort_key)


def check_fault_targets(events: Sequence[HardFaultEvent], topology) -> None:
    """The grammar's target check: raise the one-line ``bad fault clause
    ...`` error for the first kill of a router or link ``topology`` lacks."""
    for event in events:
        if (
            event.kind == "router" and not 0 <= event.node < topology.num_nodes
            or event.kind == "link" and topology.neighbour(event.node, event.port) is None
        ):
            raise ValueError(
                f"bad fault clause {event.format()!r}: the "
                f"{topology.width}x{topology.height} mesh has no such {event.kind}"
            )


class HardFaultModel:
    """Applies a campaign's events, in :func:`parse_fault_spec` order, to a
    live network.

    Install as ``network.hard_faults``; the network calls :meth:`tick`
    at the top of every cycle.  A burst event sets every channel's burst
    floor for its span (a later burst replaces it), so channels sample
    at no less than the burst level while the fault substrate keeps
    refreshing its own values underneath.
    """

    __slots__ = (
        "network",
        "applied",
        "first_fault_cycle",
        "_pending",
        "_burst_until",
        "_latency_count_at_fault",
        "_latency_total_at_fault",
    )

    def __init__(self, network, events: List[HardFaultEvent]) -> None:
        check_fault_targets(events, network.topology)
        self.network = network
        #: events actually applied (spec clause, cycle) in order
        self.applied: List[Tuple[str, int]] = []
        self.first_fault_cycle: Optional[int] = None
        self._pending: List[HardFaultEvent] = list(events)
        self._burst_until: Optional[int] = None
        self._latency_count_at_fault = 0
        self._latency_total_at_fault = 0

    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        if self._burst_until is not None and now >= self._burst_until:
            self._end_burst()
        while self._pending and self._pending[0].cycle <= now:
            event = self._pending.pop(0)
            self._apply(event, now)

    def _apply(self, event: HardFaultEvent, now: int) -> None:
        if self.first_fault_cycle is None:
            self.first_fault_cycle = now
            latency = self.network.stats.latency
            self._latency_count_at_fault = latency.count
            self._latency_total_at_fault = latency.total
        if event.kind == "link":
            self.network.kill_link(event.node, event.port)
        elif event.kind == "router":
            self.network.kill_router(event.node)
        else:
            self._start_burst(event, now)
        self.applied.append((event.format(), now))
        # Campaign-level marker on top of the kill_* emissions: bursts
        # raise error probabilities without killing anything, so only
        # this event records them in the trace.
        tracer = self.network.tracer
        if tracer is not None:
            tracer.emit(now, "fault", "campaign_event", spec=event.format())

    # ------------------------------------------------------------------
    def _start_burst(self, event: HardFaultEvent, now: int) -> None:
        self._set_burst_floor(event.probability)
        self._burst_until = now + event.duration

    def _end_burst(self) -> None:
        self._set_burst_floor(0.0)
        self._burst_until = None

    def _set_burst_floor(self, floor: float) -> None:
        for _, model in self.network.channel_models():
            model.set_burst_floor(floor)

    # ------------------------------------------------------------------
    @property
    def post_fault_latency(self) -> float:
        """Mean latency of packets delivered after the first fault."""
        latency = self.network.stats.latency
        count = latency.count - self._latency_count_at_fault
        if self.first_fault_cycle is None or count <= 0:
            return 0.0
        return (latency.total - self._latency_total_at_fault) / count

    @property
    def pre_fault_latency(self) -> float:
        """Mean latency of packets delivered before the first fault."""
        if self.first_fault_cycle is None:
            return self.network.stats.latency.mean
        if self._latency_count_at_fault == 0:
            return 0.0
        return self._latency_total_at_fault / self._latency_count_at_fault
