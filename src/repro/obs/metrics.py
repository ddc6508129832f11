"""A unified registry of counters, gauges, and histograms.

``NetworkStats`` keeps the hot per-flit tallies in ``__slots__`` for
speed and stays untouched; the registry is the *cool* layer above it —
run-level counters (reward-guard clamps, injector saturations, sweep
supervision totals) and per-epoch snapshots of derived gauges.  The
simulator ingests both into one namespace so exports see every tally
without reaching into module globals.

Non-finite hardening: a NaN or infinity written into an instrument
(``inc`` / ``set`` / ``record``) is clamped to zero and tallied under
the lazily-created ``metrics.guard`` counter — mirroring the reward
guard's clamp-and-count contract — so one poisoned producer cannot turn
a whole timeline into NaNs, and a healthy run's snapshot stays exactly
as before (the guard counter only exists once something tripped it).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "GUARD_COUNTER",
    "Histogram",
    "MetricRegistry",
    "DEFAULT_BOUNDS",
]

#: registry counter that tallies clamped non-finite writes
GUARD_COUNTER = "metrics.guard"


def _guard_value(value: float, guard: Optional[Callable[[], None]]) -> float:
    """Clamp a non-finite write to 0, tallying it via ``guard``."""
    if isinstance(value, float) and not math.isfinite(value):
        if guard is not None:
            guard()
        return 0.0
    return value

#: Default histogram bucket upper bounds (latency-style, in cycles).
DEFAULT_BOUNDS: Tuple[float, ...] = (
    10.0,
    20.0,
    40.0,
    80.0,
    160.0,
    320.0,
    640.0,
    1280.0,
)


class Counter:
    """Monotonic within a run (each run gets a fresh registry)."""

    __slots__ = ("value", "guard")

    def __init__(self, guard: Optional[Callable[[], None]] = None) -> None:
        self.value = 0
        self.guard = guard

    def inc(self, amount: int = 1) -> None:
        self.value += _guard_value(amount, self.guard)


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("value", "guard")

    def __init__(self, guard: Optional[Callable[[], None]] = None) -> None:
        self.value = 0.0
        self.guard = guard

    def set(self, value: float) -> None:
        self.value = _guard_value(value, self.guard)


class Histogram:
    """Fixed-bound bucket histogram with running sum/min/max."""

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max", "guard")

    def __init__(
        self,
        bounds: Sequence[float] = DEFAULT_BOUNDS,
        guard: Optional[Callable[[], None]] = None,
    ) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        # one bucket per bound plus the overflow bucket
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.guard = guard

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        value = _guard_value(value, self.guard)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.buckets[idx] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricRegistry:
    """Named metric namespace with a bounded per-epoch timeline.

    Instruments are created on first access (``counter("a.b")``), so the
    producers don't need a shared schema; ``snapshot_epoch`` appends one
    flat row of every scalar instrument to :attr:`timeline` (histograms
    are snapshot-only — they appear in :meth:`snapshot`, not rows).
    """

    def __init__(self, max_timeline: int = 4096) -> None:
        if max_timeline < 1:
            raise ValueError("max_timeline must be positive")
        self.max_timeline = max_timeline
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.timeline: List[Dict[str, float]] = []
        self.timeline_dropped = 0

    # ------------------------------------------------------------------
    def _guard_event(self) -> None:
        """One non-finite write was clamped somewhere in this registry.

        The tally counter is created lazily on the first event so a
        healthy run's snapshot carries no ``metrics.guard`` instrument
        (it is itself created guard-free — its increments are always 1).
        """
        inst = self._counters.get(GUARD_COUNTER)
        if inst is None:
            inst = self._counters[GUARD_COUNTER] = Counter()
        inst.inc()

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            guard = None if name == GUARD_COUNTER else self._guard_event
            inst = self._counters[name] = Counter(guard=guard)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(guard=self._guard_event)
        return inst

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(bounds, guard=self._guard_event)
        return inst

    def peek(self, name: str) -> float:
        """Read a counter/gauge value without creating the instrument.

        Lets reports ask "how many sensor rejects?" after a healthy run
        without polluting its snapshot with zero-valued instruments.
        """
        inst = self._counters.get(name) or self._gauges.get(name)
        return inst.value if inst is not None else 0

    def ingest(self, prefix: str, values: Mapping[str, object]) -> None:
        """Absorb a plain mapping of numeric tallies as gauges."""
        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.gauge(f"{prefix}.{key}").set(value)

    # ------------------------------------------------------------------
    def scalars(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        return out

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
            "timeline_rows": len(self.timeline),
            "timeline_dropped": self.timeline_dropped,
        }

    def snapshot_epoch(self, cycle: int) -> Dict[str, float]:
        row: Dict[str, float] = {"cycle": cycle}
        row.update(sorted(self.scalars().items()))
        if len(self.timeline) >= self.max_timeline:
            self.timeline.pop(0)
            self.timeline_dropped += 1
        self.timeline.append(row)
        return row
