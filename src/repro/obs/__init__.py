"""Structured observability: event tracing and a unified metric registry.

The simulator, network, watchdog, and sweep supervisor historically kept
ad-hoc tallies (``NetworkStats`` slots, a process-global reward-guard
tally, ``FaultInjector.saturation_events``, ``SweepReport`` fields) and
no event-level record at all — end-of-run aggregates could not answer
*when* a router switched modes or *why* an agent picked an action.

This package adds two cross-cutting primitives:

* :class:`~repro.obs.trace.TraceBuffer` — a bounded ring buffer of typed
  :class:`~repro.obs.trace.TraceEvent` records (mode transitions, RL
  decisions, hard-fault kills/recoveries, watchdog heartbeats/trips,
  reward-guard clamps, CRC retransmissions, checkpoint save/restore)
  with category filters and a canonical stream digest for golden tests.
* :class:`~repro.obs.metrics.MetricRegistry` — named counters, gauges,
  and latency-style histograms with per-epoch timeline snapshots.

Both are strictly opt-in: every hook site in the hot kernels guards on
``tracer is not None`` at *event* frequency (never per flit or per
cycle), so a run with tracing disabled is bit-identical to the
pre-observability code paths, and one with tracing enabled gives the
same results — enforced by ``tests/obs/test_overhead.py`` and the
golden-trace tests.
"""

from repro.obs.trace import (
    CATEGORIES,
    TraceBuffer,
    TraceEvent,
    parse_categories,
    read_trace_jsonl,
    trace_digest,
    write_trace_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.export import (
    metrics_timeline_rows,
    write_metrics_csv,
    write_metrics_json,
)

__all__ = [
    "CATEGORIES",
    "TraceBuffer",
    "TraceEvent",
    "parse_categories",
    "read_trace_jsonl",
    "trace_digest",
    "write_trace_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "metrics_timeline_rows",
    "write_metrics_csv",
    "write_metrics_json",
]
