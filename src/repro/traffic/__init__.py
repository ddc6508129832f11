"""Workload substrate: synthetic patterns, traces, PARSEC-like synthesis."""

from repro.traffic.parsec import (
    PARSEC_PROFILES,
    BenchmarkProfile,
    ParsecTraceSynthesizer,
)
from repro.traffic.synthetic import (
    PATTERNS,
    SyntheticTraffic,
    destination_for,
)
from repro.traffic.trace import TraceRecord, TraceReplayer

__all__ = [
    "PARSEC_PROFILES",
    "BenchmarkProfile",
    "ParsecTraceSynthesizer",
    "PATTERNS",
    "SyntheticTraffic",
    "destination_for",
    "TraceRecord",
    "TraceReplayer",
]
