"""Typed event tracing with bounded memory and category filters.

Events are deliberately coarse: hook sites fire at *event* frequency
(a mode actually changing, a link dying, a watchdog poll every
``watchdog_interval`` cycles) rather than per flit or per cycle, so an
attached tracer costs a handful of attribute lookups per rare event and
an unattached one costs a single ``is not None`` test.

The canonical stream digest — :func:`trace_digest` — hashes the sorted
JSON encoding of every event.  By default the ``checkpoint`` category is
excluded so a run resumed from a snapshot digests identically to the
uninterrupted run (the resume adds exactly one ``checkpoint/restore``
event; everything else is bit-identical by the determinism contract).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "CATEGORIES",
    "TraceEvent",
    "TraceBuffer",
    "trace_digest",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "parse_categories",
]

#: The closed event taxonomy (DESIGN.md §12).  ``emit`` rejects anything
#: else so golden traces cannot silently grow untested event families.
CATEGORIES: Tuple[str, ...] = (
    "mode",  # router mode transitions (requested + applied), degradations
    "rl",  # per-router Q-learning decisions at epoch boundaries
    "fault",  # hard-fault kills, in-flight recoveries, drops
    "watchdog",  # invariant heartbeats and trips
    "reward",  # reward-guard clamps of non-finite reward inputs
    "retx",  # end-to-end CRC retransmission requests
    "checkpoint",  # snapshot save/restore markers
    "sensor",  # telemetry corruption defenses: rejects, debounces
    "ecc",  # Q-table/mode-register scrubbing: corrections, detections, row quarantines
    "campaign",  # paper-figure campaigns: artifact build/reuse, grid completion
)

_CATEGORY_SET = frozenset(CATEGORIES)

#: Categories excluded from the canonical digest (see module docstring).
DIGEST_EXCLUDE: Tuple[str, ...] = ("checkpoint",)


class TraceEvent:
    """One timestamped observation.

    ``cycle`` is the network clock when the event fired, ``category``
    one of :data:`CATEGORIES`, ``kind`` a short event name within the
    category, ``subject`` the router/NI id (or ``None`` for network-wide
    events), and ``data`` a flat JSON-scalar payload.
    """

    __slots__ = ("cycle", "category", "kind", "subject", "data")

    def __init__(
        self,
        cycle: int,
        category: str,
        kind: str,
        subject: Optional[int] = None,
        data: Optional[Dict[str, object]] = None,
    ) -> None:
        self.cycle = cycle
        self.category = category
        self.kind = kind
        self.subject = subject
        self.data = data if data is not None else {}

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "cycle": self.cycle,
            "category": self.category,
            "kind": self.kind,
        }
        if self.subject is not None:
            out["subject"] = self.subject
        if self.data:
            out["data"] = self.data
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`as_dict`; any malformed event is a ValueError."""
        if not isinstance(payload, dict):
            raise ValueError(f"an event is a JSON object, not {type(payload).__name__}")
        try:
            category = payload["category"]
            if category not in _CATEGORY_SET:
                raise ValueError(f"unknown trace category {category!r}")
            return cls(
                cycle=int(payload["cycle"]),
                category=str(category),
                kind=str(payload["kind"]),
                subject=payload.get("subject"),
                data=dict(payload.get("data", {})),
            )
        except KeyError as exc:
            raise ValueError(f"event has no {exc.args[0]!r} field") from None
        except TypeError as exc:
            raise ValueError(f"malformed event: {exc}") from None

    def to_json(self) -> str:
        """Canonical single-line encoding (sorted keys, no whitespace)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        return cls.from_dict(json.loads(line))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(cycle={self.cycle}, category={self.category!r}, "
            f"kind={self.kind!r}, subject={self.subject!r}, data={self.data!r})"
        )


class TraceBuffer:
    """Bounded ring buffer of :class:`TraceEvent` with category filters.

    * ``capacity`` bounds memory: once full, the oldest events are
      evicted and counted in :attr:`dropped` (``emitted`` always counts
      every event that passed the filter, so
      ``dropped == emitted - len(buffer)`` holds as an invariant).
    * ``categories`` — ``None`` records everything; otherwise only the
      named categories are stored and the rest are tallied in
      :attr:`filtered`.
    """

    def __init__(
        self,
        capacity: int = 65536,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("trace buffer capacity must be positive")
        self.capacity = capacity
        if categories is None:
            self.categories: Optional[frozenset] = None
        else:
            wanted = frozenset(categories)
            unknown = wanted - _CATEGORY_SET
            if unknown:
                raise ValueError(f"unknown trace categories: {sorted(unknown)}")
            self.categories = wanted
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0  # events accepted past the category filter
        self.filtered = 0  # events rejected by the category filter

    # ------------------------------------------------------------------
    def wants(self, category: str) -> bool:
        """Cheap pre-check so hook sites can skip building payloads."""
        return self.categories is None or category in self.categories

    def emit(
        self,
        cycle: int,
        category: str,
        kind: str,
        subject: Optional[int] = None,
        **data: object,
    ) -> None:
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown trace category {category!r}")
        if self.categories is not None and category not in self.categories:
            self.filtered += 1
            return
        self.emitted += 1
        self._events.append(TraceEvent(cycle, category, kind, subject, data))

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (oldest-first)."""
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, categories: Optional[Iterable[str]] = None) -> List[TraceEvent]:
        if categories is None:
            return list(self._events)
        wanted = frozenset(categories)
        return [ev for ev in self._events if ev.category in wanted]

    # ------------------------------------------------------------------
    def digest(self, exclude: Sequence[str] = DIGEST_EXCLUDE) -> str:
        return trace_digest(self._events, exclude=exclude)


# ----------------------------------------------------------------------
def trace_digest(
    events: Iterable[TraceEvent], exclude: Sequence[str] = DIGEST_EXCLUDE
) -> str:
    """sha256 over the canonical JSONL encoding of the event stream."""
    skip = frozenset(exclude)
    h = hashlib.sha256()
    for ev in events:
        if ev.category in skip:
            continue
        h.update(ev.to_json().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def write_trace_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Dump events one JSON object per line; returns the event count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(ev.to_json())
            fh.write("\n")
            count += 1
    return count


def read_trace_jsonl(path: str) -> List[TraceEvent]:
    """Parse a JSONL trace; a bad line is a ValueError naming its number."""
    out: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    out.append(TraceEvent.from_json(line))
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
    return out


def parse_categories(spec: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse a ``--trace-filter`` value like ``"mode,fault,watchdog"``.

    Empty/None means "all categories" (returns ``None``).
    """
    if not spec:
        return None
    names = tuple(part.strip() for part in spec.split(",") if part.strip())
    unknown = set(names) - _CATEGORY_SET
    if unknown:
        raise ValueError(
            f"unknown trace categories {sorted(unknown)}; "
            f"valid: {', '.join(CATEGORIES)}"
        )
    return names
