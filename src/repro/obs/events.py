"""Structured lifecycle event bus.

Every layer of the runtime publishes typed events here when telemetry is
enabled: the fleet scheduler (job submitted/admitted/preempted/evicted/
regrown/finished/failed, device failure/repair/arrival, checkpoint taken/
restored, fault injected), the planner pool (task enqueued/planned/failed)
and the simulation engine (simulation solved).  Events carry a *simulated* fleet
clock when the publisher has one (``time_ms``) — never a wall clock — so a
seeded run's event stream is reproducible modulo thread interleaving, and
single-threaded (inline-planning) runs are reproducible exactly.

The bus is a bounded ring buffer with optional live subscribers; it is the
in-process precursor of the streaming-telemetry surface ROADMAP item 3's
always-on service exposes.  :func:`publish` is gated on
:mod:`repro.obs.state` and costs one flag check when disabled.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs import state as _state

#: Default ring-buffer capacity of a bus (events retained).
DEFAULT_CAPACITY = 131_072


@dataclass
class Event:
    """One published lifecycle event.

    Attributes:
        seq: Bus-local publication index (total order of the buffer).
        kind: Event type, e.g. ``"job_admitted"`` or ``"device_failure"``.
        time_ms: Simulated (fleet/simulator) clock of the event, ``None``
            for events without a simulated time (e.g. pool-side planning).
        fields: Structured payload (job name, device index, ...).
    """

    seq: int
    kind: str
    time_ms: float | None
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind, "time_ms": self.time_ms, **self.fields}


class EventBus:
    """Thread-safe bounded buffer of :class:`Event`, with subscribers."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._subscribers: list[Callable[[Event], None]] = []

    def publish(self, kind: str, time_ms: float | None = None, **fields: Any) -> Event:
        with self._lock:
            event = Event(seq=self._seq, kind=kind, time_ms=time_ms, fields=fields)
            self._seq += 1
            self._events.append(event)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Register a live callback (called synchronously on publish)."""
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            self._subscribers.remove(callback)

    def events(self, kind: str | None = None) -> list[Event]:
        """Buffered events, optionally filtered by kind."""
        with self._lock:
            events = list(self._events)
        if kind is None:
            return events
        return [event for event in events if event.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def structure(self) -> list[tuple[str, float | None, tuple[tuple[str, Any], ...]]]:
        """Seq-free view for determinism checks: (kind, time_ms, fields)."""
        return [
            (event.kind, event.time_ms, tuple(sorted(event.fields.items())))
            for event in self.events()
        ]

    def export_jsonl(self, path: "str | Path") -> Path:
        """Write the buffered events as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for event in self.events():
                handle.write(json.dumps(event.to_dict()) + "\n")
        return path


#: The process-wide bus every runtime layer publishes into.
BUS = EventBus()


def publish(kind: str, time_ms: float | None = None, **fields: Any) -> None:
    """Publish onto :data:`BUS` when telemetry is enabled (no-op otherwise)."""
    if not _state.enabled():
        return
    BUS.publish(kind, time_ms=time_ms, **fields)


def events(kind: str | None = None) -> Iterable[Event]:
    """Buffered events of :data:`BUS` (optionally filtered by kind)."""
    return BUS.events(kind)
