"""Chrome-trace export of execution traces.

Converts an :class:`~repro.simulator.trace.ExecutionTrace` into the Chrome
trace-event JSON format so pipelines can be inspected interactively in
``chrome://tracing`` or Perfetto — the standard way real training systems
visualise their timelines.  Each device becomes a "thread"; compute and
communication events are separated into two tracks per device.

The pid/tid scheme and metadata events come from the shared helpers in
:mod:`repro.obs.chrome`, so a standalone schedule trace, a fleet occupancy
timeline and the merged fleet↔simulator trace all label their tracks the
same way.  Standalone exports keep the historical ``pid=0``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs import chrome as _chrome
from repro.simulator.trace import ExecutionTrace


def trace_to_chrome_events(
    trace: ExecutionTrace, process_id: int = 0, process_name: str | None = None
) -> list[dict[str, Any]]:
    """Convert a trace to a list of Chrome trace-event dictionaries.

    ``process_name`` labels the whole trace's "process" row — the fleet
    scheduler uses it to title a cluster-occupancy timeline, where each
    device's track shows which job's iterations it ran.
    """
    events: list[dict[str, Any]] = []
    if process_name is not None:
        events.extend(_chrome.process_name_event(process_id, process_name))
    devices = {event.device for event in trace.events}
    events.extend(_chrome.device_thread_metadata(process_id, devices))
    events.extend(_chrome.trace_events_to_chrome(trace.events, process_id))
    return events


def save_chrome_trace(
    trace: ExecutionTrace, path: str | Path, process_name: str | None = None
) -> Path:
    """Write the trace as a ``chrome://tracing`` compatible JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": trace_to_chrome_events(trace, process_name=process_name),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload))
    return path
