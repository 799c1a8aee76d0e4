"""Unified telemetry: metrics registry, span tracing, lifecycle event bus.

``repro.obs`` is the cross-layer observability substrate of the runtime —
the "where did the time go?" answer across planner, planner pool,
simulation engine and fleet scheduler.  Three primitives
share one process-wide home each:

* :data:`~repro.obs.registry.REGISTRY` — counters / gauges / histograms
  (:mod:`repro.obs.registry`); always on, snapshot-to-dict, with
  cross-process aggregation of worker snapshots shipped over the planner
  pool's result queue.
* :func:`~repro.obs.spans.span` — nested wall-clock spans into the ring
  buffer :data:`~repro.obs.spans.RECORDER` (:mod:`repro.obs.spans`).
* :func:`~repro.obs.events.publish` — structured lifecycle events on the
  simulated clock into :data:`~repro.obs.events.BUS`
  (:mod:`repro.obs.events`).

Spans, events and per-job op-trace collection
(:mod:`repro.obs.simtrace`) are gated by the module-level flag in
:mod:`repro.obs.state` (off by default; ``REPRO_TELEMETRY=1`` or
:func:`enable`).  The disabled fast path is a single flag check per site,
and primary outputs (plans, reports, makespans) are bit-identical either
way — the determinism suite pins this.

The trace merger lives in :mod:`repro.obs.merge` (imported on demand — it
depends on simulator trace conventions): it combines a fleet run's
occupancy timeline, each job's simulated op traces and the planning spans
into one hierarchical Chrome trace via the shared pid/tid scheme in
:mod:`repro.obs.chrome`.
"""

from __future__ import annotations

from repro.obs.chrome import PID_FLEET, PID_JOB_BASE, PID_PLANNER, device_tid
from repro.obs.events import BUS, Event, EventBus, events, publish
from repro.obs.registry import (
    REGISTRY,
    MetricsRegistry,
    aggregate_snapshots,
    merge_snapshot,
    metric_key,
)
from repro.obs.simtrace import COLLECTOR, JobIterationTrace, SimTraceCollector
from repro.obs.spans import RECORDER, SpanRecord, SpanRecorder, span, spans_to_jsonl
from repro.obs.state import disable, enable, enabled, telemetry

__all__ = [
    "BUS",
    "COLLECTOR",
    "Event",
    "EventBus",
    "JobIterationTrace",
    "MetricsRegistry",
    "PID_FLEET",
    "PID_JOB_BASE",
    "PID_PLANNER",
    "RECORDER",
    "REGISTRY",
    "SimTraceCollector",
    "SpanRecord",
    "SpanRecorder",
    "aggregate_snapshots",
    "device_tid",
    "disable",
    "enable",
    "enabled",
    "events",
    "merge_snapshot",
    "metric_key",
    "publish",
    "reset",
    "span",
    "spans_to_jsonl",
    "telemetry",
]


def reset() -> None:
    """Clear all process-wide telemetry state (metrics, spans, events, traces).

    Used by tests, benchmarks and examples to isolate runs; the registry's
    metric objects stay valid (they are zeroed in place).
    """
    REGISTRY.reset()
    RECORDER.clear()
    BUS.clear()
    COLLECTOR.clear()
