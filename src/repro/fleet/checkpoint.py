"""Scheduler checkpoint/restore: crash resilience for the fleet itself.

PRs 3–5 made *jobs* fault-tolerant — each one resumes from its
:class:`~repro.fleet.job.JobCheckpoint` after preemption — but the
:class:`~repro.fleet.scheduler.FleetScheduler` was a run-to-completion
loop that died with the process.  This module snapshots the **full
scheduler state at an event boundary** to one JSON-safe dict and rebuilds
a scheduler that resumes the event loop deterministically:

* **What is captured** — every job record (life-cycle counters, attempts,
  committed checkpoint, planning-failure/backoff bookkeeping), the pending
  queue *in order*, running attempts with their gangs and in-flight
  completion times, the gang allocator's free/failed/absent partition plus
  explicit per-gang device ownership, the queued capacity-event heap
  (repairs, arrivals, planner faults) and its tie-break sequence, the
  failure schedule and its cursor, failure epochs, down-time and busy-time
  accounting, the scheduler RNG state (backoff jitter), trace events and
  the capacity timeline.

* **What is not** — job *specs* (cost models, sample sets, planner
  factories hold closures and large arrays); :func:`restore_scheduler`
  takes them again by name.  In-flight iterations are not serialised
  either: the determinism contract of
  :meth:`~repro.fleet.job.JobSpec.trainer_config` (noise RNG
  fast-forwarded by the committed-iteration count) means re-stepping a
  rebuilt attempt regenerates the snapshot's pending iteration
  bit-identically, so only its start/completion stamps are kept.

**Restore invariants.**  A run killed at any event boundary (via the
``on_event`` hook raising, e.g. :class:`SchedulerKilled`) and restored
from the boundary's snapshot produces per-job records and a
:class:`~repro.fleet.metrics.FleetReport` bit-identical to the
uninterrupted run — modulo wall-clock planning times and, in pooled mode,
the respawned worker count.  The 4-way device partition invariant is
re-checked on restore; a snapshot whose policy or cluster size disagrees
with the restoring configuration is rejected.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from repro.cluster.topology import ClusterTopology
from repro.fleet.gang import DeviceGang
from repro.fleet.job import JobAttempt, JobCheckpoint, JobRecord, JobSpec
from repro.fleet.metrics import CapacityEvent
from repro.simulator.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scheduler imports us lazily)
    from repro.fleet.scheduler import FleetConfig, FleetScheduler

#: Format version of the snapshot dict; bumped on incompatible layout changes.
#: Version 2 canonicalized ``"capacity_heap"`` to ``(time, seq)`` order;
#: version-1 snapshots (raw heap order) are still read.  Snapshots written
#: while the scheduler had two cores carry a ``"core"`` provenance field,
#: which restore never read and new snapshots no longer write.
SNAPSHOT_VERSION = 2

#: Snapshot versions :func:`restore_scheduler` accepts.
SUPPORTED_SNAPSHOT_VERSIONS = (1, 2)


class SchedulerKilled(RuntimeError):
    """Raised by test/chaos ``on_event`` hooks to simulate a scheduler crash.

    Raising it from :attr:`~repro.fleet.scheduler.FleetConfig.on_event`
    aborts ``run()`` at an event boundary exactly the way a process death
    would — after the previous event fully applied, before the next
    admission pass — while the ``finally`` block still tears down planner
    resources (a real crash would leak the processes; the simulation keeps
    the test host clean).
    """


def _serialize_gang(gang: DeviceGang) -> dict[str, Any]:
    return {
        "job": gang.job,
        "devices": list(gang.devices),
        "data_parallel": gang.data_parallel,
        "pipeline_parallel": gang.pipeline_parallel,
        "tensor_parallel": gang.tensor_parallel,
    }


def _restore_gang(payload: dict[str, Any]) -> DeviceGang:
    return DeviceGang(
        job=payload["job"],
        devices=tuple(payload["devices"]),
        data_parallel=payload["data_parallel"],
        pipeline_parallel=payload["pipeline_parallel"],
        tensor_parallel=payload["tensor_parallel"],
    )


def _serialize_record(record: JobRecord) -> dict[str, Any]:
    return {
        "name": record.spec.name,
        "sequence": record.sequence,
        "state": record.state,
        "checkpoint": record.checkpoint.to_dict(),
        "attempts": [
            {**asdict(attempt), "devices": list(attempt.devices)}
            for attempt in record.attempts
        ],
        "retries": record.retries,
        "preemptions": record.preemptions,
        "evictions": record.evictions,
        "regrows": record.regrows,
        "first_admitted_ms": record.first_admitted_ms,
        "finished_ms": record.finished_ms,
        "failure_reason": record.failure_reason,
        "not_before_ms": record.not_before_ms,
        "planning_retries": record.planning_retries,
        "planning_failure_streak": record.planning_failure_streak,
        "planning_failed_since_ms": record.planning_failed_since_ms,
        "last_queued_ms": record.last_queued_ms,
        "degraded_iterations": record.degraded_iterations,
    }


def _restore_record(payload: dict[str, Any], spec: JobSpec) -> JobRecord:
    return JobRecord(
        spec=spec,
        sequence=payload["sequence"],
        state=payload["state"],
        checkpoint=JobCheckpoint.from_dict(payload["checkpoint"]),
        attempts=[
            JobAttempt(**{**attempt, "devices": tuple(attempt["devices"])})
            for attempt in payload["attempts"]
        ],
        retries=payload["retries"],
        preemptions=payload["preemptions"],
        evictions=payload["evictions"],
        regrows=payload["regrows"],
        first_admitted_ms=payload["first_admitted_ms"],
        finished_ms=payload["finished_ms"],
        failure_reason=payload["failure_reason"],
        not_before_ms=payload["not_before_ms"],
        planning_retries=payload["planning_retries"],
        planning_failure_streak=payload["planning_failure_streak"],
        planning_failed_since_ms=payload["planning_failed_since_ms"],
        last_queued_ms=payload["last_queued_ms"],
        degraded_iterations=payload["degraded_iterations"],
    )


def snapshot_scheduler(scheduler: "FleetScheduler") -> dict[str, Any]:
    """The scheduler's full state at the current event boundary, JSON-safe.

    Call through :meth:`FleetScheduler.checkpoint` (which guards that the
    loop is live); the result round-trips through ``json.dumps`` /
    ``json.loads`` unchanged in meaning (tuples become lists — the restore
    path accepts both).
    """
    rng_version, rng_internal, rng_gauss = scheduler._rng.getstate()
    running_payload = []
    for running in sorted(
        scheduler._running.values(), key=lambda rj: rj.record.sequence
    ):
        owned = [
            device
            for device in running.gang.devices
            if scheduler.allocator.owner_of(device) is running.gang
        ]
        running_payload.append(
            {
                "job": running.record.spec.name,
                "gang": _serialize_gang(running.gang),
                "owned_devices": owned,
                "iteration_started_ms": running.iteration_started_ms,
                "completion_ms": running.completion_ms,
            }
        )
    failures = scheduler._failures_sorted or []
    return {
        "version": SNAPSHOT_VERSION,
        "policy": scheduler.policy.name,
        "num_devices": scheduler.topology.num_gpus,
        "clock_ms": scheduler._clock,
        "events_processed": scheduler._events_processed,
        "rng_state": [rng_version, list(rng_internal), rng_gauss],
        "jobs": [
            _serialize_record(record)
            for record in sorted(scheduler.jobs.values(), key=lambda r: r.sequence)
        ],
        "pending": [record.spec.name for record in scheduler._pending],
        "running": running_payload,
        "allocator": scheduler.allocator.snapshot_state(),
        "capacity_heap": scheduler._capacity_heap_snapshot(),
        "capacity_seq": scheduler._capacity_seq,
        "failure_epoch": [
            [device, epoch] for device, epoch in sorted(scheduler._failure_epoch.items())
        ],
        "failures": [[f.time_ms, f.device] for f in failures],
        "next_failure": scheduler._next_failure,
        "down_since": [
            [device, since] for device, since in sorted(scheduler._down_since.items())
        ],
        "dead_device_ms": scheduler._dead_device_ms,
        "busy_device_ms": scheduler._busy_device_ms,
        "planner_workers_spawned": scheduler._planner_workers_spawned,
        "repair_durations_ms": list(scheduler._repair_durations),
        "fault_log": [dict(entry) for entry in scheduler._fault_log],
        "trace_events": [asdict(event) for event in scheduler._trace_events],
        "capacity_timeline": [asdict(event) for event in scheduler._capacity_timeline],
    }


def restore_scheduler(
    snapshot: dict[str, Any],
    topology: ClusterTopology,
    specs: "dict[str, JobSpec]",
    config: "FleetConfig | None" = None,
    cls: "type[FleetScheduler] | None" = None,
) -> "FleetScheduler":
    """Rebuild a scheduler from :func:`snapshot_scheduler` output.

    Args:
        snapshot: The boundary snapshot (possibly after a JSON round-trip).
        topology: The cluster — must have the snapshot's device count.
        specs: Job specs by name; every snapshotted job must be present
            (specs carry the non-serialisable planner factories and cost
            models).
        config: Fleet configuration of the resumed run; must resolve to
            the snapshot's policy.  Defaults to a fresh ``FleetConfig``.
        cls: Scheduler class to instantiate (for subclasses).

    Returns:
        A scheduler whose :meth:`~repro.fleet.scheduler.FleetScheduler.run`
        resumes the event loop at the snapshotted boundary.
    """
    from repro.fleet.scheduler import DeviceFailure, FleetScheduler

    if snapshot.get("version") not in SUPPORTED_SNAPSHOT_VERSIONS:
        raise ValueError(
            f"unsupported snapshot version {snapshot.get('version')!r}; "
            f"this build reads versions {list(SUPPORTED_SNAPSHOT_VERSIONS)}"
        )
    if snapshot["num_devices"] != topology.num_gpus:
        raise ValueError(
            f"snapshot was taken on a {snapshot['num_devices']}-device cluster; "
            f"the restoring topology has {topology.num_gpus}"
        )
    scheduler = (cls or FleetScheduler)(topology, config)
    if scheduler.policy.name != snapshot["policy"]:
        raise ValueError(
            f"snapshot used policy {snapshot['policy']!r}; the restoring "
            f"configuration resolves to {scheduler.policy.name!r}"
        )

    missing = [job["name"] for job in snapshot["jobs"] if job["name"] not in specs]
    if missing:
        raise ValueError(f"specs missing for snapshotted jobs: {missing}")
    for payload in snapshot["jobs"]:
        record = _restore_record(payload, specs[payload["name"]])
        scheduler.jobs[record.spec.name] = record
    scheduler._pending = [scheduler.jobs[name] for name in snapshot["pending"]]

    allocated: list[tuple[DeviceGang, list[int]]] = []
    for payload in snapshot["running"]:
        record = scheduler.jobs[payload["job"]]
        gang = _restore_gang(payload["gang"])
        allocated.append((gang, list(payload["owned_devices"])))
        scheduler._restore_running.append(
            (
                record,
                gang,
                payload["iteration_started_ms"],
                payload["completion_ms"],
            )
        )
    allocator_state = snapshot["allocator"]
    scheduler.allocator.restore_state(
        allocator_state["free"],
        allocator_state["failed"],
        allocator_state["absent"],
        allocated,
    )

    scheduler._clock = snapshot["clock_ms"]
    scheduler._events_processed = snapshot["events_processed"]
    for time_ms, seq, kind, device, epoch in snapshot["capacity_heap"]:
        scheduler._queue_capacity_event(time_ms, seq, kind, device, epoch)
    scheduler._capacity_seq = snapshot["capacity_seq"]
    scheduler._failure_epoch = {
        device: epoch for device, epoch in snapshot["failure_epoch"]
    }
    scheduler._failures_sorted = [
        DeviceFailure(time_ms=time_ms, device=device)
        for time_ms, device in snapshot["failures"]
    ]
    scheduler._next_failure = snapshot["next_failure"]
    scheduler._down_since = {device: since for device, since in snapshot["down_since"]}
    scheduler._dead_device_ms = snapshot["dead_device_ms"]
    scheduler._busy_device_ms = snapshot["busy_device_ms"]
    scheduler._planner_workers_spawned = snapshot["planner_workers_spawned"]
    scheduler._repair_durations = list(snapshot["repair_durations_ms"])
    scheduler._fault_log = [dict(entry) for entry in snapshot["fault_log"]]
    scheduler._trace_events = [
        TraceEvent(**event) for event in snapshot["trace_events"]
    ]
    scheduler._capacity_timeline = [
        CapacityEvent(**event) for event in snapshot["capacity_timeline"]
    ]
    rng_version, rng_internal, rng_gauss = snapshot["rng_state"]
    scheduler._rng.setstate((rng_version, tuple(rng_internal), rng_gauss))
    scheduler._restored = True
    return scheduler
