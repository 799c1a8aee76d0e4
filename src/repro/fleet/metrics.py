"""Fleet-level metrics: makespan, queueing delay, utilization, elasticity.

The scheduler aggregates per-job summaries, a cluster-occupancy trace (one
:class:`~repro.simulator.trace.TraceEvent` per device per committed
iteration) and a capacity timeline (one :class:`CapacityEvent` per device
failure, repair and arrival) into a :class:`FleetReport` — the multi-job
analogue of :class:`~repro.training.throughput.TrainingReport`, exportable
to ``chrome://tracing`` for visual inspection of gang placement,
preemptions, evictions and elastic shrink/regrow cycles.

**Utilization contract**: :attr:`FleetReport.device_utilization` divides
committed device-time by *live* cluster capacity — ``num_devices ×
makespan`` minus the device-milliseconds spent failed or not-yet-arrived
(``dead_device_ms``).  Time a device was dead is not available capacity, so
a fleet that keeps every live device busy reports ~100% utilization even if
half the cluster was down for half the run; before repairs existed the
denominator charged dead time as if it were usable, understating
utilization in every run with a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.fleet.job import JobRecord, JobState
from repro.simulator.chrome_trace import save_chrome_trace
from repro.simulator.trace import ExecutionTrace
from repro.utils.stats import mean


@dataclass(frozen=True)
class CapacityEvent:
    """One change of the cluster's alive device set.

    Attributes:
        time_ms: Fleet-clock time of the change.
        event: ``"failure"``, ``"repair"`` or ``"arrival"``.
        device: Global device index affected.
        alive_count: Alive devices *after* the event applied.
    """

    time_ms: float
    event: str
    device: int
    alive_count: int


@dataclass
class JobSummary:
    """Scheduling-level outcome of one job.

    Attributes:
        name: Job name.
        state: Terminal state (``finished`` or ``failed``).
        parallel: Requested shape, e.g. ``"dp2-pp2-tp1"``.
        priority: Scheduling priority of the spec (0 unless set).
        final_data_parallel: Replica count of the last attempt (smaller than
            requested when the job shrank elastically), ``None`` if never
            admitted.
        submit_time_ms / first_admitted_ms / finished_ms: Fleet-clock marks.
        queueing_delay_ms: Submission-to-first-admission delay.
        iterations_completed / target_iterations: Progress vs. the spec.
        attempts: Number of placements (1 = ran uninterrupted).
        retries: Re-admissions after failures (device or planning).
        preemptions: Device-failure interruptions (in-flight work lost).
        evictions: Graceful boundary preemptions by higher-priority jobs
            (no work lost, no retry budget spent).
        regrows: Boundary re-expansions toward the requested gang after
            repaired/arrived capacity.
        throughput_tokens_per_s: Actual-token throughput over committed
            iterations.
        failure_reason: Why the job failed (``None`` for finished jobs).
        planning_retries: Backoff-delayed planning re-admissions that did
            not burn retry budget (deadline mode).
        degraded_iterations: Iterations planned through the inline fallback
            because every pool worker was dead.
    """

    name: str
    state: str
    parallel: str
    priority: int
    final_data_parallel: int | None
    submit_time_ms: float
    first_admitted_ms: float | None
    finished_ms: float | None
    queueing_delay_ms: float | None
    iterations_completed: int
    target_iterations: int
    attempts: int
    retries: int
    preemptions: int
    evictions: int
    regrows: int
    throughput_tokens_per_s: float
    failure_reason: str | None
    planning_retries: int = 0
    degraded_iterations: int = 0


def summarize_job(record: JobRecord) -> JobSummary:
    """Condense a job record into its scheduling-level summary."""
    report = record.training_report()
    final_dp = record.attempts[-1].data_parallel if record.attempts else None
    return JobSummary(
        name=record.spec.name,
        state=record.state,
        parallel=record.spec.parallel.describe(),
        priority=record.spec.priority,
        final_data_parallel=final_dp,
        submit_time_ms=record.spec.submit_time_ms,
        first_admitted_ms=record.first_admitted_ms,
        finished_ms=record.finished_ms,
        queueing_delay_ms=record.queueing_delay_ms,
        iterations_completed=record.checkpoint.completed_iterations,
        target_iterations=record.spec.num_iterations,
        attempts=len(record.attempts),
        retries=record.retries,
        preemptions=record.preemptions,
        evictions=record.evictions,
        regrows=record.regrows,
        throughput_tokens_per_s=report.throughput_tokens_per_s,
        failure_reason=record.failure_reason,
        planning_retries=record.planning_retries,
        degraded_iterations=record.degraded_iterations,
    )


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet run.

    Attributes:
        policy: Name of the admission policy that produced the run.
        jobs: Per-job summaries, in submission order.
        makespan_ms: Fleet-clock time of the last event.
        busy_device_ms: Device-milliseconds spent on committed iterations
            (work lost to failure-preempted in-flight iterations does not
            count).
        num_devices: Cluster size (including failed/absent devices).
        failed_devices: Devices still failed at the end of the run
            (repaired devices are not listed — see ``capacity_timeline``).
        absent_devices: Devices whose arrival never fired during the run.
        dead_device_ms: Device-milliseconds spent failed or not-yet-arrived
            over the run; subtracted from the utilization denominator.
        capacity_timeline: Failure/repair/arrival events in fleet-clock
            order, each with the alive count after it applied.
        trace: Cluster-occupancy trace (device × time → job iteration).
        planner_workers_spawned: Planner workers spawned over the whole run:
            ``planner_processes`` once for the shared planning cluster (the
            spawn amortisation the paper's architecture buys), 0 inline.
        repair_durations_ms: Failure-to-repair durations of every repair
            that fired during the run (one entry per completed outage);
            feeds :attr:`mttr_ms`.
        fault_log: Applied planner-side faults (worker kills, plan
            losses), each a ``{time_ms, kind, requested, applied}`` dict.
        events_processed: Scheduler event-loop iterations of the run (one
            per event), so events/second is the benchmark's like-for-like
            speed metric.
    """

    policy: str
    jobs: list[JobSummary]
    makespan_ms: float
    busy_device_ms: float
    num_devices: int
    failed_devices: list[int] = field(default_factory=list)
    absent_devices: list[int] = field(default_factory=list)
    dead_device_ms: float = 0.0
    capacity_timeline: list[CapacityEvent] = field(default_factory=list)
    trace: ExecutionTrace = field(default_factory=ExecutionTrace)
    planner_workers_spawned: int = 0
    repair_durations_ms: list[float] = field(default_factory=list)
    fault_log: list[dict[str, Any]] = field(default_factory=list)
    events_processed: int = 0

    # ------------------------------------------------------------------ aggregates

    @property
    def finished_jobs(self) -> int:
        """Jobs that completed their target iterations."""
        return sum(1 for job in self.jobs if job.state == JobState.FINISHED)

    @property
    def failed_jobs(self) -> int:
        """Jobs that failed (retry exhaustion or unschedulable)."""
        return sum(1 for job in self.jobs if job.state == JobState.FAILED)

    @property
    def total_retries(self) -> int:
        """Re-admissions across all jobs."""
        return sum(job.retries for job in self.jobs)

    @property
    def total_preemptions(self) -> int:
        """Device-failure interruptions across all jobs."""
        return sum(job.preemptions for job in self.jobs)

    @property
    def total_evictions(self) -> int:
        """Graceful priority evictions across all jobs."""
        return sum(job.evictions for job in self.jobs)

    @property
    def total_regrows(self) -> int:
        """Elastic boundary re-expansions across all jobs."""
        return sum(job.regrows for job in self.jobs)

    @property
    def devices_repaired(self) -> int:
        """Repair events that actually returned a device to the pool."""
        return sum(1 for event in self.capacity_timeline if event.event == "repair")

    @property
    def devices_arrived(self) -> int:
        """Late-arrival events that fired during the run."""
        return sum(1 for event in self.capacity_timeline if event.event == "arrival")

    @property
    def mttr_ms(self) -> float:
        """Mean time to repair: mean failure-to-repair duration of the
        outages that were actually repaired during the run (0.0 when no
        repair fired — devices that stayed dead contribute to
        ``dead_device_ms``, not here)."""
        return mean(self.repair_durations_ms) if self.repair_durations_ms else 0.0

    @property
    def total_planning_retries(self) -> int:
        """Backoff-delayed planning re-admissions across all jobs."""
        return sum(job.planning_retries for job in self.jobs)

    @property
    def total_degraded_iterations(self) -> int:
        """Inline-fallback iterations (dead pool) across all jobs."""
        return sum(job.degraded_iterations for job in self.jobs)

    @property
    def planner_faults_injected(self) -> int:
        """Planner-side fault events that fired during the run."""
        return len(self.fault_log)

    @property
    def mean_queueing_delay_ms(self) -> float:
        """Mean submission-to-admission delay over admitted jobs."""
        delays = [j.queueing_delay_ms for j in self.jobs if j.queueing_delay_ms is not None]
        return mean(delays) if delays else 0.0

    @property
    def max_queueing_delay_ms(self) -> float:
        """Largest admission delay over admitted jobs."""
        delays = [j.queueing_delay_ms for j in self.jobs if j.queueing_delay_ms is not None]
        return max(delays) if delays else 0.0

    @property
    def available_device_ms(self) -> float:
        """Live cluster capacity: total device-time minus dead device-time."""
        return self.num_devices * self.makespan_ms - self.dead_device_ms

    @property
    def device_utilization(self) -> float:
        """Committed device-time over *live* cluster capacity of the run.

        Time a device spent failed (between its failure and repair, or to
        the end of the run) or absent (before its late arrival) is not
        available capacity and is excluded from the denominator; with the
        old ``num_devices × makespan`` denominator, every repaired outage
        would have silently counted its dead time as schedulable capacity.
        """
        if self.available_device_ms <= 0:
            return 0.0
        return self.busy_device_ms / self.available_device_ms

    def summary(self) -> dict[str, Any]:
        """Compact dictionary summary used by the benchmark harness."""
        return {
            "policy": self.policy,
            "jobs": len(self.jobs),
            "finished": self.finished_jobs,
            "failed": self.failed_jobs,
            "makespan_ms": self.makespan_ms,
            "mean_queueing_delay_ms": self.mean_queueing_delay_ms,
            "max_queueing_delay_ms": self.max_queueing_delay_ms,
            "device_utilization": self.device_utilization,
            "total_retries": self.total_retries,
            "total_preemptions": self.total_preemptions,
            "total_evictions": self.total_evictions,
            "total_regrows": self.total_regrows,
            "devices_repaired": self.devices_repaired,
            "devices_arrived": self.devices_arrived,
            "dead_device_ms": self.dead_device_ms,
            "failed_devices": list(self.failed_devices),
            "planner_workers_spawned": self.planner_workers_spawned,
            "mttr_ms": self.mttr_ms,
            "planning_retries": self.total_planning_retries,
            "degraded_iterations": self.total_degraded_iterations,
            "planner_faults": self.planner_faults_injected,
            "events_processed": self.events_processed,
        }

    def save_chrome_trace(self, path: "str | Path") -> Path:
        """Write the cluster-occupancy timeline for ``chrome://tracing``."""
        return save_chrome_trace(self.trace, path, process_name=f"fleet ({self.policy})")

    def save_merged_trace(self, path: "str | Path") -> Path:
        """Write the merged fleet↔simulator↔planner trace for this run.

        Combines the occupancy timeline with the per-job op traces, planning
        spans and lifecycle events currently held by the process-wide
        telemetry stores (:mod:`repro.obs`) — run with telemetry enabled for
        the job/planner sections to be populated.  See
        :func:`repro.obs.merge.merge_fleet_trace` for the layout.
        """
        from repro.obs.merge import save_merged_trace

        return save_merged_trace(path, self)
