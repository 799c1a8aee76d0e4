"""Multi-job elastic training runtime over one shared dynamic cluster.

The :class:`FleetScheduler` runs many training jobs concurrently on the
devices of a single :class:`~repro.cluster.topology.ClusterTopology`:

* **Admission** — queued jobs are ordered by a configurable policy (FIFO,
  shortest-remaining-work or preemptive priority) and gang-scheduled
  all-or-nothing onto ``dp × pp × tp`` device groups, with backfilling: a
  job that does not fit is skipped, not a barrier.
* **Execution** — each admitted job's iterations run through the existing
  planner/executor stack (optionally via one fleet-wide, process-backed
  :class:`~repro.runtime.planner_pool.PlannerPool`); the fleet clock
  advances event by event, one committed iteration at a time, so
  concurrent jobs interleave exactly as their simulated iteration times
  dictate.
* **Dynamic capacity** — devices leave *and* join the cluster mid-run:
  injected failures remove them, :class:`DeviceRepairEvent`\\ s return
  failed devices to the free pool (automatically after
  ``FleetConfig.repair_delay_ms``, or at explicitly injected times), and
  :class:`DeviceArrivalEvent`\\ s add devices that were absent at the start
  of the run.  Queued jobs that cannot fit the currently-alive cluster are
  *not* declared unschedulable while capacity-returning events are still
  pending — they are admitted at the repair/arrival timestamp.
* **Failure preemption (elastic shrink)** — a device failure interrupts
  the owning job mid-iteration: the in-flight iteration is discarded, the
  gang is released (minus the dead device), and the job re-enters the
  queue to be re-planned from its checkpointed iteration boundary — on a
  smaller replica group when the alive cluster can no longer host the
  requested gang.  Planning failures (including
  :class:`~repro.runtime.planner_pool.PlanFailedError`\\ s from pool
  workers) take the same path.  Both count against the job's bounded retry
  budget; exhaustion marks the job *failed*, never hung.
* **Graceful preemption (boundary time-slicing)** — unlike a failure,
  policy-driven preemption happens only at an iteration boundary and lets
  the in-flight iteration *commit* first.  Two triggers share the path:
  a queued job the policy says ``preempts`` a running one (priority
  eviction — the victim requeues with its checkpoint intact and spends no
  retry budget), and **elastic regrowth** — a job running below its
  requested data-parallel degree re-expands onto a larger gang at the
  boundary as soon as repaired/arrived capacity allows, resuming from the
  checkpoint exactly like any other re-admission.

**Event ordering.**  At equal fleet-clock times events are processed as
*completion ≤ capacity (repair/arrival) ≤ job arrival ≤ failure*: an
iteration finishing in the same instant a device dies commits first; a
repair in the same instant a job arrives is applied before admission (so
the job can use the repaired device); an arriving job is admitted before a
simultaneous failure preempts it.  Within one completion, boundary checks
run in the order *finish → evict → regrow*.

Determinism: with fixed specs, failure/repair/arrival schedules and
policy, the run is a pure function of its inputs — iteration times come
from the seeded simulated executors and all ties are broken by the rule
above, then by submission order.

**Data-oriented core.**  Gang state lives in a
:class:`~repro.fleet.gang.GangAllocator` (numpy masks + O(1) owner
index).  Capacity events, injected failures and job ready-times share
**one indexed event heap** whose entries are ``(time, rank, seq, ...)``
tuples — rank encodes the tie-break contract (capacity < job arrival <
failure), so the heap top is the next event.  Completions live in a second
lazy heap keyed ``(completion_ms, sequence)`` with per-attempt validity
tokens, and admission passes are skipped entirely at boundaries where
nothing admission-relevant changed (a dirty flag raised by every queue /
capacity / free-pool mutation).  The golden fleet reports in
``tests/golden/`` — recorded when an object-allocator, scan-loop core
still ran beside this one, with both agreeing — pin every decision.
"""

from __future__ import annotations

import heapq
import inspect
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.topology import ClusterTopology
from repro.fleet.gang import DeviceGang, GangAllocator
from repro.runtime.planner_pool import PlannerPool
from repro.fleet.job import JobAttempt, JobRecord, JobSpec, JobState
from repro.fleet.metrics import CapacityEvent, FleetReport, summarize_job
from repro.fleet.policies import (
    PreemptivePriorityPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.fleet.session import JobExecution, JobPlanningError
from repro.obs import state as _obs_state
from repro.obs.events import publish as _obs_publish
from repro.obs.registry import REGISTRY
from repro.obs.simtrace import COLLECTOR as _SIM_COLLECTOR
from repro.simulator.trace import ExecutionTrace, TraceEvent
from repro.training.throughput import IterationRecord

#: Registry-backed fleet counters (``fleet.*`` in metric snapshots).
_FLEET_STATS = REGISTRY.counter_dict(
    "fleet",
    (
        "jobs_submitted",
        "attempts_started",
        "iterations_committed",
        "jobs_finished",
        "jobs_failed",
        "evictions",
        "regrowths",
        "device_failures",
        "device_repairs",
        "device_arrivals",
        "planner_faults_applied",
        "checkpoints_taken",
        "restores",
    ),
)


#: Unified-event-heap ranks.  At equal times the heap pops capacity events
#: before job-ready marks before failures — the *completion ≤ capacity ≤
#: arrival ≤ failure* contract (completions live in their own heap and win
#: ties by comparing ``<=`` against the event heap's top).
_RANK_CAPACITY = 0
_RANK_READY = 1
_RANK_FAILURE = 2


@dataclass(frozen=True)
class DeviceFailure:
    """A scheduled device failure (fleet-clock time, global device index)."""

    time_ms: float
    device: int


@dataclass(frozen=True)
class DeviceRepairEvent:
    """A scheduled repair: ``device`` returns to the free pool at ``time_ms``.

    Repairing a device that is not failed at that time (it never died, or
    was already repaired) is a no-op.
    """

    time_ms: float
    device: int


@dataclass(frozen=True)
class DeviceArrivalEvent:
    """A late arrival: ``device`` is absent from the start of the run and
    joins the free pool at ``time_ms``."""

    time_ms: float
    device: int


@dataclass
class FleetConfig:
    """Tunable knobs of the fleet scheduler.

    Attributes:
        policy: Admission ordering — ``"fifo"``, ``"srw"``, ``"priority"``
            or a :class:`~repro.fleet.policies.SchedulingPolicy` instance.
        repair_delay_ms: When set, every device failure automatically
            schedules a :class:`DeviceRepairEvent` that many milliseconds
            later; when ``None`` (default) failures are permanent unless a
            repair is injected explicitly.
        planner_processes: When > 0, one fleet-wide planner pool with that
            many workers — the paper's CPU-side *planning cluster* — plans
            every job's iterations; its workers are spawned once for the
            whole run and each job attempt registers its own job stream.
            Plans are bit-identical to inline planning.
        shared_planner_pool: Must stay ``True``: per-attempt private pools
            were removed, so ``False`` raises :class:`ValueError`.
        planner_lookahead: Plan-ahead window of each job stream.
        planner_timeout_s: Per-iteration plan wait bound of the pooled mode.
        max_events: Safety valve on processed scheduler events.
        planning_backoff_base_ms: When > 0, a planning failure delays the
            job's re-admission by ``base × factor^(streak-1)`` fleet-clock
            milliseconds (capped at ``planning_backoff_max_ms``, optionally
            jittered) instead of retrying in the same instant.  0 (default)
            keeps immediate retries.
        planning_backoff_factor: Exponential growth per consecutive
            planning failure.
        planning_backoff_max_ms: Ceiling of one backoff delay.
        planning_backoff_jitter: Uniform jitter fraction: each delay is
            multiplied by ``1 + jitter × U[0, 1)`` drawn from the
            scheduler's own seeded RNG (part of the checkpoint, so restored
            runs replay the same jitter).
        seed: Seed of the scheduler's RNG (backoff jitter).
        regrow_min_boundaries: Regrowth hysteresis — an elastically shrunk
            attempt must commit at least this many iteration (checkpoint)
            boundaries before the job may regrow, so a flapping cluster
            (fail/repair cycles) does not thrash shrink/regrow.  Values
            ``<= 1`` are equivalent to off (regrowth is only ever checked
            at a boundary, i.e. after >= 1 committed iteration).
        priority_aging_ms: Convenience knob wiring
            :class:`~repro.fleet.policies.PreemptivePriorityPolicy` aging:
            requires ``policy="priority"`` (pass a configured policy
            instance for anything fancier).
        checkpoint_interval_events: When set (with ``checkpoint_sink``),
            the scheduler snapshots itself every N event boundaries and
            hands the JSON-safe dict to the sink.
        checkpoint_sink: Callable receiving each periodic snapshot.
        on_event: Hook called with the scheduler at *every* event boundary
            (after the previous event fully applied, before the next
            admission pass).  May call :meth:`FleetScheduler.checkpoint`;
            an exception it raises propagates out of ``run()`` (this is how
            the tests and the chaos harness simulate a scheduler crash).
    """

    policy: "str | SchedulingPolicy" = "fifo"
    repair_delay_ms: float | None = None
    planner_processes: int = 0
    shared_planner_pool: bool = True
    planner_lookahead: int = 4
    planner_timeout_s: float = 600.0
    max_events: int = 1_000_000
    planning_backoff_base_ms: float = 0.0
    planning_backoff_factor: float = 2.0
    planning_backoff_max_ms: float = 60_000.0
    planning_backoff_jitter: float = 0.0
    seed: int = 0
    regrow_min_boundaries: int = 0
    priority_aging_ms: float | None = None
    checkpoint_interval_events: int | None = None
    checkpoint_sink: "Callable[[dict[str, Any]], None] | None" = None
    on_event: "Callable[[FleetScheduler], None] | None" = None

    def __post_init__(self) -> None:
        if not self.shared_planner_pool:
            raise ValueError(
                "shared_planner_pool=False was removed: pooled fleet planning "
                "always uses the scheduler's one shared planner pool"
            )


class SchedulerInvariantError(RuntimeError):
    """The scheduler's event loop reached a state its bookkeeping rules out."""


@dataclass
class _RunningJob:
    """Scheduler-side state of one admitted attempt."""

    record: JobRecord
    gang: DeviceGang
    execution: JobExecution
    attempt: JobAttempt
    iteration_started_ms: float = 0.0
    completion_ms: float = 0.0
    #: The in-flight iteration's (record, stats); committed at completion,
    #: discarded on failure preemption (graceful preemption waits for it).
    pending: "tuple[IterationRecord, object] | None" = None
    #: Whether the in-flight iteration was planned through the degraded
    #: inline fallback (every pool worker dead); folded into the record's
    #: ``degraded_iterations`` when the iteration commits.
    pending_degraded: bool = False
    #: Validity token of the job's entry in the scheduler's completion
    #: heap; stale heap entries (earlier iterations, ended attempts) carry
    #: an old token and are discarded lazily at peek time.
    token: int = 0


class FleetScheduler:
    """Admits, runs, preempts, regrows and retries jobs on a shared cluster.

    Args:
        topology: The shared cluster.
        config: Fleet configuration.
    """

    def __init__(self, topology: ClusterTopology, config: FleetConfig | None = None) -> None:
        self.topology = topology
        self.config = config or FleetConfig()
        if self.config.priority_aging_ms is not None:
            if self.config.policy != "priority":
                raise ValueError(
                    "priority_aging_ms requires policy='priority' (pass a "
                    "configured PreemptivePriorityPolicy instance otherwise)"
                )
            self.policy: SchedulingPolicy = PreemptivePriorityPolicy(
                aging_ms=self.config.priority_aging_ms
            )
        else:
            self.policy = make_policy(self.config.policy)
        if self.config.regrow_min_boundaries < 0:
            raise ValueError(
                f"regrow_min_boundaries must be >= 0, got {self.config.regrow_min_boundaries}"
            )
        self._preempts = self._adapt_preempts(self.policy)
        #: Policies that can never preempt skip the per-boundary eviction
        #: scan entirely.
        self._never_preempts = bool(
            getattr(
                self.policy,
                "never_preempts",
                getattr(self.policy, "preempts", None) is None,
            )
        )
        #: Non-aging priority policies admit a cheap conservative eviction
        #: prefilter (max static priority over the pending queue).
        self._static_priority = (
            isinstance(self.policy, PreemptivePriorityPolicy)
            and self.policy.aging_ms is None
        )
        self.allocator = GangAllocator(topology)
        self.jobs: dict[str, JobRecord] = {}
        self._pending: list[JobRecord] = []
        self._running: dict[str, _RunningJob] = {}
        self._failures: list[DeviceFailure] = []
        self._repairs: list[DeviceRepairEvent] = []
        self._arrivals: list[DeviceArrivalEvent] = []
        #: Scheduled planner-side faults: (time_ms, kind, count) with kind
        #: "planner_kill" or "store_error"; queued as capacity events.
        self._planner_faults: list[tuple[float, str, int]] = []
        #: Tie-break sequence of capacity events (see ``_event_heap``).
        self._capacity_seq = 0
        #: Per-device count of applied failures; an auto-repair applies
        #: only if the device's epoch still matches its own.
        self._failure_epoch: dict[int, int] = {}
        self._trace_events: list[TraceEvent] = []
        self._capacity_timeline: list[CapacityEvent] = []
        #: Per-device fleet-clock time it went dark (failed or not yet
        #: arrived); cleared on repair/arrival.  Feeds dead-time accounting
        #: so utilization's denominator only counts live capacity.
        self._down_since: dict[int, float] = {}
        self._dead_device_ms = 0.0
        self._busy_device_ms = 0.0
        self._ran = False
        #: The fleet-wide planning cluster (pooled mode only): spawned
        #: lazily on the first pooled attempt and stopped exactly once when
        #: run() ends.
        self._shared_pool: PlannerPool | None = None
        self._planner_workers_spawned = 0
        # --- event-loop state (instance-level so checkpoint() can snapshot
        # it at any event boundary and restore() can resume the loop) ---
        self._clock = 0.0
        self._events_processed = 0
        self._failures_sorted: "list[DeviceFailure] | None" = None
        self._next_failure = 0
        #: Seeded RNG of the scheduler itself (backoff jitter).  Its state
        #: is part of the checkpoint so restored runs replay it.
        self._rng = random.Random(self.config.seed)
        self._restored = False
        #: Running attempts awaiting deterministic re-materialisation at
        #: the start of a restored run() (record, gang, started, completion).
        self._restore_running: list[tuple[JobRecord, DeviceGang, float, float]] = []
        #: Completed repair durations (failure → repair, per device epoch);
        #: feeds the report's MTTR.
        self._repair_durations: list[float] = []
        #: Applied planner-side faults (worker kills, plan losses).
        self._fault_log: list[dict[str, Any]] = []
        # --- the unified event heap merges capacity events, injected
        # failures and job ready-times into one ordered source;
        # completions live in their own lazy heap; the dirty flag elides
        # admission passes at boundaries where nothing admission-relevant
        # changed. ---
        #: Entries ``(time_ms, rank, seq, kind, payload, epoch)``; see the
        #: ``_RANK_*`` constants for the tie-break encoding.  Capacity
        #: events (repairs, arrivals, planner faults) carry ``(time, seq)``
        #: identities that snapshots preserve.  Injected repairs/arrivals
        #: are queued at run() (epoch ``None``); auto-repairs are pushed as
        #: their failures are applied, stamped with that failure's epoch so
        #: a repair can only revive the failure it was scheduled for (a
        #: device that was repaired early and failed again must wait out
        #: the *new* failure's delay).
        self._event_heap: "list[tuple[float, int, int, str, Any, Any]]" = []
        self._event_seq = 0
        #: Entries ``(completion_ms, sequence, token, job_name)``.
        self._completion_heap: "list[tuple[float, int, int, str]]" = []
        self._completion_token = 0
        #: Count of queued repair/arrival entries (planner faults never add
        #: capacity), so ``_capacity_pending`` is O(1) when trivially false.
        self._capacity_live_entries = 0
        self._admit_dirty = True
        #: Cached max static priority over the pending queue (eviction
        #: prefilter); ``None`` = recompute on next use.
        self._pending_priority_cache: "float | None" = None

    @staticmethod
    def _adapt_preempts(policy: SchedulingPolicy) -> "Callable[[JobRecord, JobRecord, float], bool]":
        """The policy's preemption hook, normalised to 3-arg form.

        Custom policies written against the pre-time-slicing protocol
        (order() only) never preempt; the pre-aging 2-arg
        ``preempts(waiting, victim)`` is wrapped so existing policies keep
        working unchanged.
        """
        preempts = getattr(policy, "preempts", None)
        if preempts is None:
            return lambda waiting, victim, now_ms: False
        try:
            parameters = [
                parameter
                for parameter in inspect.signature(preempts).parameters.values()
                if parameter.kind
                in (
                    inspect.Parameter.POSITIONAL_ONLY,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                )
            ]
            takes_now = len(parameters) >= 3 or any(
                parameter.kind == inspect.Parameter.VAR_POSITIONAL
                for parameter in inspect.signature(preempts).parameters.values()
            )
        except (TypeError, ValueError):  # pragma: no cover - builtins/partials
            takes_now = True
        if takes_now:
            return preempts
        return lambda waiting, victim, now_ms: preempts(waiting, victim)

    # ------------------------------------------------------------------ planning cluster

    @property
    def _pooled(self) -> bool:
        return self.config.planner_processes > 0

    def _shared_pool_handle(self) -> PlannerPool | None:
        """The fleet-wide pool (started), or ``None`` when planning inline."""
        if not self._pooled:
            return None
        if self._shared_pool is None:
            self._shared_pool = PlannerPool(
                num_workers=self.config.planner_processes,
                lookahead=self.config.planner_lookahead,
            )
            self._shared_pool.start()
            self._planner_workers_spawned += self._shared_pool.num_workers
        return self._shared_pool

    def _stop_shared_pool(self) -> None:
        if self._shared_pool is not None:
            self._shared_pool.stop()

    # ------------------------------------------------------------------ submission

    def submit(self, spec: JobSpec) -> JobRecord:
        """Queue a job; returns its live record."""
        if self._ran:
            raise RuntimeError("cannot submit jobs after run()")
        if self._restored:
            raise RuntimeError(
                "cannot submit new jobs to a restored scheduler (restore "
                "resumes exactly the snapshotted fleet)"
            )
        if spec.name in self.jobs:
            raise ValueError(f"duplicate job name {spec.name!r}")
        if spec.parallel.pipeline_parallel != spec.cost_model.num_stages:
            raise ValueError(
                f"job {spec.name}: parallel shape {spec.parallel.describe()} does not "
                f"match the cost model's {spec.cost_model.num_stages} pipeline stages"
            )
        if (
            spec.planning_deadline_ms is not None
            and self.config.planning_backoff_base_ms <= 0
        ):
            raise ValueError(
                f"job {spec.name}: planning_deadline_ms requires "
                "FleetConfig.planning_backoff_base_ms > 0 (without a backoff "
                "delay a doomed planning streak would never consume fleet time)"
            )
        record = JobRecord(
            spec=spec, sequence=len(self.jobs), last_queued_ms=spec.submit_time_ms
        )
        self.jobs[spec.name] = record
        self._pending.append(record)
        _FLEET_STATS["jobs_submitted"] += 1
        _obs_publish(
            "job_submitted",
            time_ms=spec.submit_time_ms,
            job=spec.name,
            priority=spec.priority,
        )
        return record

    def _check_event_args(self, time_ms: float, device: int) -> None:
        if self._ran or self._restored:
            raise RuntimeError("cannot inject cluster events after run()")
        if time_ms < 0:
            raise ValueError(f"time_ms must be >= 0, got {time_ms}")
        if not 0 <= device < self.topology.num_gpus:
            raise ValueError(
                f"device {device} out of range [0, {self.topology.num_gpus})"
            )

    def inject_device_failure(self, time_ms: float, device: int) -> None:
        """Schedule ``device`` to fail at fleet-clock ``time_ms``."""
        self._check_event_args(time_ms, device)
        self._failures.append(DeviceFailure(time_ms=time_ms, device=device))

    def inject_device_repair(self, time_ms: float, device: int) -> None:
        """Schedule ``device`` to be repaired (failed → free) at ``time_ms``.

        A repair for a device that is not failed when the event fires is a
        no-op; with ``FleetConfig.repair_delay_ms`` set, explicit injections
        are rarely needed.
        """
        self._check_event_args(time_ms, device)
        self._repairs.append(DeviceRepairEvent(time_ms=time_ms, device=device))

    def inject_device_arrival(self, time_ms: float, device: int) -> None:
        """Schedule ``device`` to join the cluster late, at ``time_ms``.

        The device is *absent* — outside the free pool and not counted
        alive — from the start of the run until its arrival fires.
        """
        self._check_event_args(time_ms, device)
        if any(event.device == device for event in self._arrivals):
            raise ValueError(f"device {device} already has a scheduled arrival")
        self._arrivals.append(DeviceArrivalEvent(time_ms=time_ms, device=device))

    def inject_planner_fault(self, time_ms: float, kind: str, count: int = 1) -> None:
        """Schedule a planner-side fault at fleet-clock ``time_ms``.

        Kinds:

        * ``"planner_kill"`` — kill ``count`` live workers of the shared
          planner pool; a pool whose workers are all dead degrades its
          jobs to inline planning.
        * ``"store_error"`` — a transient plan-transport fault: ``count``
          running pooled jobs (in job order) lose their next pending plan
          payload, exercising the :class:`PlanFailedError` → retry/backoff
          path; the next attempt replans the iteration successfully.
        """
        if self._ran or self._restored:
            raise RuntimeError("cannot inject cluster events after run()")
        if time_ms < 0:
            raise ValueError(f"time_ms must be >= 0, got {time_ms}")
        if kind not in ("planner_kill", "store_error"):
            raise ValueError(
                f"unknown planner fault kind {kind!r}; "
                "choose 'planner_kill' or 'store_error'"
            )
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._planner_faults.append((time_ms, kind, count))

    def _push_capacity_event(
        self, time_ms: float, kind: str, device: int, epoch: "int | None" = None
    ) -> None:
        self._queue_capacity_event(time_ms, self._capacity_seq, kind, device, epoch)
        self._capacity_seq += 1

    def _queue_capacity_event(
        self, time_ms: float, seq: int, kind: str, device: int, epoch: "int | None"
    ) -> None:
        """Push a capacity event with its ``(time, seq)`` identity (restore
        re-queues snapshotted events under their original seq)."""
        heapq.heappush(
            self._event_heap, (time_ms, _RANK_CAPACITY, seq, kind, device, epoch)
        )
        if kind in ("repair", "arrival"):
            self._capacity_live_entries += 1

    def _capacity_event_live(self, kind: str, device: int, epoch: "int | None") -> bool:
        """Whether a queued capacity event could still *add* capacity.

        Planner faults never add capacity.  An auto-repair whose failure
        epoch was superseded (the device was repaired early and failed
        again) is dead; so is a repair for an alive device or an arrival
        for a device already present.
        """
        if kind in ("planner_kill", "store_error"):
            return False
        if kind == "arrival":
            return self.allocator.is_absent(device)
        if not self.allocator.is_failed(device):
            return False
        return epoch is None or self._failure_epoch.get(device) == epoch

    # ------------------------------------------------------------------ event loop

    def run(self) -> FleetReport:
        """Process every submitted job to a terminal state; returns the report."""
        if self._ran:
            raise RuntimeError("run() may only be called once")
        self._ran = True
        if not self._restored:
            for arrival in self._arrivals:
                self.allocator.mark_absent(arrival.device)
                self._down_since[arrival.device] = 0.0
                self._push_capacity_event(arrival.time_ms, "arrival", arrival.device)
            for repair in self._repairs:
                self._push_capacity_event(repair.time_ms, "repair", repair.device)
            for time_ms, kind, count in self._planner_faults:
                # Planner faults ride as capacity events: ``device`` carries
                # the count and the epoch slot is unused.
                self._push_capacity_event(time_ms, kind, count)
            self._failures_sorted = sorted(
                self._failures, key=lambda f: (f.time_ms, f.device)
            )
        self._seed_event_heap()
        try:
            # Restored running attempts are re-materialised here — inside
            # the try — so their planning resources are owned by the same
            # finally that covers the loop.
            for record, gang, started_ms, completion_ms in self._restore_running:
                self._resume_attempt(record, gang, started_ms, completion_ms)
            self._restore_running = []
            clock = self._run_event_loop()
        finally:
            # Pool lifecycle is exactly-once even when the event loop dies
            # unexpectedly: every still-running attempt's stream is retired,
            # then the planning cluster itself is torn down.
            for running in list(self._running.values()):
                running.execution.close()
            self._stop_shared_pool()
        return self._build_report(clock)

    @staticmethod
    def _ready_ms(record: JobRecord) -> float:
        """Earliest fleet-clock time the queued record may be admitted:
        its submit time, pushed back by any planning-backoff hold."""
        return max(record.spec.submit_time_ms, record.not_before_ms)

    def _event_boundary(self) -> None:
        """Hook point at the top of every event-loop iteration.

        The previous event has fully applied and the next admission pass
        has not started — the exact state :meth:`checkpoint` snapshots.
        The periodic checkpoint sink fires first, then the ``on_event``
        hook (whose exceptions propagate: that is the crash-simulation
        path the chaos tests use).
        """
        config = self.config
        if (
            config.checkpoint_interval_events is not None
            and config.checkpoint_sink is not None
            and self._events_processed > 0
            and self._events_processed % config.checkpoint_interval_events == 0
        ):
            config.checkpoint_sink(self.checkpoint())
            _FLEET_STATS["checkpoints_taken"] += 1
            _obs_publish(
                "checkpoint_taken",
                time_ms=self._clock,
                events_processed=self._events_processed,
            )
        if config.on_event is not None:
            config.on_event(self)

    # ------------------------------------------------------------------ event heaps

    def _seed_event_heap(self) -> None:
        """Complete the unified event heap at the start of a (restored) run.

        Capacity events are already queued (by run() or by restore).
        Injected failures enter with their schedule index as the seq
        (``_failures_sorted`` order), and every pending job with a future
        ready-time gets a job-ready mark.
        """
        failures = self._failures_sorted or []
        for index in range(self._next_failure, len(failures)):
            failure = failures[index]
            heapq.heappush(
                self._event_heap,
                (failure.time_ms, _RANK_FAILURE, index, "failure", failure.device, None),
            )
        for record in self._pending:
            self._push_ready_event(record)

    def _push_ready_event(self, record: JobRecord) -> None:
        """Mark a queued job's future ready-time in the event heap.

        Jobs already admissible (ready ≤ clock) need no mark — the next
        admission pass sees them; the clock never moves backwards, so a
        mark skipped now can never be needed later.
        """
        ready_ms = self._ready_ms(record)
        if ready_ms > self._clock:
            self._event_seq += 1
            heapq.heappush(
                self._event_heap,
                (ready_ms, _RANK_READY, self._event_seq, "ready", record.spec.name, None),
            )

    def _on_requeued(self, record: JobRecord) -> None:
        """Bookkeeping hook after ``record`` re-enters the pending queue."""
        self._pending_priority_cache = None
        self._admit_dirty = True
        self._push_ready_event(record)

    def _pending_max_priority(self) -> float:
        """Max static priority over the pending queue (cached)."""
        cached = self._pending_priority_cache
        if cached is None:
            cached = max(
                (record.spec.priority for record in self._pending),
                default=float("-inf"),
            )
            self._pending_priority_cache = cached
        return cached

    def _peek_completion(self) -> "tuple[float, _RunningJob | None]":
        """Next live completion ``(time, running)``; lazily drops stale entries.

        An entry is live iff its job is still running *and* its token
        matches the attempt's current iteration — entries from committed
        iterations or ended attempts are discarded on sight.  Live entries
        order by ``(completion_ms, sequence)``: submission order breaks
        ties between equal completion times.
        """
        heap = self._completion_heap
        while heap:
            completion_ms, _sequence, token, name = heap[0]
            running = self._running.get(name)
            if running is not None and running.token == token:
                return completion_ms, running
            heapq.heappop(heap)
        return float("inf"), None

    def _peek_next_event(self, clock: float) -> float:
        """Time of the next live event-heap entry (``inf`` when drained).

        Capacity and failure entries are always live (stale capacity
        events are consumed as no-op loop events).  A job-ready mark is
        live only while its job is still pending with that exact ready-time
        in the future — re-queues push fresh marks, so superseded ones are
        dropped here.
        """
        heap = self._event_heap
        while heap:
            entry = heap[0]
            if entry[1] == _RANK_READY:
                record = self.jobs[entry[4]]
                if (
                    entry[0] <= clock
                    or record.state != JobState.PENDING
                    or self._ready_ms(record) != entry[0]
                ):
                    heapq.heappop(heap)
                    continue
            return entry[0]
        return float("inf")

    def _run_event_loop(self) -> float:
        """Process events until every job is terminal; returns the end clock.

        One iteration per event: the completion heap's top is compared
        ``<=`` against the unified event heap's top, whose rank field
        encodes *capacity ≤ arrival ≤ failure* at equal times — so popping
        the winner applies the four-way tie-break of the event-ordering
        contract.
        """
        infinity = float("inf")
        event_heap = self._event_heap
        while self._pending or self._running:
            self._event_boundary()
            self._events_processed += 1
            if self._events_processed > self.config.max_events:
                raise RuntimeError(
                    f"fleet scheduler exceeded {self.config.max_events} events; "
                    "likely a scheduling livelock"
                )
            clock = self._clock
            self._admit(clock)
            if not self._pending and not self._running:
                break
            t_completion, next_completion = self._peek_completion()
            t_event = self._peek_next_event(clock)
            if t_completion == infinity and t_event == infinity:
                # Backstop: nothing executing and no event can ever free
                # or add capacity, so the remaining queue is unschedulable
                # (_admit normally catches this per job).
                for record in list(self._pending):
                    self._mark_failed(
                        record, clock, "unschedulable: no capacity and no pending events"
                    )
                continue
            if t_completion <= t_event:
                heapq.heappop(self._completion_heap)
                self._clock = clock = t_completion
                if next_completion is None:
                    raise SchedulerInvariantError("a completion was popped with no running job")
                self._complete_iteration(next_completion, clock)
                if t_completion == t_event:
                    # A capacity/ready/failure event shares this instant;
                    # the next admission pass must see any ready-crossing,
                    # so the elision guard is raised.
                    self._admit_dirty = True
            else:
                entry = heapq.heappop(event_heap)
                self._clock = clock = entry[0]
                self._admit_dirty = True
                self._apply_heap_event(entry, clock)
        # Events due by the end of the run but after the last job event
        # (e.g. a second device dying in the same instant that made the
        # queue unschedulable, or a repair landing exactly then) still
        # count against the cluster's capacity accounting: ascending time,
        # capacity before failure at ties; job-ready marks are moot once
        # the queue is empty.
        clock = self._clock
        while event_heap and event_heap[0][0] <= clock:
            self._apply_heap_event(heapq.heappop(event_heap), clock)
        return clock

    def _apply_heap_event(
        self, entry: "tuple[float, int, int, str, Any, Any]", clock: float
    ) -> None:
        """Apply one popped event-heap entry at ``clock``.

        A job-ready mark needs no action: the clock advanced to the
        ready-time, and the next admission pass seats the job.
        """
        _time_ms, rank, _seq, kind, payload, epoch = entry
        if rank == _RANK_CAPACITY:
            if kind in ("repair", "arrival"):
                self._capacity_live_entries -= 1
            self._apply_capacity_event(kind, payload, clock, epoch)
        elif rank == _RANK_FAILURE:
            self._apply_failure(payload, clock)
            self._next_failure += 1

    # ------------------------------------------------------------------ admission

    def _allowed_data_parallel(self, spec: JobSpec) -> int | None:
        """Largest replica count the *alive* cluster could ever host.

        Elastic jobs shrink only on capacity loss — contention for
        currently-busy devices makes a job wait, not shrink.  Capacity that
        is merely scheduled to return later does not count: a shrunk job
        starts on what is alive now and regrows at a later boundary.
        """
        alive = self.allocator.alive_count
        requested = spec.parallel.data_parallel
        if spec.gang_size(requested) <= alive:
            return requested
        if not spec.elastic:
            return None
        for data_parallel in range(requested - 1, 0, -1):
            if spec.gang_size(data_parallel) <= alive:
                return data_parallel
        return None

    def _capacity_pending(self) -> bool:
        """Whether any queued repair/arrival could still grow the alive set."""
        if self._capacity_live_entries == 0:
            return False
        return any(
            self._capacity_event_live(entry[3], entry[4], entry[5])
            for entry in self._event_heap
            if entry[1] == _RANK_CAPACITY
        )

    def _admit(self, clock: float) -> None:
        """Admit queued jobs (policy order, backfilling) while gangs fit.

        Backfilling never steals from a *draining* higher-precedence
        waiter: once a queued job is found that does not fit but whose
        seat is being freed by boundary evictions
        (:meth:`_eviction_feasible`), jobs it preempts are barred from
        admission — otherwise an evicted victim would be backfilled right
        back onto the devices just freed for the waiter, ping-ponging
        evictions without ever seating it.

        The pass is elided outright at boundaries where
        nothing admission-relevant changed since the last pass (no queue,
        free-pool, alive-set or capacity-heap mutation — policy order keys
        may drift with the clock, but an admission needs a *fit*, and the
        previous pass exhausted those), and the policy sort is skipped when
        no admissible job could fit the free pool or be declared
        unschedulable (allocation succeeds iff ``gang size ≤ free count``,
        so a scan could only have appended to ``draining`` — no side
        effects).
        """
        if not self._admit_dirty:
            return
        self._admit_dirty = False
        progressed = True
        while progressed:
            progressed = False
            admissible = [r for r in self._pending if self._ready_ms(r) <= clock]
            if not admissible:
                return
            free_count = self.allocator.free_count
            feasible = False
            for record in admissible:
                data_parallel = self._allowed_data_parallel(record.spec)
                if (
                    data_parallel is None
                    or record.spec.gang_size(data_parallel) <= free_count
                ):
                    feasible = True
                    break
            if not feasible:
                return
            draining: list[JobRecord] = []
            for record in self.policy.order(admissible, clock):
                if any(self._preempts(waiter, record, clock) for waiter in draining):
                    continue  # freed devices are reserved for the waiter
                spec = record.spec
                data_parallel = self._allowed_data_parallel(spec)
                if data_parallel is None:
                    if self._capacity_pending():
                        # A pending repair/arrival may make the job fit; it
                        # is admitted at that event's timestamp, not failed.
                        continue
                    self._mark_failed(
                        record,
                        clock,
                        f"unschedulable: needs {spec.min_gang_size if spec.elastic else spec.gang_size(spec.parallel.data_parallel)} "
                        f"devices, only {self.allocator.alive_count} alive",
                    )
                    progressed = True
                    break
                gang = self.allocator.allocate(
                    spec.name,
                    data_parallel,
                    spec.parallel.pipeline_parallel,
                    spec.parallel.tensor_parallel,
                )
                if gang is None:
                    if self._eviction_feasible(record, clock):
                        draining.append(record)
                    continue  # busy right now — backfill with the next job
                self._pending.remove(record)
                self._pending_priority_cache = None
                self._start_attempt(record, gang, clock)
                progressed = True
                break  # queue changed; recompute policy order

    def _start_attempt(self, record: JobRecord, gang: DeviceGang, clock: float) -> None:
        """Place ``record`` on ``gang`` and execute its first iteration.

        The caller has already taken ``record`` off the pending queue (or,
        for regrowth, never requeued it) and owns ``gang``.
        """
        spec = record.spec
        record.state = JobState.RUNNING
        if record.first_admitted_ms is None:
            record.first_admitted_ms = clock
        attempt = JobAttempt(
            index=len(record.attempts),
            data_parallel=gang.data_parallel,
            devices=gang.devices,
            admitted_ms=clock,
            start_iteration=record.checkpoint.completed_iterations,
        )
        record.attempts.append(attempt)
        _FLEET_STATS["attempts_started"] += 1
        _obs_publish(
            "job_admitted",
            time_ms=clock,
            job=spec.name,
            attempt=attempt.index,
            data_parallel=gang.data_parallel,
            gang_size=gang.size,
            start_iteration=attempt.start_iteration,
        )
        try:
            execution = JobExecution(
                record,
                gang,
                pool=self._shared_pool_handle(),
                planner_lookahead=self.config.planner_lookahead,
                planner_timeout_s=self.config.planner_timeout_s,
            )
        except JobPlanningError as error:
            attempt.outcome = "plan_failure"
            attempt.ended_ms = clock
            self.allocator.release(gang)
            self._retry_or_fail(record, clock, str(error), planning=True)
            return
        running = _RunningJob(record=record, gang=gang, execution=execution, attempt=attempt)
        self._running[spec.name] = running
        self._advance(running, clock)

    # ------------------------------------------------------------------ execution

    def _advance(self, running: _RunningJob, clock: float) -> None:
        """Start the job's next iteration (or finish the job)."""
        try:
            result = running.execution.step()
        except JobPlanningError as error:
            self._end_attempt(running, clock, outcome="plan_failure")
            self._retry_or_fail(running.record, clock, str(error), planning=True)
            return
        if result is None:
            self._finish_job(running, clock)
            return
        record_, _stats = result
        running.pending = result
        running.pending_degraded = running.execution.last_step_degraded
        running.iteration_started_ms = clock
        running.completion_ms = clock + record_.measured_ms
        self._completion_token += 1
        running.token = self._completion_token
        heapq.heappush(
            self._completion_heap,
            (
                running.completion_ms,
                running.record.sequence,
                running.token,
                running.record.spec.name,
            ),
        )

    def _complete_iteration(self, running: _RunningJob, clock: float) -> None:
        """Commit the in-flight iteration, then act on the boundary.

        Boundary order is *finish → evict → regrow*: a job whose epoch is
        done finishes regardless of queue pressure; otherwise a waiting
        higher-priority job may gracefully take the gang; otherwise a job
        running below its requested replica count regrows if repaired or
        arrived capacity now fits a larger gang.
        """
        if running.pending is None:
            raise SchedulerInvariantError(
                f"job {running.record.spec.name} completed an iteration with none in flight"
            )
        record_, stats = running.pending
        running.pending = None
        running.record.checkpoint.commit(
            record_,
            stats.encoder_efficiency,
            stats.decoder_efficiency,
        )
        running.attempt.iterations_completed += 1
        # A committed iteration proves planning works again: the backoff
        # streak and deadline window reset.
        running.record.planning_failure_streak = 0
        running.record.planning_failed_since_ms = None
        if running.pending_degraded:
            running.record.degraded_iterations += 1
            running.pending_degraded = False
        duration = clock - running.iteration_started_ms
        self._busy_device_ms += running.gang.size * duration
        _FLEET_STATS["iterations_committed"] += 1
        REGISTRY.histogram("fleet.iteration_ms").observe(duration)
        _obs_publish(
            "iteration_committed",
            time_ms=clock,
            job=running.record.spec.name,
            iteration=record_.iteration,
            duration_ms=duration,
        )
        if _obs_state.enabled():
            op_traces = running.execution.session.last_op_traces
            if op_traces:
                _SIM_COLLECTOR.add(
                    running.record.spec.name,
                    record_.iteration,
                    start_ms=running.iteration_started_ms,
                    replica_traces=op_traces,
                )
        for device in running.gang.devices:
            self._trace_events.append(
                TraceEvent(
                    device=device,
                    name=f"{running.record.spec.name}:{record_.iteration}",
                    start_ms=running.iteration_started_ms,
                    end_ms=clock,
                    category="compute",
                    microbatch=record_.iteration,
                )
            )
        if running.record.remaining_iterations > 0:
            if self._maybe_evict(running, clock):
                return
            if self._maybe_regrow(running, clock):
                return
        self._advance(running, clock)

    def _finish_job(self, running: _RunningJob, clock: float) -> None:
        """The attempt ran out of iterations: the job is done."""
        self._end_attempt(running, clock, outcome="finished")
        record = running.record
        record.state = JobState.FINISHED
        record.finished_ms = clock
        _FLEET_STATS["jobs_finished"] += 1
        _obs_publish("job_finished", time_ms=clock, job=record.spec.name)

    def _end_attempt(self, running: _RunningJob, clock: float, outcome: str) -> None:
        """Tear down a running attempt and release its gang.

        Every attempt that entered ``_running`` passes through here exactly
        once, whatever its outcome (finished, device failure, plan failure,
        eviction, regrowth) — ``close()`` is therefore called exactly once
        per attempt, so no pool stream stays registered after its job
        leaves the cluster.
        """
        running.execution.close()
        running.attempt.outcome = outcome
        running.attempt.ended_ms = clock
        running.pending = None
        self.allocator.release(running.gang)
        del self._running[running.record.spec.name]
        # The free pool grew (or ownership changed): re-run admission.
        self._admit_dirty = True

    # ------------------------------------------------------------------ graceful preemption

    def _eviction_feasible(self, waiter: JobRecord, clock: float) -> bool:
        """Whether boundary evictions could actually seat queued ``waiter``.

        True only when the waiter does *not* fit the free pool as-is and
        the free pool plus every lower-precedence running gang covers its
        need — the shared guard that prevents pointless evictions (at a
        boundary) and pointless device reservation (during admission).
        """
        data_parallel = self._allowed_data_parallel(waiter.spec)
        if data_parallel is None:
            return False
        need = waiter.spec.gang_size(data_parallel)
        if self.allocator.free_count >= need:
            return False  # fits without eviction; the next _admit seats it
        if self._never_preempts:
            return False  # no running gang is ever evictable
        evictable = sum(
            other.gang.size
            for other in self._running.values()
            if self._preempts(waiter, other.record, clock)
        )
        return self.allocator.free_count + evictable >= need

    def _maybe_evict(self, running: _RunningJob, clock: float) -> bool:
        """Gracefully evict ``running`` at this boundary if the policy says a
        waiting job takes precedence and eviction can actually help
        (:meth:`_eviction_feasible`).  The victim requeues with its
        checkpoint intact and spends no retry budget (this is
        time-slicing, not a failure)."""
        victim = running.record
        if self._never_preempts:
            return False
        if (
            self._static_priority
            and self._pending_max_priority() <= victim.spec.priority
        ):
            # No queued job's (static) priority beats the victim's, so no
            # waiter can preempt it — skip the scan.
            return False
        waiting = [
            record
            for record in self._pending
            if self._ready_ms(record) <= clock
            and self._preempts(record, victim, clock)
        ]
        if not waiting:
            return False
        for waiter in self.policy.order(waiting, clock):
            if not self._eviction_feasible(waiter, clock):
                continue
            victim.evictions += 1
            self._end_attempt(running, clock, outcome="evicted")
            victim.state = JobState.PENDING
            victim.last_queued_ms = clock
            self._pending.append(victim)
            self._on_requeued(victim)
            _FLEET_STATS["evictions"] += 1
            _obs_publish(
                "job_evicted",
                time_ms=clock,
                job=victim.spec.name,
                waiter=waiter.spec.name,
            )
            return True
        return False

    def _maybe_regrow(self, running: _RunningJob, clock: float) -> bool:
        """Re-expand an elastically shrunk job at this checkpoint boundary.

        Grows to the largest replica count (up to the request) the free
        pool plus the job's own gang can host, reusing the normal
        checkpoint/resume path: the shrunk attempt ends ``"regrown"``, its
        gang is released, and a fresh attempt starts at the boundary on the
        larger gang — devices the job already holds are never lost to a
        competing admission because release and re-allocation happen within
        one scheduler event.

        A queued job the policy says preempts this one has first claim on
        the free pool: if such a waiter fits it as-is, regrowth yields and
        the next ``_admit`` seats the waiter instead — otherwise a
        lower-priority regrowth would swallow the very devices the waiter
        was about to start on (priority inversion).
        """
        record = running.record
        spec = record.spec
        if not spec.elastic:
            return False
        requested = spec.parallel.data_parallel
        current = running.gang.data_parallel
        if current >= requested:
            return False
        if running.attempt.iterations_completed < self.config.regrow_min_boundaries:
            # Hysteresis: a freshly (re)started shrunk attempt must prove
            # this many committed boundaries before it may regrow, so a
            # flapping cluster does not thrash shrink/regrow.
            return False
        for waiter in self._pending:
            if self._ready_ms(waiter) > clock or not self._preempts(
                waiter, record, clock
            ):
                continue
            data_parallel = self._allowed_data_parallel(waiter.spec)
            if (
                data_parallel is not None
                and waiter.spec.gang_size(data_parallel) <= self.allocator.free_count
            ):
                return False  # the free devices are the waiter's seat
        budget = self.allocator.free_count + running.gang.size
        target = None
        for data_parallel in range(requested, current, -1):
            if spec.gang_size(data_parallel) <= budget:
                target = data_parallel
                break
        if target is None:
            return False
        record.regrows += 1
        _FLEET_STATS["regrowths"] += 1
        _obs_publish(
            "job_regrown",
            time_ms=clock,
            job=spec.name,
            from_data_parallel=current,
            to_data_parallel=target,
        )
        self._end_attempt(running, clock, outcome="regrown")
        gang = self.allocator.allocate(
            spec.name,
            target,
            spec.parallel.pipeline_parallel,
            spec.parallel.tensor_parallel,
        )
        if gang is None:
            raise SchedulerInvariantError("regrowth allocation must fit the freed budget")
        self._start_attempt(record, gang, clock)
        return True

    # ------------------------------------------------------------------ failures / repairs

    def _apply_failure(self, device: int, clock: float) -> None:
        """A device dies: preempt the owning job (if any) mid-iteration."""
        was_dead = self.allocator.is_failed(device) or self.allocator.is_absent(device)
        gang = self.allocator.fail_device(device)
        if not was_dead:
            self._down_since[device] = clock
            self._failure_epoch[device] = self._failure_epoch.get(device, 0) + 1
            self._log_capacity(clock, "failure", device)
            if self.config.repair_delay_ms is not None:
                self._push_capacity_event(
                    clock + self.config.repair_delay_ms,
                    "repair",
                    device,
                    epoch=self._failure_epoch[device],
                )
        if gang is None:
            return  # idle, absent or already-failed device: capacity shrank
        running = self._running.get(gang.job)
        if running is None or running.gang is not gang:  # pragma: no cover - defensive
            return
        record = running.record
        record.preemptions += 1
        _obs_publish(
            "job_preempted", time_ms=clock, job=record.spec.name, device=device
        )
        self._end_attempt(running, clock, outcome="device_failure")
        self._retry_or_fail(
            record, clock, f"device {device} failed at {clock:.1f} ms mid-iteration"
        )

    def _apply_capacity_event(
        self, kind: str, device: int, clock: float, epoch: "int | None" = None
    ) -> None:
        """A repair or arrival fires: return ``device`` to the free pool.

        Stale events are no-ops: a repair for an alive device, and an
        auto-repair whose failure epoch was superseded (the device was
        repaired early and has failed again since — only the *new*
        failure's own repair may revive it).
        """
        if kind in ("planner_kill", "store_error"):
            # Planner faults ride the capacity heap; ``device`` is the count.
            self._apply_planner_fault(kind, device, clock)
            return
        if kind == "arrival":
            self.allocator.arrive_device(device)
        else:
            if epoch is not None and self._failure_epoch.get(device) != epoch:
                return  # auto-repair of an already-superseded failure
            if not self.allocator.repair_device(device):
                return  # stale repair (device alive): no-op
        down_ms = clock - self._down_since.pop(device)
        self._dead_device_ms += down_ms
        if kind == "repair":
            self._repair_durations.append(down_ms)
        self._log_capacity(clock, kind, device)

    def _apply_planner_fault(self, kind: str, count: int, clock: float) -> None:
        """A scheduled planner-side fault fires.

        ``planner_kill`` kills up to ``count`` live workers of the shared
        pool — once it has lost every worker, its jobs degrade to inline
        planning at their next step.  ``store_error`` drops the next
        pending plan payload of up to ``count`` running pooled jobs (job
        order), which surfaces as a transient :class:`PlanFailedError` on
        the consumer side and takes the normal retry/backoff path.
        """
        applied = 0
        pool = self._shared_pool
        if pool is not None and kind == "planner_kill":
            applied = pool.kill_workers(count)
        elif pool is not None:  # store_error
            for running in sorted(
                self._running.values(), key=lambda rj: rj.record.sequence
            ):
                if applied >= count:
                    break
                iteration = running.execution.next_pending_iteration
                if iteration is None:
                    continue
                if pool.inject_plan_loss(running.execution.stream_key, iteration):
                    applied += 1
        self._fault_log.append(
            {"time_ms": clock, "kind": kind, "requested": count, "applied": applied}
        )
        _FLEET_STATS["planner_faults_applied"] += applied
        _obs_publish(
            "fault_injected", time_ms=clock, fault=kind, requested=count, applied=applied
        )

    def _log_capacity(self, clock: float, event: str, device: int) -> None:
        alive = self.allocator.alive_count
        self._capacity_timeline.append(
            CapacityEvent(
                time_ms=clock,
                event=event,
                device=device,
                alive_count=alive,
            )
        )
        _FLEET_STATS[f"device_{event}s"] += 1
        REGISTRY.gauge("fleet.alive_devices").set(alive)
        _obs_publish(f"device_{event}", time_ms=clock, device=device, alive=alive)

    def _planning_backoff_delay(self, record: JobRecord) -> float:
        """Exponential backoff delay for the record's current failure streak.

        ``base × factor^(streak-1)`` capped at the max, then jittered by
        ``1 + jitter × U[0, 1)`` from the scheduler's seeded RNG (whose
        state is checkpointed, so restored runs replay the same draws).
        """
        config = self.config
        streak = max(1, record.planning_failure_streak)
        delay = config.planning_backoff_base_ms * (
            config.planning_backoff_factor ** (streak - 1)
        )
        delay = min(delay, config.planning_backoff_max_ms)
        if config.planning_backoff_jitter > 0:
            delay *= 1.0 + config.planning_backoff_jitter * self._rng.random()
        return delay

    def _retry_or_fail(
        self, record: JobRecord, clock: float, reason: str, planning: bool = False
    ) -> None:
        """Requeue the job from its checkpoint, or fail it after bounded retries.

        Planning failures (``planning=True``) additionally drive the
        backoff/deadline machinery: with ``planning_backoff_base_ms > 0``
        the re-admission is pushed back exponentially in the failure
        streak, and a job with a ``planning_deadline_ms`` burns *wall
        time* against that deadline instead of retry budget — it fails
        only when planning has not succeeded for that long (the streak
        resets on every committed iteration).
        """
        if planning:
            record.planning_failure_streak += 1
            if record.planning_failed_since_ms is None:
                record.planning_failed_since_ms = clock
            deadline = record.spec.planning_deadline_ms
            if (
                deadline is not None
                and clock - record.planning_failed_since_ms >= deadline
            ):
                self._mark_failed(
                    record,
                    clock,
                    f"planning deadline exceeded ({deadline:g} ms, "
                    f"{record.planning_failure_streak} consecutive failures): {reason}",
                    dequeue=False,
                )
                return
            if self.config.planning_backoff_base_ms > 0:
                record.not_before_ms = clock + self._planning_backoff_delay(record)
                record.planning_retries += 1
                if deadline is not None:
                    # Deadline mode: wall time, not retry budget, bounds
                    # the streak.
                    record.state = JobState.PENDING
                    record.last_queued_ms = clock
                    self._pending.append(record)
                    self._on_requeued(record)
                    return
        record.retries += 1
        if record.retries > record.spec.max_retries:
            self._mark_failed(
                record,
                clock,
                f"retries exhausted ({record.spec.max_retries}): {reason}",
                dequeue=False,
            )
            return
        record.state = JobState.PENDING
        record.last_queued_ms = clock
        self._pending.append(record)
        self._on_requeued(record)

    def _mark_failed(
        self, record: JobRecord, clock: float, reason: str, dequeue: bool = True
    ) -> None:
        """Terminal failure: the job keeps its checkpoint but never runs again."""
        if dequeue and record in self._pending:
            self._pending.remove(record)
        self._pending_priority_cache = None
        self._admit_dirty = True
        record.state = JobState.FAILED
        record.failure_reason = reason
        record.finished_ms = clock
        _FLEET_STATS["jobs_failed"] += 1
        _obs_publish("job_failed", time_ms=clock, job=record.spec.name, reason=reason)

    # ------------------------------------------------------------------ checkpoint / restore

    def checkpoint(self) -> "dict[str, Any]":
        """JSON-safe snapshot of the full scheduler state at this boundary.

        Only valid at an event boundary — from the ``on_event`` hook or a
        ``checkpoint_sink`` — where no iteration result is half-applied.
        See :mod:`repro.fleet.checkpoint` for the format and the restore
        invariants.
        """
        from repro.fleet.checkpoint import snapshot_scheduler

        if not self._ran:
            raise RuntimeError(
                "checkpoint() is only valid at an event boundary inside "
                "run() (use the on_event hook or checkpoint_sink)"
            )
        return snapshot_scheduler(self)

    @classmethod
    def restore(
        cls,
        snapshot: "dict[str, Any]",
        topology: ClusterTopology,
        specs: "dict[str, JobSpec]",
        config: "FleetConfig | None" = None,
    ) -> "FleetScheduler":
        """Rebuild a scheduler from a :meth:`checkpoint` snapshot.

        ``specs`` supplies the (non-serialisable) job specs by name —
        planner factories, cost models and trainer configs live there.
        Calling :meth:`run` on the restored scheduler resumes the event
        loop deterministically: the finished run's per-job records and
        report are bit-identical to the uninterrupted run's (modulo
        wall-clock planning times and, in pooled mode, the respawned
        worker count).
        """
        from repro.fleet.checkpoint import restore_scheduler

        scheduler = restore_scheduler(snapshot, topology, specs, config=config, cls=cls)
        _FLEET_STATS["restores"] += 1
        _obs_publish("checkpoint_restored", time_ms=scheduler._clock)
        return scheduler

    def _resume_attempt(
        self,
        record: JobRecord,
        gang: DeviceGang,
        started_ms: float,
        completion_ms: float,
    ) -> None:
        """Re-materialise a snapshotted running attempt at restore time.

        The attempt's :class:`JobAttempt` entry already exists (appended by
        the original ``_start_attempt``), so only the execution object is
        rebuilt.  Determinism rests on the committed-iteration count: the
        rebuilt session fast-forwards its noise RNG past exactly the
        committed draws, so re-stepping regenerates the snapshot's
        in-flight iteration bit-identically — including its completion
        time, which is restored from the snapshot as a cross-check.
        """
        spec = record.spec
        try:
            execution = JobExecution(
                record,
                gang,
                pool=self._shared_pool_handle(),
                planner_lookahead=self.config.planner_lookahead,
                planner_timeout_s=self.config.planner_timeout_s,
            )
        except JobPlanningError as error:
            attempt = record.attempts[-1]
            attempt.outcome = "plan_failure"
            attempt.ended_ms = self._clock
            self.allocator.release(gang)
            self._retry_or_fail(record, self._clock, str(error), planning=True)
            return
        running = _RunningJob(
            record=record,
            gang=gang,
            execution=execution,
            attempt=record.attempts[-1],
        )
        self._running[spec.name] = running
        self._advance(running, self._clock)
        if spec.name in self._running and running.pending is not None:
            # The regenerated in-flight iteration keeps the snapshot's
            # start/completion stamps (it began before the checkpoint).
            running.iteration_started_ms = started_ms
            running.completion_ms = completion_ms
            # Supersede the entry _advance pushed for the regenerated
            # iteration with one carrying the snapshot's stamp.
            self._completion_token += 1
            running.token = self._completion_token
            heapq.heappush(
                self._completion_heap,
                (completion_ms, record.sequence, running.token, spec.name),
            )

    # ------------------------------------------------------------------ reporting

    def _build_report(self, clock: float) -> FleetReport:
        self.allocator.check_consistent()
        if self._running:
            raise SchedulerInvariantError("jobs still running after the event loop")
        dead_device_ms = self._dead_device_ms + sum(
            clock - since for since in self._down_since.values()
        )
        jobs = sorted(self.jobs.values(), key=lambda r: r.sequence)
        return FleetReport(
            policy=self.policy.name,
            jobs=[summarize_job(record) for record in jobs],
            makespan_ms=clock,
            busy_device_ms=self._busy_device_ms,
            num_devices=self.topology.num_gpus,
            failed_devices=sorted(self.allocator.failed_devices),
            absent_devices=sorted(self.allocator.absent_devices),
            dead_device_ms=dead_device_ms,
            capacity_timeline=list(self._capacity_timeline),
            trace=ExecutionTrace(events=list(self._trace_events)),
            planner_workers_spawned=self._planner_workers_spawned,
            repair_durations_ms=list(self._repair_durations),
            fault_log=list(self._fault_log),
            events_processed=self._events_processed,
        )

    def _capacity_heap_snapshot(self) -> "list[list[Any]]":
        """Queued capacity events as ``(time, seq, kind, device, epoch)``
        rows in canonical ``(time, seq)`` order."""
        entries = [
            (entry[0], entry[2], entry[3], entry[4], entry[5])
            for entry in self._event_heap
            if entry[1] == _RANK_CAPACITY
        ]
        return [list(entry) for entry in sorted(entries, key=lambda e: (e[0], e[1]))]
