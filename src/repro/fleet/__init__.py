"""Fleet scheduler: a multi-job elastic training runtime.

Runs many concurrent training jobs on one shared simulated cluster — gang
scheduling of pipeline-parallel device groups, FIFO / shortest-remaining-
work / preemptive-priority admission, checkpointed progress, and a fully
dynamic capacity model: device failures shrink the cluster, repairs and
late arrivals grow it back, elastic jobs shrink their data-parallel degree
after capacity loss and regrow toward the requested gang at iteration
boundaries, and higher-priority jobs gracefully evict running gangs at
iteration boundaries (time-slicing).  All re-admissions resume from the
job's last committed iteration boundary, bit-identical to a standalone
checkpoint-boundary restart.

The fleet is crash-resilient at both layers: the scheduler itself
checkpoints its full state at event boundaries and restores
deterministically (``repro.fleet.checkpoint``), and a fault-injection
harness (``repro.fleet.faults``) replays scripted or seeded-random fault
plans — failure storms, correlated rack outages, planner-worker kills and
transient plan losses — through the same capacity-event machinery.

See ``docs/ARCHITECTURE.md`` for the layer map, the event-ordering
contract, the elasticity state machine and the fault-tolerance design.
"""

from repro.fleet.checkpoint import (
    SchedulerKilled,
    restore_scheduler,
    snapshot_scheduler,
)
from repro.fleet.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    failure_storm,
    rack_outage,
    random_fault_plan,
)
from repro.fleet.gang import DeviceGang, GangAllocator, GangInvariantError
from repro.fleet.job import JobAttempt, JobCheckpoint, JobRecord, JobSpec, JobState
from repro.fleet.metrics import CapacityEvent, FleetReport, JobSummary, summarize_job
from repro.fleet.policies import (
    FifoPolicy,
    PreemptivePriorityPolicy,
    SchedulingPolicy,
    ShortestRemainingWorkPolicy,
    make_policy,
)
from repro.fleet.scheduler import (
    DeviceArrivalEvent,
    DeviceFailure,
    DeviceRepairEvent,
    FleetConfig,
    FleetScheduler,
)
from repro.fleet.session import JobExecution, JobPlanningError
from repro.fleet.workloads import (
    MODEL_CATALOG,
    SyntheticTracePlanner,
    TraceJob,
    WorkloadModel,
    WorkloadTrace,
    build_jobs,
    build_scheduler,
    generate_trace,
    replay_trace,
    workload_cost_model,
)

__all__ = [
    "CapacityEvent",
    "DeviceArrivalEvent",
    "DeviceFailure",
    "DeviceGang",
    "DeviceRepairEvent",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FifoPolicy",
    "FleetConfig",
    "FleetReport",
    "FleetScheduler",
    "GangAllocator",
    "GangInvariantError",
    "JobAttempt",
    "JobCheckpoint",
    "JobExecution",
    "JobPlanningError",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobSummary",
    "MODEL_CATALOG",
    "PreemptivePriorityPolicy",
    "SchedulerKilled",
    "SchedulingPolicy",
    "ShortestRemainingWorkPolicy",
    "SyntheticTracePlanner",
    "TraceJob",
    "WorkloadModel",
    "WorkloadTrace",
    "build_jobs",
    "build_scheduler",
    "failure_storm",
    "generate_trace",
    "make_policy",
    "rack_outage",
    "random_fault_plan",
    "replay_trace",
    "restore_scheduler",
    "snapshot_scheduler",
    "summarize_job",
    "workload_cost_model",
]
