"""Golden fleet reports: the recorded oracle of the fleet scheduler.

``golden/fleet_reports.json`` was recorded while the scheduler still
shipped two interchangeable cores — the bitmap allocator with its indexed
event heap, and the original object/set allocator with a scan-based event
loop.  Every entry was run under both cores and asserted identical before
it was written, so each entry is the object core's outcome as much as the
bitmap core's.  The one remaining core must reproduce every entry field for
field.

The scenarios live here so the recording and the checks share one
definition:

* ``chaos/<seed>`` — four jobs on 8 devices under a seeded random fault
  plan (device storms, rack outages) and the preemptive priority policy;
* ``equal_time`` — every event class colliding on one fleet-clock instant
  (the *completion ≤ capacity ≤ job arrival ≤ failure* contract);
* ``kill_restore`` — the chaos jobs with one scripted failure/repair pair,
  plus the version-2 snapshot taken at event boundary 4, which restored
  under either core finished identically to the uninterrupted run;
* ``trace_replay`` — a 30-job generated trace replayed under the priority
  policy.

``config`` keyword arguments are forwarded to
:class:`~repro.fleet.scheduler.FleetConfig`, which is how the recording
selected each core.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.cluster.topology import ClusterTopology
from repro.core.planner import PlannerConfig
from repro.fleet import (
    FaultInjector,
    FleetConfig,
    FleetScheduler,
    JobSpec,
    SyntheticTracePlanner,
    generate_trace,
    random_fault_plan,
    workload_cost_model,
)
from repro.fleet.metrics import FleetReport
from repro.fleet.workloads import GLOBAL_BATCH_TOKENS, _sample_pool, build_scheduler
from repro.parallel.config import ParallelConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "fleet_reports.json"

#: Fixed seeds of the chaos runs (formerly hypothesis draws).
CHAOS_SEEDS = (0, 1, 4242, 2**20)

#: Event boundary at which the kill/restore scenario crashes the scheduler.
KILL_AT_EVENT = 4


def report_fields(report: FleetReport) -> dict[str, Any]:
    """Every field ``assert_reports_identical`` compares, plus the event
    count, in JSON-normal form (tuples become lists)."""
    fields = {
        "policy": report.policy,
        "jobs": [asdict(job) for job in report.jobs],
        "makespan_ms": report.makespan_ms,
        "busy_device_ms": report.busy_device_ms,
        "num_devices": report.num_devices,
        "failed_devices": list(report.failed_devices),
        "absent_devices": list(report.absent_devices),
        "dead_device_ms": report.dead_device_ms,
        "capacity_timeline": [asdict(event) for event in report.capacity_timeline],
        "repair_durations_ms": list(report.repair_durations_ms),
        "fault_log": [dict(entry) for entry in report.fault_log],
        "trace_events": [asdict(event) for event in report.trace.events],
        "planner_workers_spawned": report.planner_workers_spawned,
        "events_processed": report.events_processed,
    }
    return json.loads(json.dumps(fields))


def load_golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def assert_matches_golden(report: FleetReport, expected: dict[str, Any]) -> None:
    """Field-by-field equality with a recorded entry (names the field)."""
    actual = report_fields(report)
    assert actual.keys() == expected["report"].keys()
    for name, value in expected["report"].items():
        assert actual[name] == value, name


# ---------------------------------------------------------------- scenarios


def chaos_planner_config() -> PlannerConfig:
    return PlannerConfig(order_search=False, tmax_sample_count=8)


def chaos_specs(cost_model, samples) -> list[JobSpec]:
    planner_config = chaos_planner_config()
    return [
        JobSpec(
            name=f"job{i}",
            cost_model=cost_model,
            samples=samples,
            global_batch_tokens=4096,
            parallel=ParallelConfig(1 + i % 2, 2, 1),
            num_iterations=2,
            planner_config=planner_config,
            seed=i,
            priority=i % 3,
            submit_time_ms=float(5 * i),
            max_retries=3,
        )
        for i in range(4)
    ]


def chaos_topology(device) -> ClusterTopology:
    return ClusterTopology.for_num_gpus(8, gpus_per_node=4, device_spec=device)


def run_chaos(seed: int, cost_model, samples, device, **config) -> FleetReport:
    topology = chaos_topology(device)
    plan = random_fault_plan(
        topology,
        seed=seed,
        duration_ms=80.0,
        storm_rate_per_s=40.0,
        rack_outage_probability=0.5,
    )
    scheduler = FleetScheduler(topology, FleetConfig(policy="priority", **config))
    for spec in chaos_specs(cost_model, samples):
        scheduler.submit(spec)
    FaultInjector(plan).apply(scheduler)
    return scheduler.run()


class ConstantPlanner(SyntheticTracePlanner):
    """Synthetic planner with exact (jitter-free) iteration times."""

    def iteration_ms(self, iteration: int) -> float:
        return self.base_iteration_ms


def constant_spec(name: str, iteration_ms: float, **overrides) -> JobSpec:
    cost_model = workload_cost_model("gpt-small")

    def factory(spec: JobSpec, data_parallel: int) -> ConstantPlanner:
        return ConstantPlanner(
            cost_model,
            data_parallel_size=data_parallel,
            requested_data_parallel=spec.parallel.data_parallel,
            base_iteration_ms=iteration_ms,
            seed=0,
        )

    defaults = dict(
        name=name,
        cost_model=cost_model,
        samples=_sample_pool("gpt"),
        global_batch_tokens=GLOBAL_BATCH_TOKENS,
        parallel=ParallelConfig(1, 1, 1),
        num_iterations=1,
        noise_std=0.0,
        execute_plans=False,
        planner_factory=factory,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def equal_time_scheduler(device, **config) -> FleetScheduler:
    """Everything collides at t=100 on a 2-device cluster: job A's only
    iteration completes, device 1's repair fires, job B arrives, and
    device 0 fails."""
    topology = ClusterTopology.for_num_gpus(2, gpus_per_node=2, device_spec=device)
    scheduler = FleetScheduler(topology, FleetConfig(**config))
    scheduler.submit(constant_spec("job-a", 100.0))
    scheduler.submit(constant_spec("job-b", 50.0, submit_time_ms=100.0, max_retries=2))
    scheduler.inject_device_failure(0.0, 1)
    scheduler.inject_device_repair(100.0, 1)
    scheduler.inject_device_failure(100.0, 0)
    return scheduler


def kill_restore_scheduler(
    cost_model, samples, device, **config
) -> tuple[FleetScheduler, list[JobSpec]]:
    """The chaos jobs with device 2 failing at 10 ms and repaired at 40 ms."""
    scheduler = FleetScheduler(
        chaos_topology(device), FleetConfig(policy="priority", **config)
    )
    specs = chaos_specs(cost_model, samples)
    for spec in specs:
        scheduler.submit(spec)
    scheduler.inject_device_failure(10.0, 2)
    scheduler.inject_device_repair(40.0, 2)
    return scheduler, specs


def replay_scheduler(**config) -> FleetScheduler:
    trace = generate_trace(num_jobs=30, num_nodes=2, gpus_per_node=8, seed=11)
    return build_scheduler(trace, config=FleetConfig(policy="priority", **config))
