"""Tier-2 benchmark of the fleet scheduler: multi-job runs on one cluster.

Runs a mixed fleet of training jobs — heterogeneous gang shapes, batch
sizes, priorities and submission times — on a shared simulated cluster
under all three admission policies (FIFO, shortest-remaining-work,
preemptive priority), with mid-run device failures *and* repairs
exercising the dynamic-capacity path, and reports the fleet metrics
(makespan, queueing delay, live-capacity device utilization,
retries/preemptions/evictions) side by side.  Run it with

    pytest benchmarks/bench_fleet_scheduler.py --benchmark-disable -s

(or ``pytest benchmarks/ -m tier2_bench``).  Besides producing the table,
it asserts the fleet invariants end to end: every job reaches a terminal
state, both injected failures are recorded and repaired, no device leaks,
shortest-remaining-work does not lose to FIFO on mean queueing delay for
this heterogeneous mix, and the preemptive policy does not lose to FIFO on
the *priority* jobs' mean queueing delay.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced workload the tier-1 suite runs
(fewer jobs and iterations) so this file cannot silently rot.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cluster.device import DeviceSpec
from repro.cluster.topology import ClusterTopology
from repro.core.planner import PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.data.flan import SyntheticFlanDataset
from repro.data.truncation import truncate_samples
from repro.fleet import FleetConfig, FleetScheduler, JobSpec, JobState
from repro.model.config import ModelArch, ModelConfig
from repro.parallel.config import ParallelConfig

from common import emit

#: Reduced workload (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

NUM_JOBS = 4 if SMOKE else 10
ITERATIONS_LONG = 2 if SMOKE else 4
CLUSTER_GPUS = 8
FAILURE_SCHEDULE = ((10.0, 0), (25.0, 5))
#: Every failed device returns to the free pool this long after dying, so
#: the policy comparison runs over a shrinking *and* regrowing cluster.
REPAIR_DELAY_MS = 30.0
#: Planner workers of the pooled planning-mode comparison.
PLANNER_PROCS = 1 if SMOKE else 2

FLEET_MODEL = ModelConfig(
    name="gpt-fleet-small",
    arch=ModelArch.GPT,
    num_layers=4,
    hidden_size=512,
    num_heads=8,
    kv_channels=64,
    ffn_hidden_size=2048,
    vocab_size=32000,
)

FLEET_DEVICE = DeviceSpec(
    name="fleet-gpu-8GB",
    peak_flops=100e12,
    memory_bandwidth=1e12,
    memory_capacity=8 * 1024**3,
)


def build_jobs(cost_model: CostModel, samples) -> list[JobSpec]:
    """A heterogeneous job mix: wide/narrow gangs, long/short epochs, and
    every fourth job a high-priority arrival (exercised by the preemptive
    policy, ignored by FIFO/SRW)."""
    planner_config = PlannerConfig(order_search=False, tmax_sample_count=8)
    jobs = []
    for index in range(NUM_JOBS):
        wide = index % 3 == 0
        jobs.append(
            JobSpec(
                name=f"job{index:02d}",
                cost_model=cost_model,
                samples=samples,
                global_batch_tokens=8192 if wide else 4096,
                parallel=ParallelConfig(2 if wide else 1, 2, 1),
                num_iterations=ITERATIONS_LONG if index % 2 == 0 else 1,
                planner_config=planner_config,
                seed=index,
                priority=2 if index % 4 == 1 else 0,
                submit_time_ms=5.0 * (index // 4),
            )
        )
    return jobs


def run_policy(policy: str, jobs: list[JobSpec], **config):
    topology = ClusterTopology.for_num_gpus(CLUSTER_GPUS, device_spec=FLEET_DEVICE)
    scheduler = FleetScheduler(
        topology,
        FleetConfig(policy=policy, repair_delay_ms=REPAIR_DELAY_MS, **config),
    )
    for spec in jobs:
        scheduler.submit(spec)
    for time_ms, device in FAILURE_SCHEDULE:
        scheduler.inject_device_failure(time_ms, device)
    return scheduler.run()


def priority_queueing_delay_ms(report) -> float:
    """Mean queueing delay of the high-priority jobs only."""
    delays = [
        job.queueing_delay_ms
        for job in report.jobs
        if job.priority > 0 and job.queueing_delay_ms is not None
    ]
    return sum(delays) / len(delays) if delays else 0.0


#: Planning transports compared by the planning-mode table: inline
#: planning vs. the fleet-wide shared pool ("planning cluster").
PLANNING_MODES = {
    "inline": dict(planner_processes=0),
    "shared-pool": dict(planner_processes=PLANNER_PROCS),
}


def run_planning_modes(jobs: list[JobSpec]):
    """The same fleet, planned inline vs through the shared pool.

    Simulated results (makespan, per-job outcomes) are identical by
    construction — the rows show what the planning *cluster* costs: worker
    spawn is paid once for the whole fleet, whatever its attempt count.
    """
    rows = []
    reports = {}
    for mode, config in PLANNING_MODES.items():
        start = time.perf_counter()
        report = run_policy("fifo", jobs, **config)
        wall_s = time.perf_counter() - start
        reports[mode] = report
        summary = report.summary()
        rows.append(
            [
                mode,
                summary["jobs"],
                summary["finished"],
                round(summary["makespan_ms"], 1),
                sum(job.attempts for job in report.jobs),
                report.planner_workers_spawned,
                round(wall_s, 2),
            ]
        )
    return rows, reports


def run():
    cost_model = CostModel(
        FLEET_MODEL,
        num_stages=2,
        device_spec=FLEET_DEVICE,
        max_profile_batch_size=32,
        max_profile_seq_len=1024,
    )
    samples = truncate_samples(
        SyntheticFlanDataset(num_samples=400, seed=7).samples, 512, decoder_only=True
    )
    jobs = build_jobs(cost_model, samples)
    rows = []
    reports = {}
    for policy in ("fifo", "srw", "priority"):
        report = run_policy(policy, jobs)
        reports[policy] = report
        summary = report.summary()
        rows.append(
            [
                policy,
                summary["jobs"],
                summary["finished"],
                summary["failed"],
                round(summary["makespan_ms"], 1),
                round(summary["mean_queueing_delay_ms"], 1),
                round(priority_queueing_delay_ms(report), 1),
                round(summary["device_utilization"], 3),
                summary["total_retries"],
                summary["total_preemptions"],
                summary["total_evictions"],
                summary["devices_repaired"],
            ]
        )
    return rows, reports


HEADERS = [
    "policy", "jobs", "finished", "failed", "makespan_ms",
    "mean_queue_ms", "prio_queue_ms", "utilization", "retries",
    "preemptions", "evictions", "repairs",
]

PLANNING_HEADERS = [
    "planning", "jobs", "finished", "makespan_ms", "attempts",
    "workers_spawned", "wall_s",
]


@pytest.mark.tier2_bench
def test_fleet_scheduler_bench(benchmark, capsys):
    rows, reports = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "fleet_scheduler",
        f"Fleet scheduler: {NUM_JOBS} jobs on {CLUSTER_GPUS} GPUs, "
        f"{len(FAILURE_SCHEDULE)} device failures repaired after "
        f"{REPAIR_DELAY_MS:.0f} ms",
        HEADERS,
        rows,
        capsys,
    )
    for policy, report in reports.items():
        # Every job terminal; both failures recorded and repaired; nothing
        # leaked.
        for job in report.jobs:
            assert job.state in (JobState.FINISHED, JobState.FAILED), (policy, job)
            if job.state == JobState.FINISHED:
                assert job.iterations_completed == job.target_iterations
        failures = [e for e in report.capacity_timeline if e.event == "failure"]
        assert sorted(e.device for e in failures) == sorted(
            d for t, d in FAILURE_SCHEDULE if t <= report.makespan_ms
        )
        # A repair fires only if due within the run; a failure whose repair
        # lands after the last job event stays dead to the end (its dead
        # time then runs failure → makespan).
        expected_dead = 0.0
        unrepaired = []
        for time_ms, device in FAILURE_SCHEDULE:
            if time_ms > report.makespan_ms:
                continue
            if time_ms + REPAIR_DELAY_MS <= report.makespan_ms:
                expected_dead += REPAIR_DELAY_MS
            else:
                expected_dead += report.makespan_ms - time_ms
                unrepaired.append(device)
        assert report.failed_devices == sorted(unrepaired)
        assert report.devices_repaired == len(failures) - len(unrepaired)
        assert report.dead_device_ms == pytest.approx(expected_dead)
        assert 0 < report.device_utilization <= 1
        assert report.finished_jobs == NUM_JOBS  # elastic retries absorb the failures
    # The heterogeneous mix is exactly where shortest-remaining-work earns
    # its keep over FIFO on mean queueing delay (ties allowed).
    assert (
        reports["srw"].mean_queueing_delay_ms
        <= reports["fifo"].mean_queueing_delay_ms * 1.001
    )
    # The preemptive policy earns its keep on the priority jobs' queueing
    # delay (ties allowed — with light load they may be admitted instantly
    # under every policy).
    assert (
        priority_queueing_delay_ms(reports["priority"])
        <= priority_queueing_delay_ms(reports["fifo"]) * 1.001
    )


@pytest.mark.tier2_bench
def test_fleet_planning_modes_bench(benchmark, capsys):
    """Inline planning vs the fleet-wide shared pool (planning cluster)."""
    cost_model = CostModel(
        FLEET_MODEL,
        num_stages=2,
        device_spec=FLEET_DEVICE,
        max_profile_batch_size=32,
        max_profile_seq_len=1024,
    )
    samples = truncate_samples(
        SyntheticFlanDataset(num_samples=400, seed=7).samples, 512, decoder_only=True
    )
    jobs = build_jobs(cost_model, samples)
    rows, reports = benchmark.pedantic(
        run_planning_modes, args=(jobs,), rounds=1, iterations=1
    )
    emit(
        "fleet_planning_modes",
        f"Fleet planning transports: {NUM_JOBS} jobs, {PLANNER_PROCS} planner "
        f"worker(s), {len(FAILURE_SCHEDULE)} injected device failures",
        PLANNING_HEADERS,
        rows,
        capsys,
    )
    inline = reports["inline"]
    shared = reports["shared-pool"]
    # The transport is invisible in the simulated outcome...
    assert inline.finished_jobs == shared.finished_jobs == NUM_JOBS
    assert inline.makespan_ms == shared.makespan_ms
    # ...and worker spawn is amortised fleet-wide: exactly one pool's
    # workers for the whole run, however many job attempts it served.
    assert shared.planner_workers_spawned == PLANNER_PROCS
    assert inline.planner_workers_spawned == 0
