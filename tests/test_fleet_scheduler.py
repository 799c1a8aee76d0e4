"""End-to-end tests of the fleet scheduler (admission, elasticity, resume).

The acceptance scenario mirrors the issue's bar: eight jobs share one
simulated cluster, two device failures strike mid-run, and every job must
reach a terminal state with uninterrupted jobs bit-identical to standalone
runs and preempted jobs matching their checkpoint-boundary restarts.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.planner import PlannerConfig
from repro.fleet import (
    FleetConfig,
    FleetScheduler,
    JobSpec,
    JobState,
    SchedulerInvariantError,
)
from repro.fleet.job import JobCheckpoint, JobRecord
from repro.parallel.config import ParallelConfig
from repro.training.trainer import TrainingSession

#: Record fields that must match bit-for-bit between fleet and standalone
#: runs (planning_time_s is wall-clock and legitimately differs).
_DETERMINISTIC_FIELDS = (
    "iteration",
    "actual_tokens",
    "padded_tokens",
    "predicted_ms",
    "measured_ms",
    "predicted_peak_bytes",
    "measured_peak_bytes",
    "num_microbatches",
    "recompute",
)


def assert_records_identical(fleet_records, standalone_records):
    assert len(fleet_records) == len(standalone_records)
    for ours, theirs in zip(fleet_records, standalone_records):
        for field in _DETERMINISTIC_FIELDS:
            assert getattr(ours, field) == getattr(theirs, field), field


def standalone_records(spec: JobSpec, data_parallel: int, start_iteration: int = 0):
    """Records of the same job run outside the fleet (optionally resumed)."""
    session = TrainingSession(
        spec.build_planner(data_parallel),
        spec.samples,
        global_batch_tokens=spec.global_batch_tokens,
        config=spec.trainer_config(start_iteration),
        system_name=spec.name,
    )
    return session.run().records


@pytest.fixture(scope="module")
def planner_config():
    return PlannerConfig(order_search=False, tmax_sample_count=8)


@pytest.fixture(scope="module")
def acceptance_fleet(pp2_cost_model, fleet_samples, planner_config, small_device):
    """Eight jobs on an 8-GPU cluster with two mid-run device failures."""
    topology = ClusterTopology.for_num_gpus(8, device_spec=small_device)
    scheduler = FleetScheduler(topology, FleetConfig(policy="fifo"))
    shapes = [
        ParallelConfig(2, 2, 1), ParallelConfig(1, 2, 1), ParallelConfig(1, 2, 1),
        ParallelConfig(2, 2, 1), ParallelConfig(1, 2, 1), ParallelConfig(2, 2, 1),
        ParallelConfig(1, 2, 1), ParallelConfig(1, 2, 1),
    ]
    for index, shape in enumerate(shapes):
        scheduler.submit(
            JobSpec(
                name=f"job{index}",
                cost_model=pp2_cost_model,
                samples=fleet_samples,
                global_batch_tokens=4096 if index % 2 else 8192,
                parallel=shape,
                num_iterations=3,
                planner_config=planner_config,
                seed=index,
            )
        )
    # Two failures while the cluster is saturated: each interrupts the gang
    # occupying that device at the time (verified below).
    scheduler.inject_device_failure(10.0, 0)
    scheduler.inject_device_failure(25.0, 5)
    report = scheduler.run()
    return scheduler, report


class TestAcceptanceScenario:
    def test_every_job_reaches_a_terminal_state(self, acceptance_fleet):
        scheduler, report = acceptance_fleet
        assert len(report.jobs) == 8
        for job in report.jobs:
            assert job.state in (JobState.FINISHED, JobState.FAILED)
            if job.state == JobState.FINISHED:
                assert job.iterations_completed == job.target_iterations
        assert report.failed_devices == [0, 5]
        assert report.finished_jobs == 8

    def test_failures_preempted_running_jobs(self, acceptance_fleet):
        _, report = acceptance_fleet
        assert report.total_preemptions == 2
        assert report.total_retries == 2
        preempted = [job for job in report.jobs if job.preemptions]
        assert len(preempted) == 2
        for job in preempted:
            assert job.attempts == 2
            assert job.state == JobState.FINISHED

    def test_no_device_leaked(self, acceptance_fleet):
        scheduler, report = acceptance_fleet
        allocator = scheduler.allocator
        allocator.check_consistent()
        assert allocator.busy_count == 0
        assert allocator.failed_devices == {0, 5}
        assert allocator.free_count == scheduler.topology.num_gpus - 2

    def test_fleet_metrics_are_sane(self, acceptance_fleet):
        _, report = acceptance_fleet
        assert report.makespan_ms > 0
        assert 0 < report.device_utilization <= 1
        assert report.mean_queueing_delay_ms >= 0
        assert report.max_queueing_delay_ms >= report.mean_queueing_delay_ms
        summary = report.summary()
        assert summary["jobs"] == 8
        assert summary["finished"] == 8

    def test_uninterrupted_jobs_match_standalone_runs(self, acceptance_fleet):
        scheduler, report = acceptance_fleet
        uninterrupted = [
            record
            for record in scheduler.jobs.values()
            if len(record.attempts) == 1 and record.preemptions == 0
        ]
        assert uninterrupted, "scenario should leave some jobs untouched"
        # One dp1 and one dp2 job keep the check cheap but representative.
        by_dp = {record.attempts[0].data_parallel: record for record in uninterrupted}
        for data_parallel, record in sorted(by_dp.items()):
            expected = standalone_records(record.spec, data_parallel)
            assert_records_identical(record.checkpoint.records, expected)

    def test_preempted_jobs_match_checkpoint_boundary_restart(self, acceptance_fleet):
        scheduler, _ = acceptance_fleet
        preempted = [r for r in scheduler.jobs.values() if r.preemptions]
        assert len(preempted) == 2
        for record in preempted:
            resume = record.attempts[-1]
            boundary = resume.start_iteration
            expected = standalone_records(
                record.spec, resume.data_parallel, start_iteration=boundary
            )
            assert_records_identical(record.checkpoint.records[boundary:], expected)

    def test_occupancy_trace_covers_committed_iterations(self, acceptance_fleet, tmp_path):
        scheduler, report = acceptance_fleet
        committed = sum(job.iterations_completed for job in report.jobs)
        traced_jobs = {event.name.split(":")[0] for event in report.trace.events}
        assert traced_jobs == set(scheduler.jobs)
        # One event per gang device per committed iteration.
        assert len(report.trace.events) == sum(
            attempt.iterations_completed * len(attempt.devices)
            for record in scheduler.jobs.values()
            for attempt in record.attempts
        )
        assert committed == 8 * 3
        path = report.save_chrome_trace(tmp_path / "fleet.json")
        assert path.exists() and path.stat().st_size > 0


class TestElasticResume:
    def test_job_shrinks_after_permanent_capacity_loss(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """A dp2 job on a 4-GPU cluster loses a device: the alive cluster can
        only ever host dp1, so the retry re-plans on a 2-device gang from the
        checkpoint boundary."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        spec = JobSpec(
            name="elastic",
            cost_model=pp2_cost_model,
            samples=fleet_samples,
            global_batch_tokens=4096,
            parallel=ParallelConfig(2, 2, 1),
            num_iterations=4,
            planner_config=planner_config,
            seed=3,
        )
        record = scheduler.submit(spec)
        scheduler.inject_device_failure(2.0, 1)
        report = scheduler.run()
        assert report.jobs[0].state == JobState.FINISHED
        assert record.attempts[0].data_parallel == 2
        assert record.attempts[0].outcome == "device_failure"
        resumed = record.attempts[1]
        assert resumed.data_parallel == 1
        assert 1 not in resumed.devices
        expected = standalone_records(spec, 1, start_iteration=resumed.start_iteration)
        assert_records_identical(
            record.checkpoint.records[resumed.start_iteration :], expected
        )

    def test_non_elastic_job_fails_when_gang_cannot_fit(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        record = scheduler.submit(
            JobSpec(
                name="rigid",
                cost_model=pp2_cost_model,
                samples=fleet_samples,
                global_batch_tokens=4096,
                parallel=ParallelConfig(2, 2, 1),
                num_iterations=4,
                planner_config=planner_config,
                elastic=False,
                submit_time_ms=5.0,
            )
        )
        scheduler.inject_device_failure(0.0, 0)
        report = scheduler.run()
        assert report.jobs[0].state == JobState.FAILED
        assert "unschedulable" in record.failure_reason
        assert record.first_admitted_ms is None


class TestSchedulingBehaviour:
    def test_delayed_submission_waits_for_its_arrival(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology)

        def spec(name, submit_ms):
            return JobSpec(
                name=name,
                cost_model=pp2_cost_model,
                samples=fleet_samples,
                global_batch_tokens=4096,
                parallel=ParallelConfig(1, 2, 1),
                num_iterations=2,
                planner_config=planner_config,
                submit_time_ms=submit_ms,
            )

        scheduler.submit(spec("first", 0.0))
        late = scheduler.submit(spec("late", 1000.0))
        report = scheduler.run()
        assert report.finished_jobs == 2
        assert late.first_admitted_ms >= 1000.0
        # The cluster idles between the first job's end and the arrival, so
        # the late job starts the moment it arrives: zero queueing delay.
        assert late.queueing_delay_ms == pytest.approx(0.0)

    def test_arrival_before_failure_is_admitted_then_preempted(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """Regression: with a job running, an arrival at t=5 must be admitted
        before a failure at t=10 is applied — the late job starts on the free
        devices at its arrival time and is then preempted by the failure,
        not silently deferred until the first job finishes.  The long job's
        iteration (~75 ms) outlasts both the arrival and the failure, which
        is exactly the window where the old failure-before-arrival ordering
        went wrong."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology)

        def spec(name, submit_ms, iterations, tokens):
            return JobSpec(
                name=name,
                cost_model=pp2_cost_model,
                samples=fleet_samples,
                global_batch_tokens=tokens,
                parallel=ParallelConfig(1, 2, 1),
                num_iterations=iterations,
                planner_config=planner_config,
                submit_time_ms=submit_ms,
            )

        scheduler.submit(spec("long", 0.0, 2, 32768))
        late = scheduler.submit(spec("late", 5.0, 3, 4096))
        scheduler.inject_device_failure(10.0, 2)  # inside late's gang (2, 3)
        report = scheduler.run()
        assert report.finished_jobs == 2
        assert late.first_admitted_ms == pytest.approx(5.0)
        assert late.queueing_delay_ms == pytest.approx(0.0)
        assert late.attempts[0].devices == (2, 3)
        assert late.preemptions == 1
        assert late.attempts[0].outcome == "device_failure"

    def test_srw_runs_short_job_before_long_backlog(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """With one 2-device cluster and jobs submitted long-first, SRW
        admits the short job ahead of the queued long one."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)

        def build(policy):
            scheduler = FleetScheduler(topology, FleetConfig(policy=policy))
            for name, iterations, submit in (("long", 6, 0.0), ("short", 1, 0.0)):
                scheduler.submit(
                    JobSpec(
                        name=name,
                        cost_model=pp2_cost_model,
                        samples=fleet_samples,
                        global_batch_tokens=4096,
                        parallel=ParallelConfig(1, 2, 1),
                        num_iterations=iterations,
                        planner_config=planner_config,
                        est_iteration_ms=1000.0 * iterations,
                    )
                )
            return scheduler.run()

        fifo = build("fifo")
        srw = build("srw")
        assert fifo.policy == "fifo" and srw.policy == "srw"
        fifo_short = next(job for job in fifo.jobs if job.name == "short")
        srw_short = next(job for job in srw.jobs if job.name == "short")
        assert srw_short.queueing_delay_ms == pytest.approx(0.0)
        assert fifo_short.queueing_delay_ms > 0
        assert srw.mean_queueing_delay_ms < fifo.mean_queueing_delay_ms

    def test_duplicate_names_and_post_run_submission_rejected(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        spec = JobSpec(
            name="only",
            cost_model=pp2_cost_model,
            samples=fleet_samples,
            global_batch_tokens=4096,
            parallel=ParallelConfig(1, 2, 1),
            num_iterations=1,
            planner_config=planner_config,
        )
        scheduler.submit(spec)
        with pytest.raises(ValueError, match="duplicate"):
            scheduler.submit(spec)
        with pytest.raises(ValueError, match="pipeline stages"):
            scheduler.submit(
                JobSpec(
                    name="bad-shape",
                    cost_model=pp2_cost_model,
                    samples=fleet_samples,
                    global_batch_tokens=4096,
                    parallel=ParallelConfig(1, 4, 1),
                    num_iterations=1,
                )
            )
        scheduler.run()
        with pytest.raises(RuntimeError):
            scheduler.submit(spec)
        with pytest.raises(RuntimeError):
            scheduler.run()


class TestCheckpoint:
    def test_checkpoint_round_trip(self, acceptance_fleet):
        scheduler, _ = acceptance_fleet
        record = next(iter(scheduler.jobs.values()))
        checkpoint = record.checkpoint
        rebuilt = JobCheckpoint.from_dict(checkpoint.to_dict())
        assert rebuilt == checkpoint

    def test_training_report_matches_standalone_shape(self, acceptance_fleet):
        scheduler, _ = acceptance_fleet
        record: JobRecord = scheduler.jobs["job2"]
        report = record.training_report()
        assert report.system == "job2"
        assert len(report.records) == record.spec.num_iterations
        assert report.throughput_tokens_per_s > 0
        assert report.encoder_padding_efficiency > 0


class TestInvariantErrors:
    """Broken event-loop bookkeeping raises a typed error, not an ``assert``
    that ``python -O`` strips."""

    def test_report_with_running_jobs_raises(self):
        scheduler = FleetScheduler(ClusterTopology.for_num_gpus(2), FleetConfig(policy="fifo"))
        scheduler._running["ghost"] = None
        message = "jobs still running after the event loop"
        with pytest.raises(SchedulerInvariantError, match=message):
            scheduler._build_report(0.0)
        assert issubclass(SchedulerInvariantError, RuntimeError)
        assert not issubclass(SchedulerInvariantError, AssertionError)

    def test_report_with_running_jobs_raises_under_optimized_python(self):
        code = (
            "from repro.cluster.topology import ClusterTopology\n"
            "from repro.fleet import FleetConfig, FleetScheduler, SchedulerInvariantError\n"
            "scheduler = FleetScheduler(ClusterTopology.for_num_gpus(2), FleetConfig())\n"
            "scheduler._running['ghost'] = None\n"
            "try:\n"
            "    scheduler._build_report(0.0)\n"
            "except SchedulerInvariantError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "jobs still running after the event loop"
