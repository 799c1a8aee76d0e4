"""Failure-path tests for the fleet scheduler.

Covers the issue's checklist: device failure mid-iteration, retry
exhaustion, gang-release accounting (no device leaked), and planner-pool
failure markers surfacing as bounded job-level retries instead of hangs.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.core.recomputation import OutOfMemoryError
from repro.fleet import FleetConfig, FleetScheduler, JobSpec, JobState
from repro.parallel.config import ParallelConfig

from test_fleet_scheduler import assert_records_identical, standalone_records


@pytest.fixture(scope="module")
def planner_config():
    return PlannerConfig(order_search=False, tmax_sample_count=8)


def make_spec(pp2_cost_model, fleet_samples, planner_config, **overrides):
    defaults = dict(
        name="job",
        cost_model=pp2_cost_model,
        samples=fleet_samples,
        global_batch_tokens=4096,
        parallel=ParallelConfig(1, 2, 1),
        num_iterations=3,
        planner_config=planner_config,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class _ExplodingPlanner:
    """A planner that can never produce a plan."""

    def __init__(self, cost_model, data_parallel_size):
        self.cost_model = cost_model
        self.data_parallel_size = data_parallel_size

    def plan(self, samples, iteration=0):
        raise OutOfMemoryError("synthetic planning failure")


class _CrashFromIteration1(DynaPipePlanner):
    """A planner whose pool worker crashes from iteration 1 on."""

    def plan(self, samples, iteration=0):
        if iteration >= 1:
            raise RuntimeError("synthetic worker crash")
        return super().plan(samples, iteration=iteration)


def first_attempt_crashes():
    """Planner factory: the first attempt's planner crashes from iteration 1,
    every later attempt's planner is healthy."""
    built: list[type] = []

    def factory(spec, data_parallel):
        planner_class = DynaPipePlanner if built else _CrashFromIteration1
        built.append(planner_class)
        return planner_class(
            spec.cost_model,
            data_parallel_size=data_parallel,
            config=spec.planner_config,
        )

    return factory


class TestRetryExhaustion:
    def test_job_fails_after_bounded_retries(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        record = scheduler.submit(
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                name="doomed",
                max_retries=2,
                planner_factory=lambda spec, dp: _ExplodingPlanner(spec.cost_model, dp),
            )
        )
        report = scheduler.run()
        assert report.jobs[0].state == JobState.FAILED
        assert "retries exhausted" in record.failure_reason
        # First attempt + max_retries re-admissions, every one a plan failure.
        assert len(record.attempts) == 3
        assert all(a.outcome == "plan_failure" for a in record.attempts)
        assert record.checkpoint.completed_iterations == 0
        # No device leaked by the failed attempts.
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.busy_count == 0
        assert scheduler.allocator.free_count == 4

    def test_healthy_jobs_unaffected_by_a_doomed_neighbour(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        scheduler.submit(
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                name="doomed",
                max_retries=1,
                planner_factory=lambda spec, dp: _ExplodingPlanner(spec.cost_model, dp),
            )
        )
        healthy = scheduler.submit(
            make_spec(pp2_cost_model, fleet_samples, planner_config, name="healthy", seed=1)
        )
        report = scheduler.run()
        states = {job.name: job.state for job in report.jobs}
        assert states == {"doomed": JobState.FAILED, "healthy": JobState.FINISHED}
        assert_records_identical(
            healthy.checkpoint.records, standalone_records(healthy.spec, 1)
        )


class TestPoolFailureMarkers:
    def test_pool_failure_marker_becomes_job_retry(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """A worker exception mid-epoch surfaces as a PlanFailedError; the
        fleet turns it into one retry that resumes from the checkpoint and
        finishes — records bit-identical to an uninterrupted run."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(planner_processes=1))
        spec = make_spec(
            pp2_cost_model,
            fleet_samples,
            planner_config,
            name="flaky",
            max_retries=1,
            planner_factory=first_attempt_crashes(),
        )
        record = scheduler.submit(spec)
        report = scheduler.run()
        assert report.jobs[0].state == JobState.FINISHED
        assert record.retries == 1
        assert record.attempts[0].outcome == "plan_failure"
        assert record.attempts[0].iterations_completed == 1
        assert record.attempts[1].outcome == "finished"
        assert record.attempts[1].start_iteration == 1
        # The recovered run matches an uninterrupted standalone session.
        expected = standalone_records(
            make_spec(pp2_cost_model, fleet_samples, planner_config, name="flaky"), 1
        )
        assert_records_identical(record.checkpoint.records, expected)

    def test_persistent_pool_failures_exhaust_retries(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(
            topology, FleetConfig(planner_processes=1)
        )
        record = scheduler.submit(
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                name="doomed-pool",
                max_retries=1,
                planner_factory=lambda spec, dp: _ExplodingPlanner(spec.cost_model, dp),
            )
        )
        report = scheduler.run()
        assert report.jobs[0].state == JobState.FAILED
        assert "planning failed" in record.failure_reason
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.busy_count == 0


class TestPoolLifecycle:
    """Every attempt's planning resources are released exactly once — no
    leaked pool workers after preempted, plan-failed or crashed runs."""

    @pytest.fixture()
    def pool_registry(self, monkeypatch):
        """Instrument the scheduler's planner pool: record every instance
        and count its stop() calls."""
        import repro.fleet.scheduler as scheduler_module
        from repro.runtime.planner_pool import PlannerPool

        created = []

        class RegisteredPool(PlannerPool):
            def __post_init__(self):
                super().__post_init__()
                self.stop_calls = 0
                created.append(self)

            def stop(self):
                self.stop_calls += 1
                return super().stop()

        monkeypatch.setattr(scheduler_module, "PlannerPool", RegisteredPool)
        return created

    def test_no_live_workers_after_injected_failures(
        self, pp2_cost_model, fleet_samples, planner_config, small_device, pool_registry
    ):
        """Pooled planning under the full failure mix — a device failure
        preempting a pooled attempt, mid-epoch plan failures, retries —
        leaves zero live pool workers, every attempt's stream retired and
        the one fleet pool stopped exactly once."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(
            topology, FleetConfig(planner_processes=1)
        )
        scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="flaky", max_retries=1, planner_factory=first_attempt_crashes(),
            )
        )
        scheduler.submit(
            make_spec(pp2_cost_model, fleet_samples, planner_config, name="steady", seed=1)
        )
        scheduler.inject_device_failure(10.0, 0)
        report = scheduler.run()
        assert {job.state for job in report.jobs} == {JobState.FINISHED}
        # One pool for the fleet, one stream per attempt; stopped once.
        [pool] = pool_registry
        assert pool.started and pool.stop_calls == 1
        assert pool.live_workers() == 0
        assert pool.job_names() == []
        assert len(pool.job_names(include_retired=True)) == sum(
            job.attempts for job in report.jobs
        )
        assert report.planner_workers_spawned == 1
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.busy_count == 0

    def test_unexpected_execution_error_still_tears_down_planning(
        self, pp2_cost_model, fleet_samples, planner_config, small_device, monkeypatch
    ):
        """A non-planning crash mid-run (here: execution of a fetched
        payload explodes) propagates, but the shared planning cluster and
        every running attempt's stream are still torn down — the event
        loop's failure must not leak worker processes."""
        from repro.training.trainer import TrainingSession

        def boom(self, iteration, payload):
            raise RuntimeError("synthetic executor crash")

        monkeypatch.setattr(TrainingSession, "record_from_payload", boom)
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(
            topology,
            FleetConfig(planner_processes=1),
        )
        scheduler.submit(
            make_spec(pp2_cost_model, fleet_samples, planner_config, name="crasher")
        )
        with pytest.raises(RuntimeError, match="synthetic executor crash"):
            scheduler.run()
        pool = scheduler._shared_pool
        assert pool is not None
        assert pool.live_workers() == 0
        assert pool.job_names() == []  # the running attempt's stream retired


class TestDeviceFailureAccounting:
    def test_idle_device_failure_only_shrinks_capacity(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(8, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        record = scheduler.submit(
            make_spec(pp2_cost_model, fleet_samples, planner_config, name="small")
        )
        scheduler.inject_device_failure(1.0, 7)  # idle device
        report = scheduler.run()
        assert report.jobs[0].state == JobState.FINISHED
        assert record.preemptions == 0
        assert report.failed_devices == [7]
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.free_count == 7

    def test_mid_iteration_failure_discards_inflight_work(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """The iteration in flight when the device dies is not committed:
        the resumed attempt re-runs it from the checkpoint boundary."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        record = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config, name="preempted",
                num_iterations=2,
            )
        )
        # t=0.5 ms is far below any iteration time, so the failure lands
        # inside iteration 0 of the first attempt.
        scheduler.inject_device_failure(0.5, 0)
        report = scheduler.run()
        assert record.attempts[0].outcome == "device_failure"
        assert record.attempts[0].iterations_completed == 0
        assert record.attempts[1].start_iteration == 0
        assert report.jobs[0].state == JobState.FINISHED
        assert record.checkpoint.completed_iterations == 2
        # The resumed attempt *is* a fresh standalone run (boundary 0).
        assert_records_identical(
            record.checkpoint.records, standalone_records(record.spec, 1)
        )

    def test_cluster_wide_failures_fail_all_jobs_without_hanging(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        record = scheduler.submit(
            make_spec(pp2_cost_model, fleet_samples, planner_config, name="stranded")
        )
        scheduler.inject_device_failure(0.5, 0)
        scheduler.inject_device_failure(0.5, 1)
        report = scheduler.run()
        assert report.jobs[0].state == JobState.FAILED
        assert "unschedulable" in record.failure_reason
        assert report.failed_devices == [0, 1]
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.alive_count == 0
        assert scheduler.allocator.busy_count == 0
