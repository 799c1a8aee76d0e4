"""Fleet-wide shared planner pool ("planning cluster") tests.

The acceptance bar: a pooled fleet run (``planner_processes > 0``) spawns
exactly one pool's workers for the whole fleet, survives injected device
failures and job retries with no cross-job plan/failure leakage, and its
per-job reports are bit-identical to inline planning.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.planner import PlannerConfig
from repro.core.recomputation import OutOfMemoryError
from repro.fleet import FleetConfig, FleetScheduler, JobSpec, JobState
from repro.parallel.config import ParallelConfig

from test_fleet_scheduler import assert_records_identical, standalone_records

#: The planning modes whose per-job reports must agree bit for bit.
MODES = {
    "inline": dict(planner_processes=0),
    "shared": dict(planner_processes=1),
}


def assert_no_retained_plans(scheduler):
    """Every stream of the fleet's pool is retired and holds no plans."""
    pool = scheduler._shared_pool
    assert pool.job_names() == []
    assert all(stream.retired and not stream.payloads for stream in pool._streams.values())


@pytest.fixture(scope="module")
def planner_config():
    return PlannerConfig(order_search=False, tmax_sample_count=8)


def build_specs(pp2_cost_model, fleet_samples, planner_config):
    """Three dp1-pp2 jobs; a 4-GPU cluster runs two at a time."""
    return [
        JobSpec(
            name=f"job{index}",
            cost_model=pp2_cost_model,
            samples=fleet_samples,
            global_batch_tokens=4096 if index % 2 else 8192,
            parallel=ParallelConfig(1, 2, 1),
            num_iterations=3,
            planner_config=planner_config,
            seed=index,
        )
        for index in range(3)
    ]


def run_fleet(pp2_cost_model, fleet_samples, planner_config, small_device, **config):
    topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
    scheduler = FleetScheduler(topology, FleetConfig(**config))
    for spec in build_specs(pp2_cost_model, fleet_samples, planner_config):
        scheduler.submit(spec)
    # Mid-run failure: preempts whichever gang owns device 0 at t=10 ms and
    # forces a checkpoint-boundary retry — under the shared pool that means
    # one stream is retired mid-flight while co-tenant streams keep planning.
    scheduler.inject_device_failure(10.0, 0)
    return scheduler, scheduler.run()


@pytest.fixture(scope="module")
def fleet_runs(pp2_cost_model, fleet_samples, planner_config, small_device):
    return {
        mode: run_fleet(
            pp2_cost_model, fleet_samples, planner_config, small_device, **config
        )
        for mode, config in MODES.items()
    }


class TestSharedPoolBitIdentity:
    def test_all_jobs_finish_in_every_mode(self, fleet_runs):
        for mode, (_, report) in fleet_runs.items():
            assert report.finished_jobs == 3, mode
            assert report.total_preemptions == 1, mode

    def test_reports_bit_identical_across_planning_modes(self, fleet_runs):
        """The planning transport (inline or the planning cluster) must be
        invisible in the results: per-job records agree bit for bit."""
        baseline_scheduler, _ = fleet_runs["inline"]
        scheduler, _ = fleet_runs["shared"]
        for name, record in baseline_scheduler.jobs.items():
            assert_records_identical(
                scheduler.jobs[name].checkpoint.records, record.checkpoint.records
            )

    def test_shared_mode_matches_standalone_runs(self, fleet_runs):
        """Transitively implied by the cross-mode test, but pinned directly:
        uninterrupted shared-pool jobs equal standalone sessions."""
        scheduler, _ = fleet_runs["shared"]
        uninterrupted = [
            record
            for record in scheduler.jobs.values()
            if len(record.attempts) == 1 and record.preemptions == 0
        ]
        assert uninterrupted, "scenario should leave some jobs untouched"
        record = uninterrupted[0]
        expected = standalone_records(record.spec, record.attempts[0].data_parallel)
        assert_records_identical(record.checkpoint.records, expected)

    def test_one_pool_for_the_whole_fleet(self, fleet_runs):
        """Worker-spawn amortisation: the pooled run spawns exactly one
        pool's workers across every attempt."""
        scheduler, shared_report = fleet_runs["shared"]
        _, inline_report = fleet_runs["inline"]
        total_attempts = sum(job.attempts for job in shared_report.jobs)
        assert total_attempts == 4  # 3 first admissions + 1 retry
        assert shared_report.planner_workers_spawned == 1
        assert inline_report.planner_workers_spawned == 0
        assert len(scheduler._shared_pool.job_names(include_retired=True)) == total_attempts

    def test_shared_pool_torn_down_and_store_clean(self, fleet_runs):
        """After the run the planning cluster is stopped and every attempt's
        stream retired — no live workers, no retained plans."""
        scheduler, _ = fleet_runs["shared"]
        pool = scheduler._shared_pool
        assert pool is not None and pool.started
        assert pool.live_workers() == 0
        assert_no_retained_plans(scheduler)


class _ExplodingPlanner:
    """A planner that can never produce a plan."""

    def __init__(self, cost_model, data_parallel_size):
        self.cost_model = cost_model
        self.data_parallel_size = data_parallel_size

    def plan(self, samples, iteration=0):
        raise OutOfMemoryError("synthetic planning failure")


class TestSharedPoolIsolation:
    def test_doomed_job_never_perturbs_neighbours(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """One job's planning failures must stay on its own streams: the
        healthy co-tenant finishes with records bit-identical to a
        standalone run."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(
            topology, FleetConfig(planner_processes=1)
        )
        scheduler.submit(
            JobSpec(
                name="doomed",
                cost_model=pp2_cost_model,
                samples=fleet_samples,
                global_batch_tokens=4096,
                parallel=ParallelConfig(1, 2, 1),
                num_iterations=3,
                planner_config=planner_config,
                max_retries=1,
                planner_factory=lambda spec, dp: _ExplodingPlanner(spec.cost_model, dp),
            )
        )
        healthy = scheduler.submit(
            JobSpec(
                name="healthy",
                cost_model=pp2_cost_model,
                samples=fleet_samples,
                global_batch_tokens=4096,
                parallel=ParallelConfig(1, 2, 1),
                num_iterations=3,
                planner_config=planner_config,
                seed=1,
            )
        )
        report = scheduler.run()
        states = {job.name: job.state for job in report.jobs}
        assert states == {"doomed": JobState.FAILED, "healthy": JobState.FINISHED}
        assert "planning failed" in scheduler.jobs["doomed"].failure_reason
        assert_records_identical(
            healthy.checkpoint.records, standalone_records(healthy.spec, 1)
        )
        # The failed attempts' streams were retired with their plans.
        assert_no_retained_plans(scheduler)
        assert scheduler._shared_pool.live_workers() == 0

    def test_shared_pool_with_process_backend(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """The planning cluster also runs on real worker processes (the
        default backend): one spawned worker serves two jobs' streams and
        the results equal inline planning."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(
            topology,
            FleetConfig(planner_processes=1),
        )
        specs = build_specs(pp2_cost_model, fleet_samples, planner_config)[:2]
        for spec in specs:
            scheduler.submit(spec)
        report = scheduler.run()
        assert report.finished_jobs == 2
        assert report.planner_workers_spawned == 1
        assert scheduler._shared_pool.live_workers() == 0
        for spec in specs:
            record = scheduler.jobs[spec.name]
            expected = standalone_records(spec, spec.parallel.data_parallel)
            assert_records_identical(record.checkpoint.records, expected)


def test_private_planner_pools_are_gone():
    """``shared_planner_pool`` survives only as an always-true field."""
    assert FleetConfig().shared_planner_pool is True
    with pytest.raises(ValueError, match="shared_planner_pool=False was removed"):
        FleetConfig(planner_processes=1, shared_planner_pool=False)
