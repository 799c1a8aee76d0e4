"""Scheduler checkpoint/restore tests: crash at a boundary, resume bit-identically.

The acceptance scenario for the crash-resilience tentpole: a fleet run is
killed at an arbitrary event boundary (the ``on_event`` hook checkpoints
and raises :class:`SchedulerKilled`), the snapshot is JSON round-tripped,
and a scheduler restored from it finishes the run with per-job records and
a :class:`FleetReport` bit-identical to the uninterrupted run — across
fifo / srw / priority, through at least one mid-run preemption, one
elastic regrowth and (under priority) one eviction.  Wall-clock planning
times and, in pooled mode, the respawned worker count are the only
excluded fields.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.planner import PlannerConfig
from repro.fleet import (
    FleetConfig,
    FleetReport,
    FleetScheduler,
    JobSpec,
    SchedulerKilled,
)
from repro.fleet.checkpoint import SNAPSHOT_VERSION
from repro.parallel.config import ParallelConfig

from test_fleet_scheduler import assert_records_identical


@pytest.fixture(scope="module")
def planner_config():
    return PlannerConfig(order_search=False, tmax_sample_count=8)


def crash_specs(pp2_cost_model, fleet_samples, planner_config):
    """The kill/restore scenario's jobs (fresh objects per scheduler).

    On a 4-GPU cluster with a device failing at t=2 (repaired 30 ms
    later), the elastic dp2-pp2 job is preempted, shrinks to dp1, and
    regrows at the first boundary after the repair; the high-priority job
    arriving at t=70 additionally evicts it under the priority policy.
    """
    return [
        JobSpec(
            name="job0",
            cost_model=pp2_cost_model,
            samples=fleet_samples,
            global_batch_tokens=8192,
            parallel=ParallelConfig(2, 2, 1),
            num_iterations=6,
            planner_config=planner_config,
            seed=0,
            elastic=True,
        ),
        JobSpec(
            name="hi",
            cost_model=pp2_cost_model,
            samples=fleet_samples,
            global_batch_tokens=4096,
            parallel=ParallelConfig(1, 2, 1),
            num_iterations=2,
            planner_config=planner_config,
            seed=3,
            priority=5,
            submit_time_ms=70.0,
        ),
    ]


def make_config(policy: str, **overrides) -> FleetConfig:
    return FleetConfig(policy=policy, repair_delay_ms=30.0, **overrides)


def build_scheduler(
    specs, small_device, config: FleetConfig
) -> FleetScheduler:
    topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
    scheduler = FleetScheduler(topology, config)
    for spec in specs:
        scheduler.submit(spec)
    scheduler.inject_device_failure(2.0, 1)
    return scheduler


def run_killed_and_restored(
    pp2_cost_model,
    fleet_samples,
    planner_config,
    small_device,
    policy: str,
    kill_at: int,
    **config_overrides,
) -> tuple[FleetScheduler, FleetReport]:
    """Kill the run at event boundary ``kill_at``, restore from the
    JSON-round-tripped snapshot, and finish the run."""
    captured: dict[str, dict] = {}

    def hook(scheduler: FleetScheduler) -> None:
        if scheduler._events_processed == kill_at:
            captured["snapshot"] = scheduler.checkpoint()
            raise SchedulerKilled(f"killed at boundary {kill_at}")

    specs = crash_specs(pp2_cost_model, fleet_samples, planner_config)
    doomed = build_scheduler(
        specs, small_device, make_config(policy, on_event=hook, **config_overrides)
    )
    with pytest.raises(SchedulerKilled):
        doomed.run()

    # The snapshot must survive serialisation: a real crash-resilient
    # deployment persists it to disk between the two processes.
    snapshot = json.loads(json.dumps(captured["snapshot"]))
    fresh_specs = crash_specs(pp2_cost_model, fleet_samples, planner_config)
    restored = FleetScheduler.restore(
        snapshot,
        ClusterTopology.for_num_gpus(4, device_spec=small_device),
        {spec.name: spec for spec in fresh_specs},
        config=make_config(policy, **config_overrides),
    )
    return restored, restored.run()


def assert_reports_identical(
    actual: FleetReport, expected: FleetReport, ignore_worker_count: bool = False
) -> None:
    """Field-by-field bit-identity of two fleet reports.

    ``JobSummary`` carries no wall-clock field, so dataclass equality is
    exact; ``planner_workers_spawned`` is excluded in pooled mode where
    the restored run necessarily respawns the planning cluster.
    """
    assert actual.policy == expected.policy
    assert actual.jobs == expected.jobs
    assert actual.makespan_ms == expected.makespan_ms
    assert actual.busy_device_ms == expected.busy_device_ms
    assert actual.num_devices == expected.num_devices
    assert actual.failed_devices == expected.failed_devices
    assert actual.absent_devices == expected.absent_devices
    assert actual.dead_device_ms == expected.dead_device_ms
    assert actual.capacity_timeline == expected.capacity_timeline
    assert actual.repair_durations_ms == expected.repair_durations_ms
    assert actual.fault_log == expected.fault_log
    assert actual.trace.events == expected.trace.events
    if not ignore_worker_count:
        assert actual.planner_workers_spawned == expected.planner_workers_spawned


@pytest.fixture(scope="module")
def reference_runs(pp2_cost_model, fleet_samples, planner_config, small_device):
    """Uninterrupted reference runs: policy -> (scheduler, report)."""
    runs = {}
    for policy in ("fifo", "srw", "priority"):
        specs = crash_specs(pp2_cost_model, fleet_samples, planner_config)
        scheduler = build_scheduler(specs, small_device, make_config(policy))
        runs[policy] = (scheduler, scheduler.run())
    return runs


class TestScenarioRichness:
    """The scenario actually exercises what the acceptance criteria name."""

    def test_preemption_and_regrowth_under_every_policy(self, reference_runs):
        for policy, (_, report) in reference_runs.items():
            assert report.total_preemptions >= 1, policy
            assert report.total_regrows >= 1, policy
            assert report.finished_jobs == 2, policy

    def test_priority_run_has_an_eviction(self, reference_runs):
        assert reference_runs["priority"][1].total_evictions >= 1

    def test_runs_have_enough_boundaries_to_kill_at(self, reference_runs):
        for policy, (scheduler, _) in reference_runs.items():
            assert scheduler._events_processed >= 10, policy


class TestKillRestoreBitIdentity:
    """Killed-and-restored runs reproduce the uninterrupted run exactly."""

    @pytest.mark.parametrize("kill_at", list(range(1, 11)))
    def test_fifo_every_boundary(
        self,
        reference_runs,
        pp2_cost_model,
        fleet_samples,
        planner_config,
        small_device,
        kill_at,
    ):
        reference_scheduler, reference_report = reference_runs["fifo"]
        restored, report = run_killed_and_restored(
            pp2_cost_model, fleet_samples, planner_config, small_device, "fifo", kill_at
        )
        assert_reports_identical(report, reference_report)
        for name, record in reference_scheduler.jobs.items():
            assert_records_identical(
                restored.jobs[name].checkpoint.records, record.checkpoint.records
            )

    @pytest.mark.parametrize("policy", ["srw", "priority"])
    @pytest.mark.parametrize("kill_at", [2, 5, 8])
    def test_other_policies_selected_boundaries(
        self,
        reference_runs,
        pp2_cost_model,
        fleet_samples,
        planner_config,
        small_device,
        policy,
        kill_at,
    ):
        reference_scheduler, reference_report = reference_runs[policy]
        restored, report = run_killed_and_restored(
            pp2_cost_model, fleet_samples, planner_config, small_device, policy, kill_at
        )
        assert_reports_identical(report, reference_report)
        for name, record in reference_scheduler.jobs.items():
            assert_records_identical(
                restored.jobs[name].checkpoint.records, record.checkpoint.records
            )

    def test_restore_before_any_event_is_a_full_replay(
        self, reference_runs, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """Boundary 0 snapshots the pristine post-seeding state."""
        _, reference_report = reference_runs["fifo"]
        _, report = run_killed_and_restored(
            pp2_cost_model, fleet_samples, planner_config, small_device, "fifo", 0
        )
        assert_reports_identical(report, reference_report)


class TestPooledRestore:
    """Restore works with the shared planning cluster."""

    def test_pooled_kill_restore(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        pooled = dict(planner_processes=2)
        specs = crash_specs(pp2_cost_model, fleet_samples, planner_config)
        reference = build_scheduler(specs, small_device, make_config("fifo", **pooled))
        reference_report = reference.run()

        _, report = run_killed_and_restored(
            pp2_cost_model,
            fleet_samples,
            planner_config,
            small_device,
            "fifo",
            5,
            **pooled,
        )
        # The restored process spawns its own planning cluster, so the
        # spawn count legitimately differs; everything else is exact.
        assert_reports_identical(report, reference_report, ignore_worker_count=True)
        assert report.planner_workers_spawned > 0


class TestCheckpointSink:
    """The periodic checkpoint_sink emits restorable snapshots."""

    def test_sink_snapshots_restore_bit_identically(
        self, reference_runs, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        snapshots: list[dict] = []
        specs = crash_specs(pp2_cost_model, fleet_samples, planner_config)
        scheduler = build_scheduler(
            specs,
            small_device,
            make_config(
                "fifo", checkpoint_interval_events=3, checkpoint_sink=snapshots.append
            ),
        )
        report = scheduler.run()
        _, reference_report = reference_runs["fifo"]
        assert_reports_identical(report, reference_report)
        assert len(snapshots) >= 2
        assert all(s["version"] == SNAPSHOT_VERSION for s in snapshots)

        # Restoring from the *last* periodic snapshot finishes the run
        # identically — the disaster-recovery path end to end.
        snapshot = json.loads(json.dumps(snapshots[-1]))
        fresh = crash_specs(pp2_cost_model, fleet_samples, planner_config)
        restored = FleetScheduler.restore(
            snapshot,
            ClusterTopology.for_num_gpus(4, device_spec=small_device),
            {spec.name: spec for spec in fresh},
            config=make_config("fifo"),
        )
        assert_reports_identical(restored.run(), reference_report)


class TestCheckpointGuards:
    """Misuse of the checkpoint/restore API fails loudly."""

    @pytest.fixture()
    def snapshot(self, pp2_cost_model, fleet_samples, planner_config, small_device):
        captured: dict[str, dict] = {}

        def hook(scheduler: FleetScheduler) -> None:
            if scheduler._events_processed == 3:
                captured["snapshot"] = scheduler.checkpoint()
                raise SchedulerKilled("guard-test kill")

        specs = crash_specs(pp2_cost_model, fleet_samples, planner_config)
        doomed = build_scheduler(
            specs, small_device, make_config("fifo", on_event=hook)
        )
        with pytest.raises(SchedulerKilled):
            doomed.run()
        return captured["snapshot"]

    def test_checkpoint_outside_run_raises(self, small_device):
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        with pytest.raises(RuntimeError, match="event boundary"):
            scheduler.checkpoint()

    def _specs_by_name(self, pp2_cost_model, fleet_samples, planner_config):
        return {
            spec.name: spec
            for spec in crash_specs(pp2_cost_model, fleet_samples, planner_config)
        }

    def test_restore_rejects_unknown_version(
        self, snapshot, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        bad = dict(snapshot, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(ValueError, match="version"):
            FleetScheduler.restore(
                bad,
                ClusterTopology.for_num_gpus(4, device_spec=small_device),
                self._specs_by_name(pp2_cost_model, fleet_samples, planner_config),
            )

    def test_restore_rejects_wrong_cluster_size(
        self, snapshot, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        with pytest.raises(ValueError, match="device"):
            FleetScheduler.restore(
                snapshot,
                ClusterTopology.for_num_gpus(8, device_spec=small_device),
                self._specs_by_name(pp2_cost_model, fleet_samples, planner_config),
            )

    def test_restore_rejects_policy_mismatch(
        self, snapshot, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        with pytest.raises(ValueError, match="policy"):
            FleetScheduler.restore(
                snapshot,
                ClusterTopology.for_num_gpus(4, device_spec=small_device),
                self._specs_by_name(pp2_cost_model, fleet_samples, planner_config),
                config=make_config("priority"),
            )

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda state: state["free"].append(-1), "device -1 out of range"),
            (lambda state: state["failed"].append(state["free"][0]), "listed twice"),
            (lambda state: state["free"].pop(), "missing from the snapshot partition"),
        ],
    )
    def test_restore_rejects_corrupted_allocator_partition(
        self, snapshot, corrupt, message, pp2_cost_model, fleet_samples, planner_config,
        small_device,
    ):
        bad = json.loads(json.dumps(snapshot))
        corrupt(bad["allocator"])
        with pytest.raises(ValueError, match=message):
            FleetScheduler.restore(
                bad,
                ClusterTopology.for_num_gpus(4, device_spec=small_device),
                self._specs_by_name(pp2_cost_model, fleet_samples, planner_config),
            )

    def test_restore_rejects_missing_spec(
        self, snapshot, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        specs = self._specs_by_name(pp2_cost_model, fleet_samples, planner_config)
        del specs["job0"]
        with pytest.raises(ValueError, match="job0"):
            FleetScheduler.restore(
                snapshot,
                ClusterTopology.for_num_gpus(4, device_spec=small_device),
                specs,
            )

    def test_restored_scheduler_rejects_new_submissions_and_events(
        self, snapshot, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        restored = FleetScheduler.restore(
            json.loads(json.dumps(snapshot)),
            ClusterTopology.for_num_gpus(4, device_spec=small_device),
            self._specs_by_name(pp2_cost_model, fleet_samples, planner_config),
            config=make_config("fifo"),
        )
        extra = crash_specs(pp2_cost_model, fleet_samples, planner_config)[0]
        with pytest.raises(RuntimeError):
            restored.submit(extra)
        with pytest.raises(RuntimeError):
            restored.inject_device_failure(200.0, 0)
        # ... but it still finishes the restored run cleanly.
        assert restored.run().finished_jobs == 2
