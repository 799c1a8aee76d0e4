"""Chaos-harness tests: fault plans, storms, planner faults, backoff, aging.

Covers the fault-injection side of the crash-resilience tentpole — the
fault-plan grammar and its generators, the injector lowering onto the
scheduler's event machinery, the seeded storm + rack-outage acceptance
scenario (≥10 jobs, all terminal, no leaked devices, MTTR accounting) —
plus the graceful-degradation satellites: planner-worker kills falling
back to inline planning, transient plan losses driving the retry
path, planning backoff/deadline semantics, regrowth hysteresis and
priority aging.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.core.recomputation import OutOfMemoryError
from repro.data.sampler import MiniBatchSampler
from repro.fleet import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FleetConfig,
    FleetScheduler,
    JobSpec,
    JobState,
    PreemptivePriorityPolicy,
    failure_storm,
    rack_outage,
    random_fault_plan,
)
from repro.parallel.config import ParallelConfig
from repro.runtime.planner_pool import PlanFailedError, PlannerPool

from test_fleet_checkpoint import assert_reports_identical


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


# ---------------------------------------------------------------------- grammar


class TestFaultPlanGrammar:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="time_ms"):
            FaultEvent(time_ms=-1.0, kind="failure", device=0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time_ms=0.0, kind="meteor", device=0)
        with pytest.raises(ValueError, match="device"):
            FaultEvent(time_ms=0.0, kind="failure")
        with pytest.raises(ValueError, match="node"):
            FaultEvent(time_ms=0.0, kind="rack_outage")
        with pytest.raises(ValueError, match="count"):
            FaultEvent(time_ms=0.0, kind="planner_kill", count=0)
        with pytest.raises(ValueError, match="repair_after_ms"):
            FaultEvent(time_ms=0.0, kind="failure", device=0, repair_after_ms=0.0)

    def test_to_dict_omits_defaults(self):
        assert FaultEvent(time_ms=1.0, kind="failure", device=3).to_dict() == {
            "time_ms": 1.0,
            "kind": "failure",
            "device": 3,
        }
        full = FaultEvent(
            time_ms=2.0, kind="rack_outage", node=1, repair_after_ms=5.0
        ).to_dict()
        assert full == {
            "time_ms": 2.0,
            "kind": "rack_outage",
            "node": 1,
            "repair_after_ms": 5.0,
        }

    def test_plan_round_trips_through_dicts(self):
        plan = FaultPlan(
            events=[
                FaultEvent(time_ms=1.0, kind="failure", device=0, repair_after_ms=4.0),
                FaultEvent(time_ms=2.0, kind="planner_kill", count=2),
                FaultEvent(time_ms=3.0, kind="rack_outage", node=0),
            ],
            seed=7,
            description="scripted",
        )
        rebuilt = FaultPlan.from_dicts(plan.to_dicts(), seed=7, description="scripted")
        assert rebuilt.events == plan.events
        assert rebuilt.seed == plan.seed
        assert len(rebuilt) == 3

    def test_merge_sorts_by_time_stably(self):
        first = FaultPlan(
            events=[
                FaultEvent(time_ms=5.0, kind="failure", device=0),
                FaultEvent(time_ms=1.0, kind="failure", device=1),
            ],
            description="a",
        )
        second = FaultPlan(
            events=[FaultEvent(time_ms=5.0, kind="repair", device=0)], description="b"
        )
        merged = first.merge(second)
        assert [e.time_ms for e in merged.events] == [1.0, 5.0, 5.0]
        # Stable: at the tied instant, first-plan events precede second-plan.
        assert [e.kind for e in merged.events] == ["failure", "failure", "repair"]
        assert merged.description == "a + b"

    def test_counts(self):
        plan = FaultPlan(
            events=[
                FaultEvent(time_ms=0.0, kind="failure", device=0),
                FaultEvent(time_ms=1.0, kind="failure", device=1),
                FaultEvent(time_ms=2.0, kind="store_error"),
            ]
        )
        assert plan.counts() == {"failure": 2, "store_error": 1}


class TestFaultGenerators:
    def test_storm_is_seed_deterministic(self):
        first = failure_storm(8, seed=11, duration_ms=50_000.0)
        second = failure_storm(8, seed=11, duration_ms=50_000.0)
        assert first.events == second.events
        assert first.seed == 11
        assert failure_storm(8, seed=12, duration_ms=50_000.0).events != first.events

    def test_storm_respects_window_and_device_range(self):
        plan = failure_storm(
            4, seed=3, start_ms=10.0, duration_ms=30_000.0, rate_per_s=1.0
        )
        assert len(plan) > 0
        for event in plan.events:
            assert event.kind == "failure"
            assert 10.0 <= event.time_ms < 10.0 + 30_000.0
            assert 0 <= event.device < 4
            assert event.repair_after_ms == 5_000.0

    def test_storm_validation(self):
        with pytest.raises(ValueError, match="num_devices"):
            failure_storm(0, seed=1)
        with pytest.raises(ValueError, match="rate_per_s"):
            failure_storm(4, seed=1, rate_per_s=0.0)

    def test_rack_outage_plan(self):
        plan = rack_outage(node=1, time_ms=30.0, repair_after_ms=10.0)
        assert len(plan) == 1
        assert plan.events[0].kind == "rack_outage"
        assert plan.events[0].node == 1

    def test_random_fault_plan_is_seed_deterministic(self, small_device):
        topology = ClusterTopology.for_num_gpus(8, gpus_per_node=4, device_spec=small_device)
        first = random_fault_plan(topology, seed=5)
        second = random_fault_plan(topology, seed=5)
        assert first.events == second.events
        assert first.seed == 5


class TestFaultInjectorLowering:
    def test_plan_lowers_to_scheduler_events(self, small_device):
        topology = ClusterTopology.for_num_gpus(8, gpus_per_node=4, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        plan = FaultPlan(
            events=[
                FaultEvent(time_ms=1.0, kind="failure", device=0, repair_after_ms=4.0),
                FaultEvent(time_ms=2.0, kind="rack_outage", node=1, repair_after_ms=6.0),
                FaultEvent(time_ms=3.0, kind="arrival", device=2),
                FaultEvent(time_ms=4.0, kind="repair", device=3),
                FaultEvent(time_ms=5.0, kind="planner_kill", count=2),
                FaultEvent(time_ms=6.0, kind="store_error"),
            ]
        )
        counts = FaultInjector(plan).apply(scheduler)
        # rack_outage of a 4-GPU node lowers to 4 failures + 4 repairs.
        assert len(scheduler._failures) == 1 + 4
        assert len(scheduler._repairs) == 1 + 4 + 1
        assert len(scheduler._arrivals) == 1
        assert len(scheduler._planner_faults) == 2
        assert counts == plan.counts()

    def test_apply_after_run_raises(self, small_device):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        scheduler.run()
        plan = FaultPlan(events=[FaultEvent(time_ms=1.0, kind="failure", device=0)])
        with pytest.raises(RuntimeError):
            FaultInjector(plan).apply(scheduler)


# ---------------------------------------------------------------------- storm scenario


def storm_specs(pp2_cost_model, fleet_samples, planner_config):
    """Ten dp1-pp2 jobs — the acceptance scenario's workload."""
    return [
        make_spec(
            pp2_cost_model,
            fleet_samples,
            planner_config,
            name=f"job{i}",
            num_iterations=2,
            seed=i,
            max_retries=4,
        )
        for i in range(10)
    ]


def run_storm(pp2_cost_model, fleet_samples, planner_config, small_device):
    topology = ClusterTopology.for_num_gpus(8, gpus_per_node=4, device_spec=small_device)
    plan = failure_storm(
        8, seed=17, start_ms=5.0, duration_ms=80.0, rate_per_s=60.0, repair_after_ms=12.0
    ).merge(rack_outage(node=1, time_ms=35.0, repair_after_ms=15.0))

    def invariant(scheduler: FleetScheduler) -> None:
        # The 4-way device partition (free/busy/failed/absent) must hold
        # at *every* event boundary, not just at the end.
        scheduler.allocator.check_consistent()

    scheduler = FleetScheduler(topology, FleetConfig(on_event=invariant))
    for spec in storm_specs(pp2_cost_model, fleet_samples, planner_config):
        scheduler.submit(spec)
    counts = FaultInjector(plan).apply(scheduler)
    return scheduler, scheduler.run(), counts


@pytest.fixture(scope="module")
def storm_run(pp2_cost_model, fleet_samples, planner_config, small_device):
    return run_storm(pp2_cost_model, fleet_samples, planner_config, small_device)


class TestStormScenario:
    """Seeded storm + correlated rack outage over a 10-job fleet."""

    def test_storm_actually_stormed(self, storm_run):
        _, report, counts = storm_run
        assert counts["failure"] >= 3
        assert counts["rack_outage"] == 1
        assert report.total_preemptions >= 1

    def test_every_job_reaches_a_terminal_state(self, storm_run):
        scheduler, report, _ = storm_run
        assert len(report.jobs) == 10
        for job in report.jobs:
            assert job.state in (JobState.FINISHED, JobState.FAILED), job.name
        assert report.finished_jobs + report.failed_jobs == 10
        assert report.finished_jobs >= 1
        assert not scheduler._pending and not scheduler._running

    def test_no_devices_leaked(self, storm_run):
        scheduler, _, _ = storm_run
        allocator = scheduler.allocator
        allocator.check_consistent()
        assert allocator.busy_count == 0
        assert allocator.free_count == allocator.alive_count

    def test_mttr_and_fault_accounting(self, storm_run):
        _, report, _ = storm_run
        assert report.devices_repaired >= 1
        assert len(report.repair_durations_ms) == report.devices_repaired
        assert report.mttr_ms > 0.0
        assert all(d > 0.0 for d in report.repair_durations_ms)
        summary = report.summary()
        assert summary["mttr_ms"] == report.mttr_ms
        assert "planner_faults" in summary
        assert summary["devices_repaired"] == report.devices_repaired

    def test_storm_replays_bit_identically(
        self, storm_run, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        _, report, _ = storm_run
        _, replay, _ = run_storm(
            pp2_cost_model, fleet_samples, planner_config, small_device
        )
        assert_reports_identical(replay, report)


# ---------------------------------------------------------------------- planner faults


class TestPlannerKillDegradation:
    def test_dead_pool_degrades_to_inline_planning(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """Killing every planning-cluster worker mid-run degrades the
        fleet to inline planning instead of failing jobs."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(
            topology,
            FleetConfig(planner_processes=2),
        )
        record = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config, num_iterations=4
            )
        )
        scheduler.inject_planner_fault(16.0, "planner_kill", count=2)
        report = scheduler.run()
        assert record.state == JobState.FINISHED
        assert record.degraded_iterations >= 1
        assert report.total_degraded_iterations == record.degraded_iterations
        assert report.planner_faults_injected == 1
        [fault] = report.fault_log
        assert fault["kind"] == "planner_kill"
        assert fault["applied"] >= 1
        assert report.jobs[0].degraded_iterations == record.degraded_iterations

    def test_kill_validation(self, small_device):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        with pytest.raises(ValueError, match="kind"):
            scheduler.inject_planner_fault(1.0, "segfault")
        with pytest.raises(ValueError):
            scheduler.inject_planner_fault(-1.0, "planner_kill")
        with pytest.raises(ValueError):
            scheduler.inject_planner_fault(1.0, "planner_kill", count=0)


class TestStoreErrorFault:
    def test_plan_loss_is_retried_to_completion(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """A transient plan loss poisons the pending plan; the job's
        attempt fails planning, retries and finishes."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(
            topology,
            FleetConfig(planner_processes=1),
        )
        record = scheduler.submit(
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                num_iterations=4,
                max_retries=3,
            )
        )
        scheduler.inject_planner_fault(16.0, "store_error")
        report = scheduler.run()
        assert record.state == JobState.FINISHED
        assert record.retries >= 1
        assert any(a.outcome == "plan_failure" for a in record.attempts)
        [fault] = report.fault_log
        assert fault["kind"] == "store_error"
        assert fault["applied"] >= 1
        # Committed progress survives the poisoned attempt: the job still
        # trains exactly its target number of iterations.
        assert record.checkpoint.completed_iterations == 4


# ---------------------------------------------------------------------- backoff / deadline


class _FlakyPlanner:
    """Fails the first ``failures`` plan() calls, then delegates."""

    def __init__(self, inner, box):
        self._inner = inner
        self._box = box

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def plan(self, samples, iteration=0):
        if self._box[0] > 0:
            self._box[0] -= 1
            raise OutOfMemoryError("synthetic transient planning failure")
        return self._inner.plan(samples, iteration)


def flaky_factory(failures: int):
    box = [failures]

    def factory(spec, data_parallel):
        return _FlakyPlanner(
            DynaPipePlanner(
                spec.cost_model,
                data_parallel_size=data_parallel,
                config=spec.planner_config,
            ),
            box,
        )

    return factory


class _ExplodingPlanner:
    """A planner that can never produce a plan."""

    def __init__(self, cost_model, data_parallel_size):
        self.cost_model = cost_model
        self.data_parallel_size = data_parallel_size

    def plan(self, samples, iteration=0):
        raise OutOfMemoryError("synthetic planning failure")


class TestPlanningBackoff:
    def test_backoff_delays_grow_exponentially(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(
            topology,
            FleetConfig(planning_backoff_base_ms=8.0, planning_backoff_factor=2.0),
        )
        record = scheduler.submit(
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                max_retries=5,
                planner_factory=flaky_factory(2),
            )
        )
        scheduler.run()
        assert record.state == JobState.FINISHED
        assert record.planning_retries == 2
        # Without a deadline the retry budget is still charged.
        assert record.retries == 2
        # The streak resets once an iteration commits.
        assert record.planning_failure_streak == 0
        assert record.planning_failed_since_ms is None
        failures, success = record.attempts[:2], record.attempts[2]
        assert [a.outcome for a in failures] == ["plan_failure", "plan_failure"]
        # 1st retry waits >= base, 2nd >= base × factor.
        assert failures[1].admitted_ms - failures[0].ended_ms >= 8.0
        assert success.admitted_ms - failures[1].ended_ms >= 16.0
        assert success.outcome == "finished"

    def test_backoff_jitter_is_seed_deterministic(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        def run_once():
            topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
            scheduler = FleetScheduler(
                topology,
                FleetConfig(
                    planning_backoff_base_ms=8.0,
                    planning_backoff_jitter=0.5,
                    seed=42,
                ),
            )
            record = scheduler.submit(
                make_spec(
                    pp2_cost_model,
                    fleet_samples,
                    planner_config,
                    max_retries=5,
                    planner_factory=flaky_factory(2),
                )
            )
            scheduler.run()
            return record

        first, second = run_once(), run_once()
        assert first.state == JobState.FINISHED
        assert [a.admitted_ms for a in first.attempts] == [
            a.admitted_ms for a in second.attempts
        ]
        # Jitter actually stretched the waits beyond the un-jittered delay.
        assert first.attempts[1].admitted_ms - first.attempts[0].ended_ms >= 8.0


class TestPlanningDeadline:
    def test_deadline_bounds_wall_time_not_retry_budget(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(
            topology,
            FleetConfig(planning_backoff_base_ms=4.0, planning_backoff_factor=2.0),
        )
        record = scheduler.submit(
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                name="doomed",
                max_retries=0,
                planning_deadline_ms=50.0,
                planner_factory=lambda spec, dp: _ExplodingPlanner(spec.cost_model, dp),
            )
        )
        report = scheduler.run()
        assert record.state == JobState.FAILED
        assert "planning deadline exceeded" in record.failure_reason
        # Wall time, not the retry budget, bounded the job: with
        # max_retries=0 the legacy path would have failed it on the first
        # planning error.
        assert record.retries == 0
        assert record.planning_retries >= 2
        assert record.finished_ms >= 50.0
        assert report.failed_jobs == 1
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.busy_count == 0

    def test_deadline_requires_backoff(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """A deadline without backoff would livelock (retry at the same
        instant forever); submit() rejects the combination."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology)
        with pytest.raises(ValueError, match="planning_backoff_base_ms"):
            scheduler.submit(
                make_spec(
                    pp2_cost_model,
                    fleet_samples,
                    planner_config,
                    planning_deadline_ms=50.0,
                )
            )


# ---------------------------------------------------------------------- hysteresis / aging


class TestRegrowthHysteresis:
    def test_hysteresis_defers_regrowth(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """With ``regrow_min_boundaries=3`` a shrunk job must commit three
        boundaries before regrowing; by default it regrows at the first
        boundary after capacity returns."""

        def run_once(**config_overrides):
            topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
            scheduler = FleetScheduler(
                topology, FleetConfig(repair_delay_ms=10.0, **config_overrides)
            )
            record = scheduler.submit(
                make_spec(
                    pp2_cost_model,
                    fleet_samples,
                    planner_config,
                    name="elastic",
                    parallel=ParallelConfig(2, 2, 1),
                    global_batch_tokens=8192,
                    num_iterations=6,
                    elastic=True,
                )
            )
            scheduler.inject_device_failure(2.0, 1)
            return record, scheduler.run()

        eager_record, eager_report = run_once()
        damped_record, damped_report = run_once(regrow_min_boundaries=3)
        assert eager_report.total_regrows == 1
        assert damped_report.total_regrows == 1
        eager_shrunk = eager_record.attempts[1]
        damped_shrunk = damped_record.attempts[1]
        assert eager_shrunk.iterations_completed < 3
        assert damped_shrunk.iterations_completed >= 3
        # The damped job regrows later but still finishes every iteration.
        assert damped_record.state == JobState.FINISHED
        assert damped_record.checkpoint.completed_iterations == 6

    def test_validation(self, small_device):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        with pytest.raises(ValueError, match="regrow_min_boundaries"):
            FleetScheduler(topology, FleetConfig(regrow_min_boundaries=-1))


class TestPriorityAging:
    def _specs(self, pp2_cost_model, fleet_samples, planner_config):
        return [
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                name="filler",
                priority=5,
                num_iterations=3,
            ),
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                name="lo",
                priority=0,
                num_iterations=2,
            ),
            make_spec(
                pp2_cost_model,
                fleet_samples,
                planner_config,
                name="hi",
                priority=3,
                num_iterations=2,
                submit_time_ms=40.0,
            ),
        ]

    def _run(self, pp2_cost_model, fleet_samples, planner_config, small_device, aging):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(
            topology, FleetConfig(policy="priority", priority_aging_ms=aging)
        )
        for spec in self._specs(pp2_cost_model, fleet_samples, planner_config):
            scheduler.submit(spec)
        report = scheduler.run()
        return scheduler, report

    def test_aging_prevents_starvation_by_newer_high_priority_jobs(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """Without aging the late high-priority job always outranks the
        long-waiting background job; with aging the background job's
        waiting time wins it the seat."""
        strict, strict_report = self._run(
            pp2_cost_model, fleet_samples, planner_config, small_device, None
        )
        aged, aged_report = self._run(
            pp2_cost_model, fleet_samples, planner_config, small_device, 12.0
        )
        assert strict_report.finished_jobs == 3
        assert aged_report.finished_jobs == 3
        strict_lo = strict.jobs["lo"]
        strict_hi = strict.jobs["hi"]
        aged_lo = aged.jobs["lo"]
        aged_hi = aged.jobs["hi"]
        assert strict_hi.first_admitted_ms < strict_lo.first_admitted_ms
        assert aged_lo.first_admitted_ms < aged_hi.first_admitted_ms

    def test_effective_priority_grows_with_waiting(self):
        policy = PreemptivePriorityPolicy(aging_ms=10.0)

        class _FakeSpec:
            priority = 1

        class _FakeRecord:
            spec = _FakeSpec()
            last_queued_ms = 0.0

        record = _FakeRecord()
        assert policy.effective_priority(record, 0.0) == 1.0
        assert policy.effective_priority(record, 25.0) == pytest.approx(3.5)

    def test_validation(self, small_device):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        with pytest.raises(ValueError, match="priority"):
            FleetScheduler(
                topology, FleetConfig(policy="fifo", priority_aging_ms=10.0)
            )
        with pytest.raises(ValueError, match="aging_ms"):
            PreemptivePriorityPolicy(aging_ms=0.0)


# ---------------------------------------------------------------------- pool primitives


@pytest.fixture(scope="module")
def pool_planner(pp2_cost_model):
    return DynaPipePlanner(
        pp2_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
    )


@pytest.fixture(scope="module")
def pool_minibatches(fleet_samples):
    sampler = MiniBatchSampler(fleet_samples, 4096, seed=0)
    batches = []
    for minibatch in sampler.epoch(0):
        batches.append(minibatch.samples)
        if len(batches) >= 4:
            break
    return batches


def _wait_until(predicate, timeout=60.0):
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.01)
    return predicate()


class TestPlannerPoolChaosPrimitives:
    def test_kill_workers_counts_and_stops_planning(self, pool_planner, pool_minibatches):
        pool = PlannerPool(num_workers=2, lookahead=1)
        pool.submit_job("job", pool_planner, pool_minibatches)
        assert pool.kill_workers() == 0  # not started yet: nothing to kill
        pool.start()
        try:
            assert "replicas" in pool.wait_payload("job", 0)
            killed = pool.kill_workers(1)
            assert killed == 1
            assert pool.live_workers() == 1
            assert pool.kill_workers() == 1
            assert pool.live_workers() == 0
        finally:
            pool.stop()

    def test_wait_payload_fails_fast_when_every_worker_is_dead(
        self, pool_planner, pool_minibatches
    ):
        pool = PlannerPool(num_workers=1, lookahead=1)
        pool.submit_job("job", pool_planner, pool_minibatches)
        pool.start()
        try:
            pool.wait_payload("job", 0)
            pool.kill_workers()
            # Iteration 3 is beyond the lookahead window, so it was never
            # planned; a dead pool must fail fast, not spin out the timeout.
            started = time.perf_counter()
            with pytest.raises(PlanFailedError, match="workers are dead"):
                pool.wait_payload("job", 3, timeout=60.0)
            assert time.perf_counter() - started < 30.0
        finally:
            pool.stop()

    def test_inject_plan_loss_poisons_exactly_one_iteration(
        self, pool_planner, pool_minibatches
    ):
        pool = PlannerPool(num_workers=1)
        pool.submit_job("victim", pool_planner, pool_minibatches, lookahead=4)
        pool.start()
        try:
            assert _wait_until(
                lambda: len(pool.planned_iterations("victim")) >= 2
            )
            assert pool.inject_plan_loss("victim", 1) is True
            with pytest.raises(PlanFailedError):
                pool.wait_payload("victim", 1, timeout=10.0)
            # Iteration 0 is untouched.
            assert "replicas" in pool.wait_payload("victim", 0)
            # Re-poisoning the failed iteration is a no-op.
            assert pool.inject_plan_loss("victim", 1) is False
            # Unknown streams and out-of-range iterations are no-ops.
            assert pool.inject_plan_loss("nobody", 0) is False
            assert pool.inject_plan_loss("victim", 99) is False
        finally:
            pool.stop()

    def test_inject_plan_loss_skips_consumed_iterations(
        self, pool_planner, pool_minibatches
    ):
        pool = PlannerPool(num_workers=1)
        pool.submit_job("victim", pool_planner, pool_minibatches, lookahead=4)
        pool.start()
        try:
            pool.wait_payload("victim", 0)
            pool.notify_consumed("victim", 0)
            assert pool.inject_plan_loss("victim", 0) is False
        finally:
            pool.stop()
