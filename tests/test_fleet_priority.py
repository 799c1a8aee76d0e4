"""Priority time-slicing tests: graceful eviction at iteration boundaries.

The acceptance scenario is a high-priority arrival evicting a running
low-priority gang at an iteration boundary — the in-flight iteration
commits (unlike failure preemption), no device leaks, the evicted job
resumes after the priority job and finishes with records bit-identical to
an uninterrupted standalone run.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.planner import PlannerConfig
from repro.fleet import FleetConfig, FleetScheduler, JobSpec, JobState
from repro.fleet.policies import PreemptivePriorityPolicy, make_policy
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


class TestPolicyUnit:
    def test_make_policy_resolves_priority(self):
        assert make_policy("priority").name == "priority"

    def test_order_by_descending_priority_then_fifo(
        self, pp2_cost_model, fleet_samples, planner_config
    ):
        from repro.fleet.job import JobRecord

        records = [
            JobRecord(
                spec=make_spec(
                    pp2_cost_model, fleet_samples, planner_config,
                    name=name, priority=priority,
                ),
                sequence=index,
            )
            for index, (name, priority) in enumerate(
                [("low", 0), ("high", 5), ("mid", 1), ("high-later", 5)]
            )
        ]
        ordered = PreemptivePriorityPolicy().order(records, now_ms=0.0)
        assert [r.spec.name for r in ordered] == ["high", "high-later", "mid", "low"]

    def test_preempts_requires_strictly_higher_priority(
        self, pp2_cost_model, fleet_samples, planner_config
    ):
        from repro.fleet.job import JobRecord

        policy = PreemptivePriorityPolicy()
        low = JobRecord(
            spec=make_spec(pp2_cost_model, fleet_samples, planner_config, name="a", priority=0)
        )
        high = JobRecord(
            spec=make_spec(pp2_cost_model, fleet_samples, planner_config, name="b", priority=2)
        )
        peer = JobRecord(
            spec=make_spec(pp2_cost_model, fleet_samples, planner_config, name="c", priority=2)
        )
        assert policy.preempts(high, low)
        assert not policy.preempts(low, high)
        assert not policy.preempts(high, peer)

    def test_fifo_and_srw_never_preempt(
        self, pp2_cost_model, fleet_samples, planner_config
    ):
        from repro.fleet.job import JobRecord

        low = JobRecord(
            spec=make_spec(pp2_cost_model, fleet_samples, planner_config, name="a", priority=0)
        )
        high = JobRecord(
            spec=make_spec(pp2_cost_model, fleet_samples, planner_config, name="b", priority=9)
        )
        assert not make_policy("fifo").preempts(high, low)
        assert not make_policy("srw").preempts(high, low)


class TestGracefulEviction:
    @pytest.fixture(scope="class")
    def evicted_fleet(self, pp2_cost_model, fleet_samples, planner_config, small_device):
        """A low-priority job holds the whole 2-GPU cluster; a priority-5
        job arrives at t=5 and takes the gang at the next boundary."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(policy="priority"))
        low = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="low", priority=0, num_iterations=3,
            )
        )
        high = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="high", priority=5, num_iterations=2, seed=1, submit_time_ms=5.0,
            )
        )
        report = scheduler.run()
        return scheduler, low, high, report

    def test_eviction_is_at_an_iteration_boundary(self, evicted_fleet):
        _, low, high, report = evicted_fleet
        assert report.finished_jobs == 2
        assert low.evictions == 1
        assert report.total_evictions == 1
        evicted = low.attempts[0]
        assert evicted.outcome == "evicted"
        # Graceful: the iteration in flight when the priority job arrived
        # committed before the gang was handed over...
        assert evicted.iterations_completed >= 1
        assert evicted.ended_ms > 5.0
        # ...and the priority job starts at exactly that boundary.
        assert high.first_admitted_ms == pytest.approx(evicted.ended_ms)

    def test_eviction_spends_no_retry_budget_and_loses_no_work(self, evicted_fleet):
        _, low, high, _ = evicted_fleet
        assert low.retries == 0
        assert low.preemptions == 0
        resumed = low.attempts[1]
        assert resumed.start_iteration == low.attempts[0].iterations_completed
        # The evicted job resumes only after the priority job finished.
        assert resumed.admitted_ms >= high.finished_ms
        assert low.finished_ms > high.finished_ms
        # End to end the evicted job's records are bit-identical to an
        # uninterrupted standalone run: graceful preemption loses nothing.
        assert_records_identical(
            low.checkpoint.records, standalone_records(low.spec, 1)
        )

    def test_no_device_leaked(self, evicted_fleet):
        scheduler, _, _, _ = evicted_fleet
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.busy_count == 0
        assert scheduler.allocator.free_count == 2

    def test_fifo_does_not_evict(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """The same two jobs under FIFO: the high-priority arrival waits for
        the running job to finish — priority is only honoured by the
        preemptive policy."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(policy="fifo"))
        low = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="low", priority=0, num_iterations=3,
            )
        )
        high = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="high", priority=5, num_iterations=2, seed=1, submit_time_ms=5.0,
            )
        )
        report = scheduler.run()
        assert report.finished_jobs == 2
        assert report.total_evictions == 0
        assert len(low.attempts) == 1
        assert high.first_admitted_ms == pytest.approx(low.finished_ms)

    def test_eviction_retires_shared_pool_stream(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """An evicted attempt's planning stream is retired from the shared
        pool (PR 4's retire_job path) and the resumed attempt registers a
        fresh one — no stream or worker outlives the run."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(
            topology,
            FleetConfig(
                policy="priority",
                planner_processes=1,
            ),
        )
        low = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="low", priority=0, num_iterations=3,
            )
        )
        scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="high", priority=5, num_iterations=2, seed=1, submit_time_ms=5.0,
            )
        )
        report = scheduler.run()
        assert report.finished_jobs == 2
        assert low.evictions == 1
        pool = scheduler._shared_pool
        assert pool is not None
        assert pool.job_names() == []
        assert pool.live_workers() == 0
        assert_records_identical(
            low.checkpoint.records, standalone_records(low.spec, 1)
        )


class TestProgressiveEviction:
    def test_freed_devices_are_reserved_for_the_draining_waiter(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """A 4-device priority job over two 2-device victims: each victim is
        evicted exactly once and the devices freed by the first eviction
        are *reserved* (not backfilled to the evicted job) until the second
        boundary seats the waiter.  Regression: without reservation the
        evicted victim was immediately re-admitted onto its own freed
        devices, ping-ponging evictions without ever seating the waiter."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(policy="priority"))
        a = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="a", num_iterations=4, seed=1,
            )
        )
        b = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="b", num_iterations=4, seed=2,
            )
        )
        big = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="big", parallel=ParallelConfig(2, 2, 1), elastic=False,
                num_iterations=2, seed=3, priority=9, submit_time_ms=5.0,
            )
        )
        report = scheduler.run()
        assert report.finished_jobs == 3
        assert a.evictions == 1 and b.evictions == 1
        assert report.total_evictions == 2
        # The waiter is seated at the *second* victim's boundary, before
        # either victim resumes.
        assert big.first_admitted_ms <= min(
            attempt.admitted_ms for attempt in (a.attempts[1], b.attempts[1])
        )
        assert big.finished_ms < min(a.finished_ms, b.finished_ms)
        scheduler.allocator.check_consistent()
        assert scheduler.allocator.busy_count == 0


class TestRegrowthYieldsToWaiters:
    def test_regrowth_does_not_swallow_a_priority_waiters_seat(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """Regression: a priority job arriving in the same instant as a
        shrunk lower-priority job's boundary (completion ties ahead of the
        arrival, so the waiter is visible to the boundary checks before any
        admission pass) must get the free devices — the shrunk job's
        regrowth yields instead of grabbing them."""
        topology = ClusterTopology.for_num_gpus(8, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(policy="priority"))
        shrunk_spec = make_spec(
            pp2_cost_model, fleet_samples, planner_config,
            name="shrunk", parallel=ParallelConfig(2, 2, 1),
            num_iterations=6, submit_time_ms=0.5,
        )
        shrunk = scheduler.submit(shrunk_spec)
        # Five devices die before the job arrives: it is admitted at dp1.
        for device in (3, 4, 5, 6, 7):
            scheduler.inject_device_failure(0.0, device)
        # Four of them are repaired early, so the free pool can seat a
        # 4-device priority job...
        for device in (3, 4, 5, 6):
            scheduler.inject_device_repair(1.0, device)
        # ...which is submitted at *exactly* the shrunk job's first
        # checkpoint boundary (iteration times are bit-identical to the
        # standalone run, so the boundary is computable).
        boundary = 0.5 + standalone_records(shrunk_spec, 1)[0].measured_ms
        urgent = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="urgent", parallel=ParallelConfig(2, 2, 1), elastic=False,
                num_iterations=2, seed=1, priority=5, submit_time_ms=boundary,
            )
        )
        report = scheduler.run()
        assert report.finished_jobs == 2
        assert shrunk.attempts[0].data_parallel == 1
        # The waiter was seated at its arrival instant, not displaced by a
        # lower-priority regrowth.
        assert urgent.first_admitted_ms == pytest.approx(boundary)
        assert urgent.queueing_delay_ms == pytest.approx(0.0)
        # The shrunk job regrew only once the priority job was out of the
        # way (if it regrew before finishing at all).
        for attempt in shrunk.attempts[1:]:
            if attempt.data_parallel > 1:
                assert attempt.admitted_ms >= urgent.finished_ms
        assert report.total_evictions == 0
        scheduler.allocator.check_consistent()


class _OrderOnlyPolicy:
    """A custom policy written against the pre-time-slicing protocol —
    order() and name only, no preempts()."""

    name = "order-only"

    def order(self, pending, now_ms):
        return sorted(pending, key=lambda r: (r.spec.submit_time_ms, r.sequence))


class TestCustomPolicyCompatibility:
    def test_order_only_policy_still_works(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """Regression: a policy without preempts() must run (never
        preempting), not crash in the scheduler's eviction checks."""
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(policy=_OrderOnlyPolicy()))
        scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="first", num_iterations=2,
            )
        )
        high = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="second", num_iterations=1, seed=1, priority=9,
                submit_time_ms=5.0,
            )
        )
        report = scheduler.run()
        assert report.policy == "order-only"
        assert report.finished_jobs == 2
        assert report.total_evictions == 0  # no preempts() -> never preempts
        assert len(high.attempts) == 1


class TestEvictionFeasibility:
    def test_no_eviction_when_it_could_never_seat_the_waiter(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        """A rigid 4-device priority job waits behind an equal-priority
        2-device job it may not evict; evicting only the low-priority gang
        would free 2 of the 4 devices needed, so nothing is evicted."""
        topology = ClusterTopology.for_num_gpus(4, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(policy="priority"))
        low = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="low", priority=0, num_iterations=4,
            )
        )
        peer = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="peer", priority=2, num_iterations=4, seed=1,
            )
        )
        big = scheduler.submit(
            make_spec(
                pp2_cost_model, fleet_samples, planner_config,
                name="big", priority=2, parallel=ParallelConfig(2, 2, 1),
                elastic=False, num_iterations=1, seed=2, submit_time_ms=5.0,
            )
        )
        report = scheduler.run()
        assert report.finished_jobs == 3
        assert report.total_evictions == 0
        assert len(low.attempts) == 1 and len(peer.attempts) == 1
        # The big job started only once the whole cluster drained.
        assert big.first_admitted_ms >= max(low.finished_ms, peer.finished_ms)

    def test_queue_is_admitted_in_priority_order(
        self, pp2_cost_model, fleet_samples, planner_config, small_device
    ):
        topology = ClusterTopology.for_num_gpus(2, device_spec=small_device)
        scheduler = FleetScheduler(topology, FleetConfig(policy="priority"))
        jobs = {
            name: scheduler.submit(
                make_spec(
                    pp2_cost_model, fleet_samples, planner_config,
                    name=name, priority=priority, num_iterations=1, seed=seed,
                )
            )
            for seed, (name, priority) in enumerate(
                [("background", 0), ("urgent", 5), ("normal", 1)]
            )
        }
        report = scheduler.run()
        assert report.finished_jobs == 3
        assert (
            jobs["urgent"].first_admitted_ms
            < jobs["normal"].first_admitted_ms
            < jobs["background"].first_admitted_ms
        )
