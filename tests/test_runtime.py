"""Tests for the planning runtime: the planner pool and pooled sessions."""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.core.execution_plan import ExecutionPlan
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.data.sampler import MiniBatchSampler
from repro.runtime.planner_pool import PlanFailedError, PlannerPool
from repro.training.trainer import TrainerConfig, TrainingSession


class ExplodingPlanner:
    """Picklable planner that always fails (exercises the failure paths).

    ``cost_model`` is only needed when a :class:`TrainingSession` drives it.
    """

    def __init__(self, cost_model=None):
        self.cost_model = cost_model

    def plan(self, samples, iteration=0):
        raise RuntimeError(f"boom on iteration {iteration}")


class HangingPlanner:
    """Picklable planner that blocks forever (exercises crash detection)."""

    def plan(self, samples, iteration=0):  # pragma: no cover - killed mid-sleep
        time.sleep(300)
        raise RuntimeError("unreachable")


def _wait_until(predicate, timeout=60.0):
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.01)
    return predicate()


def _session(planner, samples, **config) -> TrainingSession:
    """A GPT training session over ``samples`` (3 iterations by default)."""
    defaults = dict(max_iterations=3, noise_std=0.02, seed=0, max_seq_len=1024)
    defaults.update(config)
    return TrainingSession(
        planner, samples, global_batch_tokens=8192, config=TrainerConfig(**defaults)
    )


@pytest.fixture(scope="module")
def planner(gpt_cost_model):
    return DynaPipePlanner(
        gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
    )


@pytest.fixture(scope="module")
def minibatches(flan_samples_gpt):
    sampler = MiniBatchSampler(flan_samples_gpt, 8192, seed=0)
    batches = []
    for minibatch in sampler.epoch(0):
        batches.append(minibatch.samples)
        if len(batches) >= 4:
            break
    return batches


@pytest.fixture(scope="module")
def minibatches_t5(flan_samples):
    sampler = MiniBatchSampler(flan_samples, 8192, seed=0)
    batches = []
    for minibatch in sampler.epoch(0):
        batches.append(minibatch.samples)
        if len(batches) >= 3:
            break
    return batches


class TestSpecSpill:
    def test_spec_file_written_once_and_reclaimed_with_planner(self, gpt_cost_model):
        """The spilled spec file is shared across payload builds for one
        planner object and unlinked when the planner is garbage-collected
        (one fleet-job attempt = one planner must not leak a profile-sized
        temp file)."""
        import gc
        import os

        from repro.runtime.planner_pool import _planner_payload, _rebuild_planner

        local = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        first = _planner_payload(local)
        second = _planner_payload(local)
        assert first["kind"] == "spec_file"
        assert first["path"] == second["path"]
        path = first["path"]
        assert os.path.exists(path)
        rebuilt = _rebuild_planner(first)
        assert isinstance(rebuilt, DynaPipePlanner)
        assert rebuilt.data_parallel_size == local.data_parallel_size
        del local
        gc.collect()
        assert not os.path.exists(path)

    def test_non_json_spec_falls_back_to_pickle(self):
        import pickle

        from repro.runtime.planner_pool import _planner_payload

        payload = _planner_payload(SpecNotJsonPlanner())
        assert payload["kind"] == "pickle"
        assert isinstance(pickle.loads(payload["blob"]), SpecNotJsonPlanner)


class RefusingPlanner(DynaPipePlanner):
    """A DynaPipePlanner subclass whose ``plan`` always fails."""

    def plan(self, samples, iteration=0):
        raise RuntimeError(f"refused iteration {iteration}")


class LambdaPlanner:
    """A planner that cannot be pickled: it holds a lambda."""

    def __init__(self):
        self.hook = lambda: None

    def plan(self, samples, iteration=0):  # pragma: no cover - never planned
        raise NotImplementedError


class SpecNotJsonPlanner:
    """Exposes ``to_spec`` but its spec is not JSON-safe (and it pickles fine)."""

    def to_spec(self):
        return {"bad": ExplodingPlanner()}

    def plan(self, samples, iteration=0):  # pragma: no cover - never planned
        raise NotImplementedError


class TestPlannerPool:
    def test_every_iteration_planned(self, planner, minibatches):
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", planner, minibatches)
        pool.start()
        try:
            assert _wait_until(
                lambda: len(pool.planned_iterations("job")) == len(minibatches)
            ), (pool.job_errors("job"), pool.pool_errors)
        finally:
            pool.stop()
        assert pool.planned_iterations("job") == list(range(len(minibatches)))
        assert not pool.job_errors("job")
        assert "replicas" in pool.payload("job", 0)
        assert [record.job for record in pool.records] == ["job"] * len(minibatches)

    def test_lookahead_limits_planning(self, planner, minibatches):
        pool = PlannerPool(num_workers=1, lookahead=1)
        pool.submit_job("job", planner, minibatches)
        pool.start()
        try:
            pool.wait_payload("job", 0, timeout=30)
            time.sleep(0.2)
            # Without consumption only the look-ahead window is planned.
            assert len(pool.planned_iterations("job")) <= 2
            pool.notify_consumed("job", 0)
            assert "replicas" in pool.wait_payload("job", 1, timeout=30)
            # Consumed iterations release their payloads.
            assert pool.payload("job", 0) is None
        finally:
            pool.stop()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PlannerPool(num_workers=0)
        with pytest.raises(ValueError):
            PlannerPool(lookahead=0)


class TestProcessPoolBitIdentical:
    """Process-pool plans must match serial in-process planning bit for bit."""

    def _assert_pool_matches_serial(self, cost_model, batches):
        pooled = DynaPipePlanner(
            cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        pool = PlannerPool(num_workers=2, lookahead=len(batches))
        pool.submit_job("job", pooled, batches)
        pool.start()
        try:
            assert _wait_until(
                lambda: len(pool.planned_iterations("job")) >= len(batches), timeout=120
            ), f"only planned {pool.planned_iterations('job')}: {pool.job_errors('job')}"
        finally:
            pool.stop()
        assert not pool.job_errors("job")
        assert not pool.job_abandoned("job")
        serial = DynaPipePlanner(
            cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        for iteration, samples in enumerate(batches):
            expected = serial.plan(list(samples), iteration=iteration)
            replicas = pool.payload("job", iteration)["replicas"]
            for replica, plan in enumerate(expected.plans):
                stored = replicas[replica]
                want = plan.to_dict()
                # Planning wall-clock is the only nondeterministic field.
                want["metadata"]["planning_time_s"] = stored["metadata"]["planning_time_s"]
                assert stored == want, f"iteration {iteration} replica {replica}"

    def test_gpt_plans_bit_identical(self, gpt_cost_model, minibatches):
        self._assert_pool_matches_serial(gpt_cost_model, minibatches)

    def test_t5_plans_bit_identical(self, t5_cost_model, minibatches_t5):
        self._assert_pool_matches_serial(t5_cost_model, minibatches_t5)


class TestPlannerSerialisation:
    def test_subclass_plans_with_its_own_plan(self, gpt_cost_model, minibatches):
        """A DynaPipePlanner subclass is pickled whole, so the worker runs the
        subclass's ``plan`` instead of a base-class rebuild from its spec."""
        from repro.runtime.planner_pool import _planner_payload

        refusing = RefusingPlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        assert _planner_payload(refusing)["kind"] == "pickle"
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", refusing, minibatches[:1])
        pool.start()
        try:
            with pytest.raises(PlanFailedError, match="refused iteration 0"):
                pool.wait_payload("job", 0, timeout=60)
        finally:
            pool.stop()

    def test_unpicklable_planner_on_started_pool_keeps_name_free(
        self, planner, minibatches
    ):
        """Submitting an unpicklable planner raises a TypeError naming the
        job and reserves nothing: the name can be submitted again."""
        pool = PlannerPool(num_workers=1)
        pool.start()
        try:
            with pytest.raises(TypeError, match="'job'"):
                pool.submit_job("job", LambdaPlanner(), minibatches[:1])
            assert pool.job_names() == []
            pool.submit_job("job", planner, minibatches[:1])
            assert "replicas" in pool.wait_payload("job", 0, timeout=60)
        finally:
            pool.stop()

    def test_unpicklable_planner_rejected_before_workers_spawn(self, minibatches):
        """An unstarted pool rejects the planner at submission, so a later
        ``start()`` never spawns workers for a stream it cannot serve."""
        pool = PlannerPool(num_workers=1)
        with pytest.raises(TypeError, match="'job'"):
            pool.submit_job("job", LambdaPlanner(), minibatches[:1])
        assert pool.job_names() == []
        assert not pool.started and pool.live_workers() == 0

    def test_session_stops_workers_when_start_fails(
        self, planner, flan_samples_gpt, monkeypatch
    ):
        """A pooled session whose pool fails after spawning its workers
        still stops them."""
        pools = []
        spawn = PlannerPool.start

        def failing_start(self):
            spawn(self)
            pools.append(self)
            raise RuntimeError("synthetic start failure")

        monkeypatch.setattr(PlannerPool, "start", failing_start)
        session = _session(planner, flan_samples_gpt, planner_processes=1)
        with pytest.raises(RuntimeError, match="synthetic start failure"):
            session.run()
        [pool] = pools
        assert pool.live_workers() == 0


class TestPlannerPoolFailurePaths:
    def test_worker_exception_pushes_failure_marker(self, minibatches):
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", ExplodingPlanner(), minibatches)
        pool.start()
        try:
            with pytest.raises(PlanFailedError, match="boom") as excinfo:
                pool.wait_payload("job", 0, timeout=60)
            assert (excinfo.value.job, excinfo.value.iteration) == ("job", 0)
            assert _wait_until(lambda: 0 in pool.failed_iterations("job"))
            assert any(iteration == 0 for iteration, _ in pool.job_errors("job"))
        finally:
            pool.stop()

    def test_executor_fails_fast_not_at_timeout(
        self, planner, gpt_cost_model, flan_samples_gpt
    ):
        """A planning failure reaches the waiting executor well before its
        plan-wait timeout instead of leaving it to spin until the deadline."""
        session = _session(planner, flan_samples_gpt, planner_timeout_s=120.0)
        [minibatch] = session.epoch_minibatches()[:1]
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", ExplodingPlanner(), [minibatch.samples])
        pool.start()
        try:
            start = time.perf_counter()
            with pytest.raises(PlanFailedError):
                session.pooled_step(pool, "job", minibatch)
            assert time.perf_counter() - start < 60.0
        finally:
            pool.stop()

    def test_stop_reports_abandoned_iterations(self, planner, minibatches):
        pool = PlannerPool(num_workers=1, lookahead=len(minibatches))
        pool.submit_job("job", planner, minibatches)
        pool.start()
        pool.stop()
        abandoned = pool.job_abandoned("job")
        planned = set(pool.planned_iterations("job"))
        # Every enqueued iteration is accounted for exactly once: either it
        # was planned before the drain or it is reported abandoned — so a
        # restart neither double-plans nor skips.
        assert planned.isdisjoint(abandoned)
        assert planned | set(abandoned) | set(pool.failed_iterations("job")) == set(
            range(len(minibatches))
        )
        # A defensive second stop() keeps the first snapshot.
        pool.stop()
        assert pool.job_abandoned("job") == abandoned

    def test_worker_process_crash_surfaces_failure(self, minibatches):
        pool = PlannerPool(num_workers=1, lookahead=2)
        pool.submit_job("job", HangingPlanner(), minibatches)
        pool.start()
        try:
            assert _wait_until(lambda: bool(pool._claims))
            pool._processes[0].kill()
            assert _wait_until(lambda: 0 in pool.failed_iterations("job"))
            with pytest.raises(PlanFailedError, match="died|exited"):
                pool.wait_payload("job", 0, timeout=60)
            assert pool.pool_errors
        finally:
            pool.stop()

    def test_lost_task_sweep_confirms_over_two_passes(self, planner, minibatches):
        """A task dequeued by a worker that died before its claim arrived is
        in no queue and no claim; the crash sweep must fail it — but only
        after a second pass, giving an in-flight claim message time to land."""
        import queue as queue_module

        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", planner, minibatches)
        stream = pool._streams["job"]
        pool._queue = queue_module.Queue()
        # Still safely enqueued: (job, iteration, samples, planner ref).
        pool._queue.put(("job", 2, list(minibatches[2]), planner))
        stream.next_to_enqueue = 3
        stream.completed.add(0)
        # Iteration 1 was dequeued by a worker that died pre-claim: sweep 1
        # only marks it suspect, sweep 2 confirms it lost.
        pool._reconcile_lost_tasks()
        assert pool.failed_iterations("job") == []
        assert pool._suspect_lost == {("job", 1)}
        pool._reconcile_lost_tasks()
        assert pool.failed_iterations("job") == [1]
        with pytest.raises(PlanFailedError, match="died holding"):
            pool.wait_payload("job", 1, timeout=1.0)
        # The enqueued task survived the sweep's drain-and-requeue.
        assert pool._queue.get_nowait()[1] == 2

    def test_refill_after_total_worker_loss_fails_new_iterations(self, minibatches):
        """Once every worker is gone, iterations entering the look-ahead
        window later must fail too — not sit on a task queue nobody drains
        while the executor spins to its wait timeout."""
        pool = PlannerPool(num_workers=1, lookahead=1)
        pool.submit_job("job", HangingPlanner(), minibatches)
        pool.start()
        try:
            assert _wait_until(lambda: bool(pool._claims))
            pool._processes[0].kill()
            assert _wait_until(lambda: pool.failed_iterations("job") == [0])
            # Advance the window: iteration 1 only enters the queue now.
            pool.notify_consumed("job", 0)
            assert pool.failed_iterations("job") == [0, 1]
            with pytest.raises(PlanFailedError):
                pool.wait_payload("job", 1, timeout=60)
        finally:
            pool.stop()

    def test_session_raises_on_planning_failure(self, gpt_cost_model, flan_samples_gpt):
        session = _session(
            ExplodingPlanner(gpt_cost_model), flan_samples_gpt, planner_processes=1
        )
        start = time.perf_counter()
        with pytest.raises(PlanFailedError, match="planning failed for iteration 0"):
            session.run()
        assert time.perf_counter() - start < 60.0


class GatedPlanner:
    """Picklable planner that blocks until its gate file exists."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.gate = str(gate)

    def open(self):
        """Release every copy of the planner, in any process."""
        with open(self.gate, "w"):
            pass

    def plan(self, samples, iteration=0):
        deadline = time.time() + 30
        while not os.path.exists(self.gate) and time.time() < deadline:
            time.sleep(0.01)
        return self.inner.plan(samples, iteration=iteration)


class TestMultiJobPool:
    """The pool as a fleet-wide planning cluster: dynamic job streams."""

    def _config(self):
        return PlannerConfig(order_search=False, tmax_sample_count=8)

    def test_two_job_streams_bit_identical_and_isolated(
        self, gpt_cost_model, t5_cost_model, minibatches, minibatches_t5
    ):
        """One process pool serves two jobs with *different* planners; every
        plan matches serial planning bit for bit, lands on its job's stream
        at absolute iterations, and per-job accounting never mixes the
        streams."""
        pool = PlannerPool(num_workers=2, lookahead=8)
        pool.start()
        try:
            pool.submit_job(
                "gpt-job",
                DynaPipePlanner(gpt_cost_model, config=self._config()),
                minibatches,
            )
            # A resumed stream: minibatches_t5[0] is absolute iteration 5.
            pool.submit_job(
                "t5-job",
                DynaPipePlanner(t5_cost_model, config=self._config()),
                minibatches_t5,
                start=5,
            )
            assert _wait_until(
                lambda: len(pool.planned_iterations("gpt-job")) >= len(minibatches)
                and len(pool.planned_iterations("t5-job")) >= len(minibatches_t5),
                timeout=120,
            ), (pool.planned_iterations("gpt-job"), pool.planned_iterations("t5-job"),
                pool.job_errors("gpt-job"), pool.job_errors("t5-job"), pool.pool_errors)
        finally:
            pool.stop()
        assert pool.planned_iterations("gpt-job") == list(range(len(minibatches)))
        assert pool.planned_iterations("t5-job") == [5 + i for i in range(len(minibatches_t5))]
        assert not pool.job_errors("gpt-job") and not pool.job_errors("t5-job")
        for job, cost_model, batches, start in (
            ("gpt-job", gpt_cost_model, minibatches, 0),
            ("t5-job", t5_cost_model, minibatches_t5, 5),
        ):
            serial = DynaPipePlanner(cost_model, config=self._config())
            for position, samples in enumerate(batches):
                iteration = start + position
                expected = serial.plan(list(samples), iteration=iteration)
                replicas = pool.payload(job, iteration)["replicas"]
                for replica, plan in enumerate(expected.plans):
                    stored = replicas[replica]
                    want = plan.to_dict()
                    want["metadata"]["planning_time_s"] = stored["metadata"]["planning_time_s"]
                    assert stored == want, (job, iteration, replica)

    def test_retire_job_drains_only_its_tasks(self, planner, minibatches, tmp_path):
        """Retiring one stream cancels exactly its queued tasks: the
        co-tenant stream's in-flight work proceeds untouched."""
        pool = PlannerPool(num_workers=1)
        pool.start()
        try:
            gated = GatedPlanner(planner, tmp_path / "gate")
            pool.submit_job("slow", gated, minibatches[:1])
            # The single worker is now blocked inside slow:0.
            assert _wait_until(lambda: bool(pool._claims))
            pool.submit_job("victim", planner, minibatches[:2])
            abandoned = pool.retire_job("victim")
            assert abandoned == [0, 1]
            assert pool.job_abandoned("victim") == [0, 1]
            gated.open()
            assert _wait_until(lambda: pool.planned_iterations("slow") == [0])
        finally:
            pool.stop()
        assert pool.payload("slow", 0) is not None
        assert pool.payload("victim", 0) is None
        assert pool.job_names() == ["slow"]
        assert pool.job_names(include_retired=True) == ["slow", "victim"]
        assert pool.planned_iterations("victim") == []
        # A second retire keeps the first snapshot.
        assert pool.retire_job("victim") == [0, 1]

    def test_late_result_of_retired_stream_is_dropped(
        self, planner, minibatches, tmp_path
    ):
        """A worker already planning a retired job's iteration finishes, but
        its result must be discarded — the attempt it belonged to is gone,
        and a successor stream under a new name must never inherit it."""
        pool = PlannerPool(num_workers=1)
        pool.start()
        try:
            gated = GatedPlanner(planner, tmp_path / "gate")
            pool.submit_job("dying", gated, minibatches[:1])
            assert _wait_until(lambda: bool(pool._claims))
            assert pool.retire_job("dying") == [0]
            gated.open()
            # The worker completes the plan, the pool drops it.
            assert _wait_until(lambda: not pool._claims)
            time.sleep(0.05)
        finally:
            pool.stop()
        assert pool.planned_iterations("dying") == []
        assert pool.payload("dying", 0) is None
        assert pool.job_names() == []

    def test_stream_failure_marker_scoped_to_its_job(self, planner, minibatches):
        """A failing stream's failures poison only its own stream."""
        pool = PlannerPool(num_workers=1)
        pool.start()
        try:
            pool.submit_job("doomed", ExplodingPlanner(), minibatches[:2])
            pool.submit_job("healthy", planner, minibatches[:2])
            assert _wait_until(
                lambda: len(pool.failed_iterations("doomed")) == 2
                and len(pool.planned_iterations("healthy")) == 2
            ), (pool.failed_iterations("doomed"), pool.planned_iterations("healthy"))
        finally:
            pool.stop()
        with pytest.raises(PlanFailedError, match="boom"):
            pool.wait_payload("doomed", 0, timeout=1.0)
        assert "replicas" in pool.wait_payload("healthy", 0, timeout=1.0)
        assert pool.job_errors("healthy") == []
        assert [it for it, _ in pool.job_errors("doomed")] == [0, 1]

    def test_retired_stream_releases_planner_and_spec_file(
        self, gpt_cost_model, minibatches
    ):
        """Retiring a stream drops its planner and task ref, so a fleet
        churning through attempts neither accumulates profile databases in
        the parent nor pins spilled spec files on disk."""
        import gc
        import os

        pool = PlannerPool(num_workers=1)
        pool.start()
        try:
            local = DynaPipePlanner(gpt_cost_model, config=self._config())
            pool.submit_job("a", local, minibatches[:1])
            assert _wait_until(lambda: pool.planned_iterations("a") == [0]), (
                pool.job_errors("a"), pool.pool_errors,
            )
            spec_path = pool._streams["a"].task_ref["path"]
            assert os.path.exists(spec_path)
            pool.retire_job("a")
            assert pool._streams["a"].planner is None
            assert pool._streams["a"].task_ref is None
            del local
            gc.collect()
            assert not os.path.exists(spec_path)
        finally:
            pool.stop()

    def test_submission_contract(self, planner, minibatches):
        pool = PlannerPool(num_workers=1)
        with pytest.raises(ValueError, match="non-empty"):
            pool.submit_job("", planner, minibatches)
        with pytest.raises(ValueError, match="start"):
            pool.submit_job("a", planner, minibatches, start=-1)
        pool.submit_job("a", planner, minibatches[:1])
        with pytest.raises(ValueError, match="duplicate"):
            pool.submit_job("a", planner, minibatches[:1])
        with pytest.raises(KeyError):
            pool.retire_job("unknown")
        assert pool.job_names() == ["a"]
        pool.start()
        try:
            assert _wait_until(lambda: pool.planned_iterations("a") == [0])
        finally:
            pool.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            pool.submit_job("b", planner, minibatches[:1])
        with pytest.raises(KeyError):
            pool.wait_payload("unknown", 0)


class TestPooledSession:
    """A :class:`TrainingSession` stepping its epoch through the pool."""

    def test_overlapped_run(self, planner, flan_samples_gpt):
        """Planning later iterations overlaps executing earlier ones: the
        executor's plan wait stays within the total planning time, and the
        records match inline planning bit for bit."""
        pooled = _session(
            planner, flan_samples_gpt, planner_processes=2, planner_lookahead=3
        ).run()
        inline = _session(planner, flan_samples_gpt).run()
        total_planning_s = sum(record.planning_time_s for record in pooled.records)
        assert [record.iteration for record in pooled.records] == [0, 1, 2]
        assert total_planning_s > 0
        assert pooled.total_time_s > 0
        assert 0.0 <= pooled.plan_wait_s <= total_planning_s
        assert 0.0 <= pooled.overlap_fraction <= 1.0
        assert inline.plan_wait_s is None and inline.overlap_fraction == 0.0

        def outputs(report):
            return [
                dataclasses.replace(record, planning_time_s=0.0)
                for record in report.records
            ]

        assert outputs(pooled) == outputs(inline)

    def test_executes_pooled_plans(self, planner, flan_samples_gpt):
        session = _session(planner, flan_samples_gpt, noise_std=0.0)
        [minibatch] = session.epoch_minibatches()[:1]
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", planner, [minibatch.samples])
        pool.start()
        try:
            record, stats = session.pooled_step(pool, "job", minibatch)
        finally:
            pool.stop()
        assert record.iteration == minibatch.index
        assert record.measured_ms > 0
        assert record.measured_peak_bytes > 0
        assert stats.actual_tokens == record.actual_tokens
        # The consumed plan was released back to the pool.
        assert pool.payload("job", minibatch.index) is None

    def test_plan_decode_is_not_wait(self, planner, flan_samples_gpt, monkeypatch):
        """Plan wait is the time until the payload arrives; decoding a plan
        that is already planned is not wait."""
        session = _session(planner, flan_samples_gpt, noise_std=0.0)
        [minibatch] = session.epoch_minibatches()[:1]
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", planner, [minibatch.samples])
        pool.start()
        try:
            assert _wait_until(lambda: pool.payload("job", 0) is not None)
            decode = ExecutionPlan.from_dict

            def slow_decode(payload):
                time.sleep(0.3)
                return decode(payload)

            monkeypatch.setattr(ExecutionPlan, "from_dict", staticmethod(slow_decode))
            start = time.perf_counter()
            session.pooled_step(pool, "job", minibatch)
            assert time.perf_counter() - start >= 0.3
        finally:
            pool.stop()
        assert session.plan_wait_s < 0.1

    def test_wait_is_bounded(self, planner, flan_samples_gpt):
        """A plan that never arrives fails the step after
        ``planner_timeout_s`` instead of blocking forever."""
        session = _session(planner, flan_samples_gpt, planner_timeout_s=0.3)
        [minibatch] = session.epoch_minibatches()[:1]
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", HangingPlanner(), [minibatch.samples])
        pool.start()
        try:
            start = time.perf_counter()
            with pytest.raises(TimeoutError, match="iteration 0"):
                session.pooled_step(pool, "job", minibatch)
            assert time.perf_counter() - start < 30.0
        finally:
            for process in pool._processes:
                process.kill()
            pool.stop()

    def test_failure_names_its_own_iteration(self, planner, flan_samples_gpt):
        """A failed plan raises for exactly the iteration it belongs to,
        with that iteration's own error — never an unrelated pool incident
        (here a synthetic worker spawn failure)."""
        session = _session(planner, flan_samples_gpt)
        minibatches = session.epoch_minibatches()[:2]
        pool = PlannerPool(num_workers=1)
        pool.submit_job(
            "job", FailingFrom(planner, 1), [minibatch.samples for minibatch in minibatches]
        )
        pool._pool_errors.append(RuntimeError("planner worker planner-1 failed to start"))
        pool.start()
        try:
            session.pooled_step(pool, "job", minibatches[0])
            with pytest.raises(PlanFailedError, match="iteration 1.*boom on 1") as excinfo:
                session.pooled_step(pool, "job", minibatches[1])
        finally:
            pool.stop()
        assert (excinfo.value.job, excinfo.value.iteration) == ("job", 1)
        assert "failed to start" not in str(excinfo.value)

    def test_spawn_failure_does_not_fail_a_successful_run(self, planner, flan_samples_gpt):
        """A pool-level incident — one worker of several failing to start
        while its peers plan every consumed iteration — does not fail a
        session whose own plans all arrive."""
        session = _session(planner, flan_samples_gpt, max_iterations=2)
        minibatches = session.epoch_minibatches()
        pool = PlannerPool(num_workers=1)
        pool.submit_job("job", planner, [minibatch.samples for minibatch in minibatches])
        pool._pool_errors.append(RuntimeError("planner worker planner-1 failed to start"))
        pool.start()
        try:
            records = [session.pooled_step(pool, "job", mb)[0] for mb in minibatches]
        finally:
            pool.stop()
        assert [record.iteration for record in records] == [0, 1]
        assert len(pool.pool_errors) == 1


class FailingFrom:
    """Picklable planner that fails from iteration ``first`` on."""

    def __init__(self, inner, first):
        self.inner = inner
        self.first = first

    def plan(self, samples, iteration=0):
        if iteration >= self.first:
            raise RuntimeError(f"boom on {iteration}")
        return self.inner.plan(samples, iteration=iteration)


class TestConcurrentPlanning:
    def test_two_workers_match_serial_plans(self, gpt_cost_model, minibatches):
        """Two workers planning one stream concurrently, each from its own
        rebuild of the shared planner, produce the same plans as serial
        planning."""
        shared = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        pool = PlannerPool(num_workers=2)
        pool.submit_job("job", shared, minibatches)
        pool.start()
        try:
            assert _wait_until(
                lambda: len(pool.planned_iterations("job")) == len(minibatches), timeout=30
            )
        finally:
            pool.stop()
        assert not pool.job_errors("job")

        serial = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        for iteration, samples in enumerate(minibatches):
            expected = serial.plan(list(samples), iteration=iteration)
            stored = pool.payload("job", iteration)["replicas"][0]
            assert stored["metadata"]["num_microbatches"] == len(
                expected.replicas[0].micro_batches
            )
            assert stored["metadata"]["predicted_makespan_ms"] == pytest.approx(
                expected.replicas[0].simulation.makespan_ms
            )
