"""Tests for the planner/executor runtime (planning-execution overlap)."""

from __future__ import annotations

import time

import pytest

from repro.core.execution_plan import ExecutionPlan
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.data.sampler import MiniBatchSampler
from repro.instructions.store import InstructionStore, PlanFailedError, PlanNotReadyError
from repro.runtime.executor_service import ExecutorService
from repro.runtime.orchestrator import TrainingOrchestrator
from repro.runtime.planner_pool import PlannerPool


class ExplodingPlanner:
    """Picklable planner that always fails (exercises the failure paths)."""

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


class SpecNotJsonPlanner:
    """Exposes ``to_spec`` but its spec is not JSON-safe (and it pickles fine)."""

    def to_spec(self):
        return {"bad": ExplodingPlanner()}

    def plan(self, samples, iteration=0):  # pragma: no cover - never planned
        raise NotImplementedError


class TestPlannerPool:
    def test_plans_pushed_to_store(self, planner, minibatches):
        store = InstructionStore()
        pool = PlannerPool(planner=planner, minibatches=minibatches, store=store, num_workers=1)
        pool.start()
        try:
            deadline = time.time() + 30
            while len(pool.planned_iterations()) < len(minibatches) and time.time() < deadline:
                time.sleep(0.01)
        finally:
            pool.stop()
        assert pool.planned_iterations() == list(range(len(minibatches)))
        assert not pool.errors
        assert store.ready(0, 0)

    def test_lookahead_limits_planning(self, planner, minibatches):
        store = InstructionStore()
        pool = PlannerPool(
            planner=planner, minibatches=minibatches, store=store, num_workers=1, lookahead=1
        )
        pool.start()
        try:
            deadline = time.time() + 30
            while not store.ready(0, 0) and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            # Without consumption only the look-ahead window is planned.
            assert len(pool.planned_iterations()) <= 2
            pool.notify_consumed(0)
            deadline = time.time() + 30
            while not store.ready(1, 0) and time.time() < deadline:
                time.sleep(0.01)
            assert store.ready(1, 0)
            # Consumed iterations are evicted from the store.
            with pytest.raises(PlanNotReadyError):
                store.fetch(0, 0)
        finally:
            pool.stop()

    def test_invalid_arguments(self, planner, minibatches):
        with pytest.raises(ValueError):
            PlannerPool(planner=planner, minibatches=minibatches, store=InstructionStore(), num_workers=0)
        with pytest.raises(ValueError):
            PlannerPool(planner=planner, minibatches=minibatches, store=InstructionStore(), lookahead=0)


class TestProcessPoolBitIdentical:
    """Process-pool plans must match serial in-process planning bit for bit."""

    def _assert_pool_matches_serial(self, cost_model, batches):
        pooled = DynaPipePlanner(
            cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        store = InstructionStore()
        pool = PlannerPool(
            planner=pooled, minibatches=batches, store=store,
            num_workers=2, lookahead=len(batches), backend="process",
        )
        pool.start()
        try:
            assert _wait_until(
                lambda: len(pool.planned_iterations()) >= len(batches), timeout=120
            ), f"only planned {pool.planned_iterations()}: {pool.errors}"
        finally:
            abandoned = pool.stop()
        assert not pool.errors
        assert not abandoned
        serial = DynaPipePlanner(
            cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        for iteration, samples in enumerate(batches):
            expected = serial.plan(list(samples), iteration=iteration)
            for replica, plan in enumerate(expected.plans):
                stored = store.fetch(iteration, replica)
                want = plan.to_dict()
                # Planning wall-clock is the only nondeterministic field.
                want["metadata"]["planning_time_s"] = stored["metadata"]["planning_time_s"]
                assert stored == want, f"iteration {iteration} replica {replica}"

    def test_gpt_plans_bit_identical(self, gpt_cost_model, minibatches):
        self._assert_pool_matches_serial(gpt_cost_model, minibatches)

    def test_t5_plans_bit_identical(self, t5_cost_model, minibatches_t5):
        self._assert_pool_matches_serial(t5_cost_model, minibatches_t5)


class TestPlannerPoolFailurePaths:
    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_worker_exception_pushes_failure_marker(self, backend, minibatches):
        store = InstructionStore()
        pool = PlannerPool(
            planner=ExplodingPlanner(), minibatches=minibatches, store=store,
            num_workers=1, backend=backend,
        )
        pool.start()
        try:
            assert _wait_until(lambda: store.ready(0, 0))
            with pytest.raises(PlanFailedError, match="boom"):
                store.fetch(0, 0)
            assert _wait_until(lambda: 0 in pool.failed_iterations())
            assert any(iteration == 0 for iteration, _ in pool.errors)
        finally:
            pool.stop()

    def test_executor_fails_fast_not_at_timeout(self, gpt_cost_model, minibatches):
        """A planning failure reaches the polling executor well before its
        fetch timeout instead of leaving it to spin until the deadline."""
        store = InstructionStore()
        pool = PlannerPool(
            planner=ExplodingPlanner(), minibatches=minibatches, store=store, num_workers=1
        )
        service = ExecutorService(
            cost_model=gpt_cost_model, store=store, fetch_timeout_s=120.0
        )
        pool.start()
        try:
            start = time.perf_counter()
            with pytest.raises(PlanFailedError):
                service.run_iteration(0)
            assert time.perf_counter() - start < 60.0
        finally:
            pool.stop()

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_stop_reports_abandoned_iterations(self, backend, planner, minibatches):
        store = InstructionStore()
        pool = PlannerPool(
            planner=planner, minibatches=minibatches, store=store,
            num_workers=1, lookahead=len(minibatches), backend=backend,
        )
        pool.start()
        abandoned = pool.stop()
        planned = set(pool.planned_iterations())
        # Every enqueued iteration is accounted for exactly once: either it
        # was planned before the drain or it is reported abandoned — so a
        # restart neither double-plans nor skips.
        assert planned.isdisjoint(abandoned)
        assert planned | set(abandoned) | set(pool.failed_iterations()) == set(
            range(len(minibatches))
        )
        assert pool.abandoned == abandoned
        # A defensive second stop() keeps the first snapshot.
        assert pool.stop() == abandoned
        assert pool.abandoned == abandoned

    def test_worker_process_crash_surfaces_failure(self, minibatches):
        store = InstructionStore()
        pool = PlannerPool(
            planner=HangingPlanner(), minibatches=minibatches, store=store,
            num_workers=1, lookahead=2, backend="process",
        )
        pool.start()
        try:
            assert _wait_until(lambda: bool(pool._claims))
            pool._processes[0].kill()
            assert _wait_until(lambda: store.ready(0, 0))
            with pytest.raises(PlanFailedError, match="died|exited"):
                store.fetch(0, 0)
            assert pool.errors
        finally:
            pool.stop()

    def test_lost_task_sweep_confirms_over_two_passes(self, planner, minibatches):
        """A task dequeued by a worker that died before its claim arrived is
        in no queue and no claim; the crash sweep must fail it — but only
        after a second pass, giving an in-flight claim message time to land."""
        import queue as queue_module

        from repro.instructions.store import DEFAULT_JOB

        pool = PlannerPool(
            planner=planner, minibatches=minibatches, store=InstructionStore(),
            num_workers=1, backend="thread",
        )
        stream = pool._streams[DEFAULT_JOB]
        pool._queue = queue_module.Queue()
        # Still safely enqueued: (job, iteration, samples, planner ref).
        pool._queue.put((DEFAULT_JOB, 2, list(minibatches[2]), planner))
        stream.next_to_enqueue = 3
        stream.completed.add(0)
        # Iteration 1 was dequeued by a worker that died pre-claim: sweep 1
        # only marks it suspect, sweep 2 confirms it lost.
        pool._reconcile_lost_tasks()
        assert pool.failed_iterations() == []
        assert pool._suspect_lost == {(DEFAULT_JOB, 1)}
        pool._reconcile_lost_tasks()
        assert pool.failed_iterations() == [1]
        assert not pool.store.ready(2, 0)
        with pytest.raises(PlanFailedError, match="died holding"):
            pool.store.fetch(1, 0)
        # The enqueued task survived the sweep's drain-and-requeue.
        assert pool._queue.get_nowait()[1] == 2

    def test_refill_after_total_worker_loss_fails_new_iterations(self, minibatches):
        """Once every worker is gone, iterations entering the look-ahead
        window later must get failure markers too — not sit on a task queue
        nobody drains while the executor spins to its fetch timeout."""
        store = InstructionStore()
        pool = PlannerPool(
            planner=HangingPlanner(), minibatches=minibatches, store=store,
            num_workers=1, lookahead=1, backend="process",
        )
        pool.start()
        try:
            assert _wait_until(lambda: bool(pool._claims))
            pool._processes[0].kill()
            assert _wait_until(lambda: store.ready(0, 0))
            # Advance the window: iteration 1 only enters the queue now.
            pool.notify_consumed(0)
            assert store.ready(1, 0)
            with pytest.raises(PlanFailedError):
                store.fetch(1, 0)
        finally:
            pool.stop()

    def test_orchestrator_raises_on_planning_failure(
        self, gpt_cost_model, flan_samples_gpt
    ):
        orchestrator = TrainingOrchestrator(
            ExplodingPlanner(),
            gpt_cost_model,
            flan_samples_gpt,
            global_batch_tokens=8192,
            num_iterations=2,
        )
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="planning failed"):
            orchestrator.run()
        assert time.perf_counter() - start < 60.0


class GatedPlanner:
    """Thread-backend planner that blocks until released (one test's gate)."""

    def __init__(self, inner):
        import threading

        self.gate = threading.Event()
        self.inner = inner

    def plan(self, samples, iteration=0):
        self.gate.wait(30)
        return self.inner.plan(samples, iteration=iteration)


class TestMultiJobPool:
    """The pool as a fleet-wide planning cluster: dynamic job streams."""

    def _config(self):
        return PlannerConfig(order_search=False, tmax_sample_count=8)

    def test_two_job_streams_bit_identical_and_isolated(
        self, gpt_cost_model, t5_cost_model, minibatches, minibatches_t5
    ):
        """One process pool serves two jobs with *different* planners; every
        plan matches serial planning bit for bit, lands under its job's
        (job, iteration, replica) store keys at absolute iterations, and
        per-job accounting never mixes the streams."""
        store = InstructionStore()
        pool = PlannerPool(store=store, num_workers=2, backend="process", lookahead=8)
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
                pool.errors, pool.pool_errors)
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
                for replica, plan in enumerate(expected.plans):
                    stored = store.fetch(iteration, replica, job=job)
                    want = plan.to_dict()
                    want["metadata"]["planning_time_s"] = stored["metadata"]["planning_time_s"]
                    assert stored == want, (job, iteration, replica)

    def test_retire_job_drains_only_its_tasks(self, planner, minibatches):
        """Retiring one stream cancels exactly its queued tasks: the
        co-tenant stream's in-flight work proceeds untouched."""
        store = InstructionStore()
        pool = PlannerPool(store=store, num_workers=1, backend="thread")
        pool.start()
        try:
            gated = GatedPlanner(planner)
            pool.submit_job("slow", gated, minibatches[:1])
            # The single worker is now blocked inside slow:0.
            assert _wait_until(lambda: bool(pool._claims))
            pool.submit_job("victim", planner, minibatches[:2])
            abandoned = pool.retire_job("victim")
            assert abandoned == [0, 1]
            assert pool.job_abandoned("victim") == [0, 1]
            gated.gate.set()
            assert _wait_until(lambda: pool.planned_iterations("slow") == [0])
        finally:
            pool.stop()
        assert store.ready(0, 0, job="slow")
        assert not store.ready(0, 0, job="victim")
        assert store.jobs() == ["slow"]
        assert pool.planned_iterations("victim") == []
        # A second retire keeps the first snapshot.
        assert pool.retire_job("victim") == [0, 1]

    def test_late_result_of_retired_stream_is_dropped(self, planner, minibatches):
        """A worker already planning a retired job's iteration finishes, but
        its result must be discarded — the attempt it belonged to is gone,
        and a successor stream under a new name must never inherit it."""
        store = InstructionStore()
        pool = PlannerPool(store=store, num_workers=1, backend="thread")
        pool.start()
        try:
            gated = GatedPlanner(planner)
            pool.submit_job("dying", gated, minibatches[:1])
            assert _wait_until(lambda: bool(pool._claims))
            assert pool.retire_job("dying") == [0]
            gated.gate.set()
            # The worker completes the plan, the pool drops it.
            assert _wait_until(lambda: not pool._claims)
            time.sleep(0.05)
        finally:
            pool.stop()
        assert pool.planned_iterations("dying") == []
        assert not store.ready(0, 0, job="dying")
        assert store.jobs() == []

    def test_stream_failure_marker_scoped_to_its_job(self, planner, minibatches):
        """A failing stream's markers poison only its own namespace."""
        store = InstructionStore()
        pool = PlannerPool(store=store, num_workers=1, backend="thread")
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
            store.fetch(0, 0, job="doomed")
        assert store.fetch(0, 0, job="healthy") is not None
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

        store = InstructionStore()
        pool = PlannerPool(store=store, num_workers=1, backend="process")
        pool.start()
        try:
            local = DynaPipePlanner(gpt_cost_model, config=self._config())
            pool.submit_job("a", local, minibatches[:1])
            assert _wait_until(lambda: pool.planned_iterations("a") == [0]), (
                pool.errors, pool.pool_errors,
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
        pool = PlannerPool(store=InstructionStore(), num_workers=1, backend="thread")
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
        # Fleet-mode construction: minibatches without a planner is an error.
        with pytest.raises(ValueError, match="planner"):
            PlannerPool(minibatches=minibatches)


class TestExecutorService:
    def test_executes_stored_plan(self, planner, minibatches, gpt_cost_model):
        store = InstructionStore()
        plan = planner.plan(minibatches[0], iteration=0)
        store.push(0, 0, plan.plans[0].to_dict())
        service = ExecutorService(cost_model=gpt_cost_model, store=store, noise_std=0.0)
        stats = service.run_iteration(0)
        assert stats.simulated_ms > 0
        assert stats.peak_memory_bytes > 0
        assert stats.stall_s < 1.0

    def test_plan_decode_is_not_stall(
        self, planner, minibatches, gpt_cost_model, monkeypatch
    ):
        """Stall is the wait for the plan to appear in the store; decoding a
        plan that is already stored is not stall."""
        store = InstructionStore()
        plan = planner.plan(minibatches[0], iteration=0)
        store.push(0, 0, plan.plans[0].to_dict())
        decode = ExecutionPlan.from_dict

        def slow_decode(payload):
            time.sleep(0.3)
            return decode(payload)

        monkeypatch.setattr(ExecutionPlan, "from_dict", staticmethod(slow_decode))
        service = ExecutorService(cost_model=gpt_cost_model, store=store, noise_std=0.0)
        start = time.perf_counter()
        stats = service.run_iteration(0)
        assert time.perf_counter() - start >= 0.3
        assert stats.stall_s < 0.1
        assert service.total_stall_s() == stats.stall_s

    def test_timeout_when_plan_missing(self, gpt_cost_model):
        service = ExecutorService(
            cost_model=gpt_cost_model, store=InstructionStore(), fetch_timeout_s=0.05
        )
        with pytest.raises(PlanNotReadyError):
            service.run_iteration(0)


class TestOrchestrator:
    def test_overlapped_run(self, planner, gpt_cost_model, flan_samples_gpt):
        orchestrator = TrainingOrchestrator(
            planner,
            gpt_cost_model,
            flan_samples_gpt,
            global_batch_tokens=8192,
            num_iterations=3,
            planner_workers=2,
            lookahead=3,
            noise_std=0.02,
            seed=0,
        )
        report = orchestrator.run()
        assert report.iterations == 3
        assert report.total_planning_s > 0
        assert report.total_simulated_ms > 0
        # Planning for later iterations overlaps execution of earlier ones, so
        # the exposed stall is well below the total planning time.
        assert report.exposed_stall_s <= report.total_planning_s
        assert 0.0 <= report.overlap_fraction <= 1.0

    def test_spawn_failure_does_not_fail_a_successful_run(
        self, planner, gpt_cost_model, flan_samples_gpt
    ):
        """Regression (misattributed planning errors): a pool-level incident
        — e.g. one worker of several failing to start while its peers plan
        every consumed iteration — must not turn a successful run into a
        RuntimeError blaming 'iteration -1'.  It is surfaced in the report
        instead."""
        orchestrator = TrainingOrchestrator(
            planner,
            gpt_cost_model,
            flan_samples_gpt,
            global_batch_tokens=8192,
            num_iterations=2,
            planner_workers=1,
            planner_backend="thread",
        )
        orchestrator.pool._pool_errors.append(
            RuntimeError("planner worker planner-1 failed to start: synthetic")
        )
        report = orchestrator.run()  # must not raise
        assert report.iterations == 2
        assert (-1, "planner worker planner-1 failed to start: synthetic") in [
            (it, msg) for it, msg in report.planning_errors
        ]

    def test_loop_failure_names_the_true_cause(self, gpt_cost_model, flan_samples_gpt):
        """Regression (misattributed planning errors): when the fetched
        iteration's failure has no matching pool error entry, the raised
        error must carry the failure marker's own message — not fall back
        to errors[0], which may be an unrelated incident (here a synthetic
        worker spawn failure recorded at key -1)."""
        orchestrator = TrainingOrchestrator(
            DynaPipePlanner(
                gpt_cost_model,
                config=PlannerConfig(order_search=False, tmax_sample_count=8),
            ),
            gpt_cost_model,
            flan_samples_gpt,
            global_batch_tokens=8192,
            num_iterations=2,
            planner_workers=1,
            planner_backend="thread",
        )
        # The marker exists in the store, but no pool error entry matches
        # iteration 0 — only an unrelated pool-level incident is recorded.
        orchestrator.pool._streams.clear()  # nothing will ever be planned
        orchestrator.store.push_failure(0, "true cause: planner OOM")
        orchestrator.pool._pool_errors.append(
            RuntimeError("planner worker planner-1 failed to start: unrelated")
        )
        with pytest.raises(RuntimeError, match="iteration 0.*true cause") as excinfo:
            orchestrator.run()
        assert "failed to start" not in str(excinfo.value)

    def test_too_few_minibatches_rejected(self, planner, gpt_cost_model, flan_samples_gpt):
        with pytest.raises(ValueError):
            TrainingOrchestrator(
                planner,
                gpt_cost_model,
                flan_samples_gpt[:5],
                global_batch_tokens=8192,
                num_iterations=100,
            )


class TestConcurrentPlanning:
    def test_two_workers_match_serial_plans(self, gpt_cost_model, minibatches):
        """Concurrent workers sharing one planner (and hence one batcher and
        cost-model cache) must produce the same plans as serial planning —
        the shared window-geometry slot and DP solutions must not cross
        threads."""
        from repro.core.planner import DynaPipePlanner, PlannerConfig

        shared = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        store = InstructionStore()
        pool = PlannerPool(
            planner=shared, minibatches=minibatches, store=store, num_workers=2,
            backend="thread",
        )
        pool.start()
        try:
            deadline = time.time() + 30
            while len(pool.planned_iterations()) < len(minibatches) and time.time() < deadline:
                time.sleep(0.01)
        finally:
            pool.stop()
        assert not pool.errors

        serial = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        )
        for iteration, samples in enumerate(minibatches):
            expected = serial.plan(list(samples), iteration=iteration)
            stored = store.fetch(iteration, 0)
            assert stored["metadata"]["num_microbatches"] == len(
                expected.replicas[0].micro_batches
            )
            assert stored["metadata"]["predicted_makespan_ms"] == pytest.approx(
                expected.replicas[0].simulation.makespan_ms
            )
