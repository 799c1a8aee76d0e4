"""Per-attempt job execution: stepping a training session under fleet control.

A :class:`JobExecution` owns one attempt of one job on an allocated gang.
It builds the attempt's planner for the gang's (possibly shrunk) replica
count, constructs a :class:`~repro.training.trainer.TrainingSession` resumed
at the job's checkpoint boundary, and exposes the epoch one iteration at a
time so the fleet clock can interleave jobs and inject failures at
iteration granularity.

Planning runs inline or — the paper's "planning cluster" — through the
**fleet-wide pool** owned by the scheduler: the attempt registers a
uniquely named job stream (``submit_job``), steps it with
:meth:`~repro.training.trainer.TrainingSession.pooled_step`, and
:meth:`JobExecution.close` retires exactly that stream (draining only its
queued tasks) so a preemption never perturbs co-tenant jobs.

``close()`` is the single teardown contract for *every* way an attempt can
end — finishing its epoch, a mid-iteration device failure, a planning
failure, a graceful priority eviction or an elastic regrowth at an
iteration boundary — and it is idempotent; the scheduler guarantees it runs
exactly once per attempt.  Either way, every planning failure — an
out-of-memory plan, a DP partition error, or a
:class:`~repro.runtime.planner_pool.PlanFailedError` recorded by a pool
worker — surfaces as a :class:`JobPlanningError` within one step, which the
scheduler converts into a bounded job-level retry instead of a hang.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.batching.metrics import PaddingStats
from repro.core.dp_solver import PartitionError
from repro.core.recomputation import OutOfMemoryError
from repro.obs.spans import span as _span
from repro.runtime.planner_pool import PlanFailedError, PlannerPool
from repro.schedule.cyclic import ScheduleDeadlockError
from repro.training.throughput import IterationRecord
from repro.training.trainer import TrainingSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.fleet.gang import DeviceGang
    from repro.fleet.job import JobRecord

#: Exceptions that mean "this attempt cannot produce a plan" (as opposed to
#: programming errors, which should propagate).
_PLANNING_ERRORS = (PlanFailedError, OutOfMemoryError, PartitionError, ScheduleDeadlockError)


class JobPlanningError(RuntimeError):
    """Planning for a job attempt failed; the scheduler retries or fails the job."""


class JobExecution:
    """One attempt of a job, stepped iteration by iteration.

    Args:
        record: The job being attempted (checkpoint decides the resume point).
        gang: The allocated device gang (its ``data_parallel`` sizes the
            planner).
        pool: The fleet-wide planning cluster, or ``None`` to plan inline.
            With a pool the attempt registers a uniquely named job stream
            on it; worker spawn is amortised across every job of the fleet.
        planner_lookahead: Plan-ahead window of the attempt's stream.
        planner_timeout_s: Per-iteration plan wait bound (the session's
            ``planner_timeout_s``).

    Raises:
        JobPlanningError: If the attempt's planner cannot even be built
            (e.g. static memory exceeds the device under this gang shape).
    """

    def __init__(
        self,
        record: "JobRecord",
        gang: "DeviceGang",
        pool: PlannerPool | None = None,
        planner_lookahead: int = 4,
        planner_timeout_s: float = 600.0,
    ) -> None:
        spec = record.spec
        self.job_name = spec.name
        self.start_iteration = record.checkpoint.completed_iterations
        try:
            planner = spec.build_planner(gang.data_parallel)
        except _PLANNING_ERRORS as error:
            raise JobPlanningError(
                f"job {spec.name}: cannot build planner for dp={gang.data_parallel}: {error}"
            ) from error
        config = spec.trainer_config(self.start_iteration)
        config.planner_timeout_s = planner_timeout_s
        self.session = TrainingSession(
            planner,
            spec.samples,
            global_batch_tokens=spec.global_batch_tokens,
            config=config,
            system_name=spec.name,
        )
        self.minibatches = self.session.epoch_minibatches()
        self._position = 0
        #: Sticky degradation latch: once every worker of the pool is dead,
        #: the attempt plans inline for the rest of its life (pooled and
        #: inline plans are bit-identical, so only timing accounting — not
        #: results — can tell the difference).
        self._degraded = False
        #: Whether the most recent successful step() planned through the
        #: degraded inline fallback; the scheduler folds this into the
        #: record's ``degraded_iterations`` when the iteration commits.
        self.last_step_degraded = False
        #: Stream key on the pool — unique per attempt, so a retried
        #: attempt's stream can never receive (or be poisoned by) a dead
        #: attempt's late results or stale failures.
        self._pool: PlannerPool | None = None
        self._stream_key: str | None = None
        if pool is not None and self.minibatches:
            self._pool = pool
            self._stream_key = f"{spec.name}#a{len(record.attempts)}"
            pool.submit_job(
                self._stream_key,
                planner,
                [mb.samples for mb in self.minibatches],
                start=self.start_iteration,
                lookahead=planner_lookahead,
            )

    @property
    def stream_key(self) -> str | None:
        """This attempt's stream name on the pool (``None`` when inline)."""
        return self._stream_key

    @property
    def next_pending_iteration(self) -> int | None:
        """Absolute index of the next iteration to plan/execute, if any."""
        if self._position >= len(self.minibatches):
            return None
        return self.minibatches[self._position].index

    def step(self) -> "tuple[IterationRecord, PaddingStats] | None":
        """Plan and execute the next iteration.

        Returns:
            The iteration's record and padding statistics, or ``None`` when
            the attempt has no iterations left.

        Raises:
            JobPlanningError: If planning the iteration failed (including a
                pool worker's failure or a pooled-planning timeout).
        """
        if self._position >= len(self.minibatches):
            return None
        minibatch = self.minibatches[self._position]
        with _span("job.step", job=self.job_name, iteration=minibatch.index):
            return self._step_minibatch(minibatch)

    def _step_minibatch(
        self, minibatch
    ) -> "tuple[IterationRecord, PaddingStats] | None":
        pool = self._pool
        if pool is not None and (self._degraded or pool.live_workers() == 0):
            # Graceful degradation: the planning cluster lost every worker,
            # so the attempt plans inline instead of failing.
            self._degraded = True
        try:
            if pool is None or self._degraded:
                record = self.session.run_iteration(minibatch)
                stats = self.session.last_padding_stats
            else:
                record, stats = self.session.pooled_step(pool, self._stream_key, minibatch)
        except _PLANNING_ERRORS as error:
            raise JobPlanningError(
                f"job {self.job_name}: planning failed at iteration {minibatch.index}: {error}"
            ) from error
        except TimeoutError as error:
            raise JobPlanningError(
                f"job {self.job_name}: no plan for iteration {minibatch.index} "
                f"within {self.session.config.planner_timeout_s:.1f}s: {error}"
            ) from error
        self._position += 1
        self.last_step_degraded = self._degraded
        return record, stats

    def close(self) -> None:
        """Release the attempt's planning resources (idempotent).

        Retires this attempt's stream: only *its* queued tasks are drained
        and only *its* retained plans are released; the pool and its
        workers keep serving every other job.
        """
        if self._pool is not None:
            self._pool.retire_job(self._stream_key)
            self._pool = None
