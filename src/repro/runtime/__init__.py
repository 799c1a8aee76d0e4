"""Planning runtime (paper §3, Fig. 9).

The real DynaPipe hides its per-iteration planning cost by running planners
on CPU cores concurrently with GPU execution: planners pre-fetch future
mini-batches, generate execution plans ahead of time, and hand them to the
executors just in time.

:class:`~repro.runtime.planner_pool.PlannerPool` reproduces that hand-off: a
pool of worker *processes* plans the iterations of named job streams ahead
of their executors on real CPU cores.  A consumer
registers a stream with ``submit_job`` and steps it with ``wait_payload`` /
``notify_consumed``; ``retire_job`` cancels one stream while the workers
keep serving the others.  :class:`~repro.training.trainer.TrainingSession`
(``planner_processes > 0``) and the fleet scheduler's job attempts are the
two consumers, and the session's report measures how much planning time
was exposed as executor waits.
"""

from repro.runtime.planner_pool import PlanFailedError, PlannerPool, PlanningRecord

__all__ = ["PlannerPool", "PlanningRecord", "PlanFailedError"]
