"""Admission-ordering and preemption policies of the fleet scheduler.

A policy decides two things:

* the **order** in which queued jobs are considered for admission
  (:meth:`SchedulingPolicy.order`) — placement itself is gang scheduling
  with backfilling (a job that does not fit right now is skipped, not a
  barrier), so any ordering keeps the cluster busy whenever some queued
  job fits;
* whether a queued job may **gracefully preempt** a running one
  (:meth:`SchedulingPolicy.preempts`) — the scheduler asks this at every
  running job's iteration boundary, and an eviction lets the in-flight
  iteration *complete* before the gang is released (unlike a device
  failure, which discards it; see :mod:`repro.fleet.scheduler` for the
  two preemption flavours).  FIFO and shortest-remaining-work never
  preempt; :class:`PreemptivePriorityPolicy` evicts strictly lower
  priorities, optionally with **priority aging** (queued jobs gain one
  effective-priority level per ``aging_ms`` of waiting, bounding
  starvation without touching the eviction machinery).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.fleet.job import JobRecord


class SchedulingPolicy(Protocol):
    """Orders the admissible queue; first fit wins the next free gang."""

    name: str

    def order(self, pending: Sequence[JobRecord], now_ms: float) -> list[JobRecord]:
        """Return ``pending`` in admission-preference order."""
        ...  # pragma: no cover - protocol definition

    def preempts(
        self, waiting: JobRecord, victim: JobRecord, now_ms: float = 0.0
    ) -> bool:
        """Whether queued ``waiting`` may evict running ``victim`` at an
        iteration boundary.  Policies without preemption return False.

        Optional for custom policies: the scheduler treats a policy
        without this method as never preempting, and a two-argument
        ``preempts(waiting, victim)`` (the pre-aging protocol) is still
        accepted — the scheduler adapts the call arity.
        """
        ...  # pragma: no cover - protocol definition


class FifoPolicy:
    """First-in-first-out: by submission time, then submission sequence."""

    name = "fifo"
    #: Declares that :meth:`preempts` is constant-False, letting the
    #: scheduler skip per-boundary eviction scans entirely.
    never_preempts = True

    def order(self, pending: Sequence[JobRecord], now_ms: float) -> list[JobRecord]:
        return sorted(pending, key=lambda r: (r.spec.submit_time_ms, r.sequence))

    def preempts(
        self, waiting: JobRecord, victim: JobRecord, now_ms: float = 0.0
    ) -> bool:
        return False


class ShortestRemainingWorkPolicy:
    """Shortest remaining work first.

    Remaining work is ``remaining iterations × mean measured iteration
    time`` (the spec's ``est_iteration_ms`` prior before any iteration has
    run), so a preempted job near completion jumps ahead of freshly
    submitted long jobs — the classic mean-queueing-delay win over FIFO.
    Ties fall back to FIFO order for determinism.
    """

    name = "srw"
    #: Constant-False :meth:`preempts`; see :class:`FifoPolicy`.
    never_preempts = True

    def order(self, pending: Sequence[JobRecord], now_ms: float) -> list[JobRecord]:
        return sorted(
            pending,
            key=lambda r: (r.remaining_work_ms(), r.spec.submit_time_ms, r.sequence),
        )

    def preempts(
        self, waiting: JobRecord, victim: JobRecord, now_ms: float = 0.0
    ) -> bool:
        return False


class PreemptivePriorityPolicy:
    """Strict priorities with graceful boundary preemption (time-slicing).

    Admission orders the queue by descending *effective* priority (FIFO
    within a level).  A queued job whose effective priority is *strictly*
    higher than a running one's static priority evicts it — but only at an
    iteration boundary, so the victim's in-flight iteration commits and its
    checkpoint advances before the gang is released; the victim re-enters
    the queue and resumes later from that boundary without spending retry
    budget.

    **Priority aging** (``aging_ms``): with the knob set, a queued job's
    effective priority grows by one level per ``aging_ms`` of waiting since
    it last entered the queue (``JobRecord.last_queued_ms``), so sustained
    high-priority load cannot starve background jobs forever — after
    ``aging_ms × Δpriority`` of waiting, a background job outranks (and may
    evict) a higher-static-priority gang.  Running jobs are compared by
    their static priority (they are not waiting).  Starvation is bounded
    without livelock: eviction happens only at iteration boundaries, so
    every eviction cycle commits at least one iteration of real progress.
    ``aging_ms=None`` (default) disables aging, reproducing the strict
    policy bit-for-bit.

    Args:
        aging_ms: Waiting time per effective-priority level, or ``None``.
    """

    name = "priority"
    never_preempts = False

    def __init__(self, aging_ms: float | None = None) -> None:
        if aging_ms is not None and aging_ms <= 0:
            raise ValueError(f"aging_ms must be > 0, got {aging_ms}")
        self.aging_ms = aging_ms

    def effective_priority(self, record: JobRecord, now_ms: float) -> float:
        """Static priority plus the aging credit of a *queued* record."""
        if self.aging_ms is None:
            return float(record.spec.priority)
        waited = max(0.0, now_ms - record.last_queued_ms)
        return record.spec.priority + waited / self.aging_ms

    def order(self, pending: Sequence[JobRecord], now_ms: float) -> list[JobRecord]:
        return sorted(
            pending,
            key=lambda r: (
                -self.effective_priority(r, now_ms),
                r.spec.submit_time_ms,
                r.sequence,
            ),
        )

    def preempts(
        self, waiting: JobRecord, victim: JobRecord, now_ms: float = 0.0
    ) -> bool:
        return self.effective_priority(waiting, now_ms) > victim.spec.priority


_POLICIES = {
    FifoPolicy.name: FifoPolicy,
    ShortestRemainingWorkPolicy.name: ShortestRemainingWorkPolicy,
    PreemptivePriorityPolicy.name: PreemptivePriorityPolicy,
}


def make_policy(policy: "str | SchedulingPolicy") -> SchedulingPolicy:
    """Resolve a policy name (``"fifo"``/``"srw"``/``"priority"``) or pass
    one through."""
    if isinstance(policy, str):
        try:
            return _POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; choose from {sorted(_POLICIES)}"
            ) from None
    return policy
