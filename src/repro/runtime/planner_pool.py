"""Asynchronous planning ahead of execution, on real CPU cores.

A :class:`PlannerPool` is the reproduction's model of the paper's CPU-side
*planning cluster*: worker *processes* pull planning tasks from a shared
task queue, plan them, and ship the serialised
:meth:`IterationPlan.to_dict` payloads back over a result queue; the parent
keeps each payload on its job stream until the executor consumes it.
A :class:`~repro.core.planner.DynaPipePlanner` travels as a serialised
spec — the cost model's profile database is spilled to disk once per
planner — and every worker rebuilds it bit-identically, so pooled plans
match serial planning exactly while running outside the parent's GIL (the
paper's "planning overlaps execution using a handful of CPU cores" claim,
Fig. 17).  Any other planner, subclasses included, is pickled whole; a
planner that cannot be pickled is rejected with :class:`TypeError` when
its stream is submitted.

The pool serves *named job streams*: :meth:`PlannerPool.submit_job`
registers a job's mini-batches at any time and :meth:`PlannerPool.retire_job`
cancels exactly that job's queued tasks — one pool (and one set of spawned
workers) can therefore serve every job of a fleet, with per-job look-ahead
windows and per-job planned/failed/abandoned accounting.  A consumer steps
a stream with :meth:`~PlannerPool.wait_payload` and
:meth:`~PlannerPool.notify_consumed`, which is the only way a plan reaches
an executor.  Workers cache rebuilt planners per job, so a stream's planner
is rebuilt once per worker, not once per task.

Failure handling is fail-fast: a worker that raises (or a worker process
that dies) records the failure on its job's stream — so
co-tenant jobs sharing the pool never observe it — and a consumer waiting
on that iteration gets :class:`PlanFailedError` immediately instead of
spinning until its timeout.  :meth:`PlannerPool.stop` and
:meth:`PlannerPool.retire_job` report which enqueued iterations were
*abandoned* (never planned, never failed), so a restart knows exactly what
still needs planning.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import os
import pickle
import queue
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from repro.core.planner import DynaPipePlanner, IterationPlan
from repro.data.tasks import Sample
from repro.obs import state as _obs_state
from repro.obs.events import publish as _publish
from repro.obs.registry import REGISTRY, aggregate_snapshots
from repro.obs.spans import RECORDER as _RECORDER
from repro.obs.spans import span as _span


class _Planner(Protocol):
    def plan(self, samples: list[Sample], iteration: int = 0) -> IterationPlan:
        ...  # pragma: no cover - protocol


class PlanFailedError(RuntimeError):
    """Raised by :meth:`PlannerPool.wait_payload` when planning failed.

    Attributes:
        iteration: The iteration whose planning failed.
        job: The job stream the iteration belongs to.
    """

    def __init__(self, message: str, iteration: int, job: str) -> None:
        super().__init__(message)
        self.iteration = iteration
        self.job = job


@dataclass
class PlanningRecord:
    """Bookkeeping for one planned iteration.

    Attributes:
        iteration: Iteration index the record describes (absolute — a
            resumed job stream's first record carries its ``start``).
        planning_time_s: Wall-clock planning time of the iteration (measured
            inside the worker).
        num_microbatches: Micro-batches in the produced plan.
        dp_cost_evaluations: Cost-model evaluations the DP performed (unique
            window shapes costed for its window table); 0 for planners that
            do not run the DP (baselines).
        worker: Identifier of the worker that planned the iteration.
        job: Job stream the iteration belongs to.
    """

    iteration: int
    planning_time_s: float
    num_microbatches: int
    dp_cost_evaluations: int
    worker: str
    job: str


#: Lazily created directory for spilled planner specs; its finalizer removes
#: anything left over at interpreter shutdown.
_SPEC_SPILL_DIR: tempfile.TemporaryDirectory | None = None
#: One spilled spec file per live planner object, so repeated submissions
#: and multiple pools sharing one planner re-ship only a path.  Each
#: entry's file is unlinked (via ``weakref.finalize``) when its planner is
#: garbage-collected, so churning through planners — e.g. one per fleet job
#: attempt — does not accumulate profile-sized temp files.
_SPEC_FILES: "weakref.WeakKeyDictionary[Any, str]" = weakref.WeakKeyDictionary()
_SPILL_LOCK = threading.Lock()

#: Rebuilt planners a worker keeps alive at once (LRU).  Profile databases
#: dominate planner memory, so the cache is small; with job-affine task
#: pickup patterns a handful of entries already gives one-rebuild-per-job.
_WORKER_PLANNER_CACHE = 4

#: Registry-backed pool counters (``planner_pool.*`` in metric snapshots).
_POOL_STATS = REGISTRY.counter_dict(
    "planner_pool", ("tasks_enqueued", "plans_recorded", "failures_recorded")
)


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:  # pragma: no cover - already gone / dir being torn down
        pass


def _spill_spec_path(planner: _Planner) -> str:
    """Write ``planner.to_spec()`` to a JSON file once and return its path.

    The profile database dominates the spec, so serialising it per
    submission (and re-pickling it into every worker under the spawn start
    method) is the pool's main startup cost.  Spilling the spec to disk once
    per planner object means workers receive a short path and ``mmap``-read
    the profile themselves; JSON keeps the payload bit-exact (the spec is
    JSON-safe by construction, see ``costmodel/serialization.py``).  The
    file lives exactly as long as its planner object.

    Raises:
        TypeError: If the spec is not JSON-serialisable (caller falls back
            to pickling the planner whole).
    """
    global _SPEC_SPILL_DIR
    with _SPILL_LOCK:
        path = _SPEC_FILES.get(planner)
        if path is not None and os.path.exists(path):
            return path
        if _SPEC_SPILL_DIR is None:
            _SPEC_SPILL_DIR = tempfile.TemporaryDirectory(prefix="repro-planner-specs-")
        fd, path = tempfile.mkstemp(dir=_SPEC_SPILL_DIR.name, suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(planner.to_spec(), handle)
        except TypeError:
            os.unlink(path)
            raise
        _SPEC_FILES[planner] = path
        weakref.finalize(planner, _unlink_quietly, path)
        return path


def _planner_payload(planner: _Planner) -> dict[str, Any]:
    """Serialise ``planner`` for shipment to worker processes.

    A :class:`DynaPipePlanner` travels as the *path* of a spilled spec file
    — the profile database is written to disk once per planner, not
    re-pickled per stream or per task — and is rebuilt via ``from_spec``,
    which is robust across start methods.  Anything else is pickled whole:
    ``from_spec`` rebuilds the base class, so a subclass (whose ``plan``
    may differ) must not take the spec path.

    Raises:
        pickle.PicklingError, TypeError, AttributeError: If the planner
            cannot be pickled (e.g. it holds a lambda or a lock).
    """
    if type(planner) is DynaPipePlanner:
        try:
            return {"kind": "spec_file", "path": _spill_spec_path(planner)}
        except TypeError:
            pass  # non-JSON-safe spec: fall back to pickling the planner
    return {"kind": "pickle", "blob": pickle.dumps(planner)}


def _rebuild_planner(payload: dict[str, Any]) -> _Planner:
    """Worker-side inverse of :func:`_planner_payload`."""
    if payload["kind"] == "spec_file":
        with open(payload["path"], "r", encoding="utf-8") as handle:
            return DynaPipePlanner.from_spec(json.load(handle))
    return pickle.loads(payload["blob"])


def _cached_planner(cache: "OrderedDict[str, _Planner]", payload: dict[str, Any]) -> _Planner:
    """Rebuild ``payload``'s planner, memoised per worker by its cache key.

    Tasks of one job stream all carry the same ``cache_key``, so a worker
    rebuilds each job's planner once (LRU-bounded) instead of per task —
    the fleet-wide pool's analogue of the old one-planner-per-worker spawn.
    """
    key = payload.get("cache_key")
    if key is None:
        return _rebuild_planner(payload)
    planner = cache.get(key)
    if planner is None:
        planner = _rebuild_planner(payload)
        cache[key] = planner
        if len(cache) > _WORKER_PLANNER_CACHE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return planner


def _plan_one(planner: _Planner, minibatch: Sequence[Sample], iteration: int, job: str):
    """Plan one iteration; returns (payload, record fields)."""
    with _span("plan_task", job=job, iteration=iteration):
        start = time.perf_counter()
        plan = planner.plan(list(minibatch), iteration=iteration)
        elapsed = time.perf_counter() - start
    solution = getattr(plan, "dp_solution", None)
    info = {
        "planning_time_s": elapsed,
        "num_microbatches": plan.num_microbatches,
        "dp_cost_evaluations": solution.cost_evaluations if solution is not None else 0,
    }
    return plan.to_dict(), info


def _worker_telemetry(worker_id: str) -> dict[str, Any]:
    """Snapshot a worker process's telemetry for shipment to the parent.

    Metric snapshots ship unconditionally — counters are always on, and the
    parent's aggregated engine stats must see worker-side planning whether or
    not spans are enabled.  Spans ship only when telemetry is enabled; the
    worker recorder is *drained*, so each message carries only spans finished
    since the previous one.
    """
    telemetry: dict[str, Any] = {"metrics": REGISTRY.snapshot()}
    if _obs_state.enabled():
        telemetry["spans"] = _RECORDER.drain_dicts(origin=worker_id)
    return telemetry


def _process_worker(
    worker_id: str,
    tasks: "mp.Queue",
    results: "mp.Queue",
) -> None:
    """Worker-process main loop: plan tasks until sentinel.

    Tasks arrive as ``(job, iteration, samples, planner_payload)`` tuples —
    each mini-batch is shipped exactly once, with its task, and the planner
    payload is a short reference (spec-file path + cache key) rebuilt
    lazily and memoised per worker.  Every message on ``results`` is a
    tuple whose first element names the event; the parent's collector
    thread keys its bookkeeping off the ``claimed``/``planned``/``failed``
    sequence so that a worker that dies mid-plan leaves an unresolved claim
    behind for crash detection.
    """
    planners: "OrderedDict[str, _Planner]" = OrderedDict()
    while True:
        task = tasks.get()
        if task is None:
            break
        job, iteration, samples, payload = task
        results.put(("claimed", worker_id, job, iteration))
        try:
            planner = _cached_planner(planners, payload)
            plan_payload, info = _plan_one(planner, samples, iteration, job=job)
            info["telemetry"] = _worker_telemetry(worker_id)
            results.put(("planned", worker_id, job, iteration, plan_payload, info))
        except Exception as error:  # noqa: BLE001 - surfaced to the parent
            results.put(
                (
                    "failed",
                    worker_id,
                    job,
                    iteration,
                    f"{type(error).__name__}: {error}",
                    _worker_telemetry(worker_id),
                )
            )
    results.put(("exited", worker_id, _worker_telemetry(worker_id)))


@dataclass
class _JobStream:
    """Parent-side state of one job's task stream on the pool.

    Every consumer registers a stream via :meth:`PlannerPool.submit_job`
    (a fleet job once per attempt).  All iteration indices are *absolute*:
    ``start`` names the first mini-batch's iteration, so a resumed job's
    plans carry the same iteration keys an uninterrupted run would have
    used.  Payloads stay on the stream until consumed or retired.
    """

    name: str
    planner: _Planner | None
    minibatches: Sequence[Sequence[Sample]]
    start: int
    lookahead: int
    #: Per-task planner reference: the serialised planner payload with a
    #: stream-unique ``cache_key``.
    task_ref: dict[str, Any] | None = None
    consumed: int = field(init=False)
    next_to_enqueue: int = field(init=False)
    num_minibatches: int = field(init=False)
    completed: set[int] = field(default_factory=set)
    failed: set[int] = field(default_factory=set)
    errors: list[tuple[int, Exception]] = field(default_factory=list)
    payloads: dict[int, dict] = field(default_factory=dict)
    abandoned: list[int] = field(default_factory=list)
    retired: bool = False

    def __post_init__(self) -> None:
        self.consumed = self.start - 1
        self.next_to_enqueue = self.start
        self.num_minibatches = len(self.minibatches)

    @property
    def end(self) -> int:
        """One past the stream's last iteration index."""
        return self.start + self.num_minibatches

    def unserved(self) -> list[int]:
        """Enqueued iterations that were neither planned nor failed."""
        return sorted(
            iteration
            for iteration in range(self.start, self.next_to_enqueue)
            if iteration not in self.completed and iteration not in self.failed
        )


@dataclass
class PlannerPool:
    """Plans the iterations of named job streams ahead of their executors.

    Construct the pool, register streams with :meth:`submit_job` (before or
    after :meth:`start`), and step each stream with :meth:`wait_payload` /
    :meth:`notify_consumed`; :meth:`retire_job` cancels one stream while
    the workers keep serving the others, and :meth:`stop` tears the pool
    down.  A single training session registers one stream; a fleet
    registers one per job attempt, so worker spawn is paid once for the
    whole fleet.

    Attributes:
        num_workers: Number of planning workers (the paper parallelises
            planning over CPU cores / machines).
        lookahead: Default per-stream look-ahead: iterations planned beyond
            the last one the stream's executor has consumed (bounds plan
            memory, like the paper's prefetch window).
        records: One :class:`PlanningRecord` per planned iteration, in
            arrival order.
    """

    num_workers: int = 2
    lookahead: int = 4
    records: list[PlanningRecord] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {self.lookahead}")
        self._lock = threading.Lock()
        self._streams: dict[str, _JobStream] = {}
        self._ref_seq = itertools.count()
        self._claims: dict[str, tuple[str, int]] = {}
        self._pool_errors: list[Exception] = []
        self._pool_failure: Exception | None = None
        #: Tasks that looked lost (enqueued, unclaimed, not in the task
        #: queue) at the last crash sweep; confirmed lost on the next sweep.
        self._suspect_lost: set[tuple[str, int]] = set()
        #: Once sealed (by :meth:`stop`), late worker results are dropped so
        #: the planned/failed/abandoned accounting stays consistent.
        self._sealed = False
        self._started = False
        self._stop = threading.Event()
        self._processes: list[mp.process.BaseProcess] = []
        self._collector: threading.Thread | None = None
        self._exited: set[str] = set()
        #: Latest cumulative metrics snapshot shipped by each worker process
        #: (counters are monotonic between resets, so latest-per-worker sums
        #: to an exact fleet-wide view).
        self._worker_metrics: dict[str, dict[str, Any]] = {}
        self._queue: Any = None  # task queue (mp.Queue once started)
        self._results: Any = None  # result queue (mp.Queue once started)

    # ------------------------------------------------------------------ job streams

    def _task_ref(self, job: str, planner: _Planner) -> dict[str, Any]:
        """Serialise ``planner`` into the per-task reference of stream ``job``.

        Serialising spills the whole profile database (spec file) or pickles
        the planner, so this is never called under the pool lock — the
        collector and co-tenant consumers must not stall on one stream's
        registration.

        Raises:
            TypeError: If the planner cannot be serialised; names the job.
        """
        try:
            payload = _planner_payload(planner)
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            raise TypeError(
                f"planner of job stream {job!r} cannot be serialised for the "
                f"pool's worker processes: {type(error).__name__}: {error}"
            ) from error
        payload["cache_key"] = f"{job}#{next(self._ref_seq)}"
        return payload

    def submit_job(
        self,
        job: str,
        planner: _Planner,
        minibatches: Sequence[Sequence[Sample]],
        start: int = 0,
        lookahead: int | None = None,
    ) -> None:
        """Register a named job stream on the (possibly running) pool.

        Args:
            job: Stream name; every other stream method takes it.  Must be
                non-empty and unique for the pool's lifetime — a retried
                fleet attempt submits a fresh name so a dead attempt's late
                results can never pollute it.
            planner: Planner for every iteration of the stream (each
                attempt's planner captures its gang shape).
            minibatches: The stream's mini-batches, in iteration order.
            start: Absolute iteration index of ``minibatches[0]`` (the
                job's checkpoint boundary on a resumed attempt).
            lookahead: Per-stream look-ahead window; defaults to the pool's.

        Raises:
            ValueError: On an empty/duplicate name or invalid window.
            TypeError: If the planner cannot be serialised for the worker
                processes; the name stays free and nothing is enqueued.
        """
        if not job:
            raise ValueError("job name must be non-empty")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        window = self.lookahead if lookahead is None else lookahead
        if window < 1:
            raise ValueError(f"lookahead must be >= 1, got {window}")
        with self._lock:
            self._check_submittable(job)
        stream = _JobStream(
            name=job,
            planner=planner,
            minibatches=minibatches,
            start=start,
            lookahead=window,
            task_ref=self._task_ref(job, planner),
        )
        with self._lock:
            # Checked again: the name may have been taken (or the pool
            # stopped) while the planner was being serialised.
            self._check_submittable(job)
            self._streams[job] = stream
            started = self._started
        if started:
            self._refill(stream)

    def _check_submittable(self, job: str) -> None:
        if self._sealed:
            raise RuntimeError("cannot submit jobs to a stopped pool")
        if job in self._streams:
            raise ValueError(f"duplicate job stream {job!r}")

    def retire_job(self, job: str) -> list[int]:
        """Cancel a job stream: drain *its* queued tasks, evict its state.

        Only the retired job's tasks leave the queue — co-tenant streams
        keep planning undisturbed (the preemption contract of the fleet's
        shared pool).  A worker already planning one of the job's
        iterations finishes, but its late result is dropped, and the job's
        retained plans are released, so nothing of the attempt survives
        into a successor stream.

        Returns the abandoned iterations (enqueued, never planned, never
        failed), like :meth:`stop` does for the whole pool.
        """
        with self._lock:
            stream = self._streams.get(job)
            if stream is None:
                raise KeyError(f"unknown job stream {job!r}")
            if stream.retired:
                return list(stream.abandoned)
        if self._queue is not None:
            requeue = []
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None or item[0] != job:
                    requeue.append(item)
            for item in requeue:
                self._queue.put(item)
        with self._lock:
            stream.abandoned = stream.unserved()
            stream.retired = True
            stream.payloads.clear()
            stream.minibatches = ()
            # The stream stays registered as a tombstone (late results must
            # keep being dropped), but its heavy references — the planner
            # with its profile database, and the task ref pinning a spilled
            # spec file (or a pickle blob) — are released now, so a fleet
            # churning through attempts does not grow the parent's memory
            # by one planner per retired stream.
            stream.planner = None
            stream.task_ref = None
            self._suspect_lost = {
                key for key in self._suspect_lost if key[0] != job
            }
            return list(stream.abandoned)

    def job_names(self, include_retired: bool = False) -> list[str]:
        """Names of registered streams."""
        with self._lock:
            return sorted(
                name
                for name, stream in self._streams.items()
                if include_retired or not stream.retired
            )

    def _stream(self, job: str) -> _JobStream:
        stream = self._streams.get(job)
        if stream is None:
            raise KeyError(f"unknown job stream {job!r}")
        return stream

    # ------------------------------------------------------------------ bookkeeping

    def _record_planned(
        self, worker: str, job: str, iteration: int, payload: dict, info: dict
    ) -> None:
        """Keep a finished iteration's payload on its stream and record it.

        Recording happens under the pool lock so that :meth:`stop` can
        seal the pool and snapshot the abandoned sets atomically — a result
        the collector delivers *after* the seal must not make an
        "abandoned" iteration retroactively planned.  Results for retired
        streams are dropped for the same reason: the attempt they belong to
        is gone.
        """
        with self._lock:
            self._claims.pop(worker, None)
            if self._sealed:
                return
            stream = self._streams.get(job)
            if stream is None or stream.retired:
                return
            if iteration in stream.failed:
                # A crash sweep already failed this iteration (e.g. the
                # worker was killed right after shipping the result); the
                # failure has been surfaced to consumers, so the late result
                # is dropped rather than leaving the iteration both planned
                # and failed.
                return
            self._suspect_lost.discard((job, iteration))
            stream.payloads[iteration] = payload
            stream.completed.add(iteration)
            self.records.append(
                PlanningRecord(
                    iteration=iteration,
                    planning_time_s=info["planning_time_s"],
                    num_microbatches=info["num_microbatches"],
                    dp_cost_evaluations=info["dp_cost_evaluations"],
                    worker=worker,
                    job=job,
                )
            )
            _POOL_STATS["plans_recorded"] += 1
            REGISTRY.histogram("planner_pool.planning_time_s").observe(
                info["planning_time_s"]
            )
        _publish("planner_task_planned", job=job, iteration=iteration, worker=worker)

    def _record_failed(self, worker: str, job: str, iteration: int, error: Exception) -> None:
        """Record a planning failure on its stream (consumers fail fast)."""
        with self._lock:
            self._claims.pop(worker, None)
            if self._sealed:
                return
            stream = self._streams.get(job)
            if stream is None or stream.retired:
                return
            self._suspect_lost.discard((job, iteration))
            if iteration in stream.completed:
                # The plan already landed; keep the success.
                return
            if iteration in stream.failed:
                return
            stream.errors.append((iteration, error))
            stream.failed.add(iteration)
            _POOL_STATS["failures_recorded"] += 1
        _publish(
            "planner_task_failed", job=job, iteration=iteration, error=str(error)
        )

    def _absorb_worker_telemetry(
        self, worker_id: str, telemetry: dict[str, Any] | None
    ) -> None:
        """Fold one worker message's telemetry into the parent's stores.

        Metric snapshots are cumulative per worker, so the latest replaces
        its predecessor (summing latest snapshots across workers is exact);
        shipped spans are appended to the parent recorder under the worker's
        origin label, with span ids re-based to avoid collisions.
        """
        if not telemetry:
            return
        metrics = telemetry.get("metrics")
        if metrics:
            with self._lock:
                self._worker_metrics[worker_id] = metrics
        spans = telemetry.get("spans")
        if spans:
            _RECORDER.extend_dicts(spans, origin=worker_id)

    # ------------------------------------------------------------------ workers

    def _collect(self) -> None:
        """Parent-side collector: drain worker results, watch for crashes."""
        alive_ids = {p.name for p in self._processes}
        deaths_seen = False
        while True:
            try:
                message = self._results.get(timeout=0.1)
            except queue.Empty:
                dead = [
                    p for p in self._processes
                    if p.name in alive_ids and not p.is_alive()
                ]
                for process in dead:
                    alive_ids.discard(process.name)
                    self._on_worker_death(process.name)
                deaths_seen = deaths_seen or bool(dead)
                if not alive_ids:
                    # Nothing further can arrive; fail anything still queued
                    # (unless we are stopping, where pending work is
                    # *abandoned*, not failed).
                    if not self._stop.is_set():
                        self._fail_unserved("all planner workers are dead")
                    return
                if deaths_seen and not self._stop.is_set():
                    # Sweeps continue only while suspects remain; otherwise
                    # the queue would be drained/re-pickled every idle poll
                    # for the pool's remaining lifetime.
                    deaths_seen = self._reconcile_lost_tasks()
                continue
            kind, worker_id = message[0], message[1]
            if kind == "claimed":
                _, _, job, iteration = message
                if worker_id in self._exited:
                    # The claim outlived its worker (the death sweep ran
                    # before this buffered message was readable); recording
                    # it now would strand the iteration — no further death
                    # event will fire for this worker and the lost-task
                    # sweep skips claimed iterations.  Fail it directly.
                    self._record_failed(
                        worker_id,
                        job,
                        iteration,
                        RuntimeError(f"planner worker {worker_id} died while planning"),
                    )
                else:
                    with self._lock:
                        self._claims[worker_id] = (job, iteration)
            elif kind == "planned":
                _, _, job, iteration, payload, info = message
                self._absorb_worker_telemetry(worker_id, info.pop("telemetry", None))
                self._record_planned(worker_id, job, iteration, payload, info)
            elif kind == "failed":
                _, _, job, iteration, text, telemetry = message
                self._absorb_worker_telemetry(worker_id, telemetry)
                self._record_failed(worker_id, job, iteration, RuntimeError(text))
            elif kind == "exited":
                self._absorb_worker_telemetry(worker_id, message[2])
                self._exited.add(worker_id)
                alive_ids.discard(worker_id)
                if not alive_ids:
                    return

    def _reconcile_lost_tasks(self) -> bool:
        """Detect tasks a worker dequeued but died before claiming.

        A kill between ``tasks.get()`` and the ``claimed`` message being
        flushed loses the task silently: it is no longer in the queue and no
        claim points at it, so neither the crash handler nor ``stop()``'s
        drain would ever account for it.  After observing worker deaths the
        collector therefore sweeps: an enqueued task that is neither
        completed, failed, claimed, nor present in the task queue across two
        consecutive sweeps (the second sweep gives an in-flight ``claimed``
        message time to arrive) is failed like a claimed crash victim.

        Returns whether suspects remain (i.e. another sweep is needed).
        """
        items = []
        while True:
            try:
                items.append(self._queue.get_nowait())
            except queue.Empty:
                break
        for item in items:
            self._queue.put(item)
        present = {(item[0], item[1]) for item in items if item is not None}
        with self._lock:
            claimed = set(self._claims.values())
            unaccounted = set()
            for stream in self._streams.values():
                if stream.retired:
                    continue
                for iteration in range(stream.start, stream.next_to_enqueue):
                    key = (stream.name, iteration)
                    if (
                        iteration not in stream.completed
                        and iteration not in stream.failed
                        and key not in claimed
                        and key not in present
                    ):
                        unaccounted.add(key)
            lost = self._suspect_lost & unaccounted
            self._suspect_lost = unaccounted - lost
        for job, iteration in sorted(lost):
            self._record_failed(
                "pool",
                job,
                iteration,
                RuntimeError("planner worker died holding this iteration's task"),
            )
        with self._lock:
            return bool(self._suspect_lost)

    def _on_worker_death(self, worker_id: str) -> None:
        """A worker process died without a clean exit message."""
        if worker_id in self._exited or self._stop.is_set():
            return
        self._exited.add(worker_id)
        with self._lock:
            claimed = self._claims.get(worker_id)
            self._pool_errors.append(
                RuntimeError(f"planner worker {worker_id} died unexpectedly")
            )
        if claimed is not None:
            job, iteration = claimed
            self._record_failed(
                worker_id,
                job,
                iteration,
                RuntimeError(f"planner worker {worker_id} died while planning"),
            )

    def _fail_unserved(self, reason: str) -> None:
        """Fail every enqueued iteration that no surviving worker will plan."""
        with self._lock:
            self._pool_failure = RuntimeError(reason)
            pending = [
                (stream.name, iteration)
                for stream in self._streams.values()
                if not stream.retired
                for iteration in stream.unserved()
            ]
        for job, iteration in pending:
            self._record_failed("pool", job, iteration, RuntimeError(reason))

    # ------------------------------------------------------------------ control

    def start(self) -> None:
        """Start the workers and enqueue every stream's initial window."""
        # The platform-default context: fork on Linux, spawn on
        # macOS/Windows, where forking is unsafe.
        ctx = mp.get_context()
        self._queue = ctx.Queue()
        self._results = ctx.Queue()
        self._processes = [
            ctx.Process(
                target=_process_worker,
                args=(f"planner-{i}", self._queue, self._results),
                name=f"planner-{i}",
                daemon=True,
            )
            for i in range(self.num_workers)
        ]
        for process in self._processes:
            process.start()
        self._collector = threading.Thread(
            target=self._collect, name="planner-collector", daemon=True
        )
        self._collector.start()
        with self._lock:
            self._started = True
            streams = [s for s in self._streams.values() if not s.retired]
        for stream in streams:
            self._refill(stream)

    def _refill(self, stream: _JobStream) -> None:
        with self._lock:
            if self._stop.is_set() or stream.retired or self._queue is None:
                return
            failure = self._pool_failure
            limit = min(stream.end, stream.consumed + 1 + stream.lookahead)
            fresh = list(range(stream.next_to_enqueue, limit))
            stream.next_to_enqueue = max(stream.next_to_enqueue, limit)
            if failure is None:
                for iteration in fresh:
                    samples = list(stream.minibatches[iteration - stream.start])
                    self._queue.put((stream.name, iteration, samples, stream.task_ref))
                    _POOL_STATS["tasks_enqueued"] += 1
                    _publish(
                        "planner_task_enqueued", job=stream.name, iteration=iteration
                    )
        if failure is not None:
            # No worker is left to serve new iterations; keep the fail-fast
            # guarantee by marking them failed instead of enqueueing them
            # onto a queue nobody drains.
            for iteration in fresh:
                self._record_failed(
                    "pool", stream.name, iteration, RuntimeError(str(failure))
                )

    def notify_consumed(self, job: str, iteration: int) -> None:
        """Tell the pool ``job``'s executor finished ``iteration``.

        Releases the iteration's payload and advances the stream's window.
        """
        with self._lock:
            stream = self._stream(job)
            if stream.retired:
                return
            stream.consumed = max(stream.consumed, iteration)
            stream.payloads.pop(iteration, None)
        self._refill(stream)

    def _drain_tasks(self) -> None:
        if self._queue is None:
            return
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break

    def stop(self) -> None:
        """Stop the workers and record each stream's abandoned iterations.

        The task queue is drained so no worker picks up new work; each
        worker finishes (or is terminated after a timeout) and every
        stream's enqueued iterations that were neither planned nor failed
        are recorded as *abandoned* (see :meth:`job_abandoned`), so a
        restart can re-plan exactly those instead of double-planning
        finished ones or silently skipping pending ones.  A second call
        keeps the first snapshot.
        """
        with self._lock:
            if self._sealed:
                return
        self._stop.set()
        self._drain_tasks()
        if self._queue is not None:
            for _ in range(self.num_workers):
                self._queue.put(None)
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - hung-worker safety net
                process.terminate()
                process.join(timeout=5.0)
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        self._drain_tasks()
        with self._lock:
            # Seal and snapshot atomically: a late result delivered after
            # this point is dropped, so nothing reported abandoned here can
            # later turn up planned.
            self._sealed = True
            for stream in self._streams.values():
                if not stream.retired:
                    stream.abandoned = stream.unserved()

    # ------------------------------------------------------------------ fault injection

    def kill_workers(self, count: int | None = None) -> int:
        """Kill up to ``count`` live workers (all of them when ``None``).

        The chaos harness's worker-loss primitive.  Worker processes are
        terminated — a worker holding a task dies with it, and the
        collector's existing crash machinery fails the orphaned iteration
        so consumers observe a :class:`PlanFailedError` instead of a hang.
        The call blocks until the victims are actually gone, so
        :meth:`live_workers` is accurate when it returns.

        Returns the number of workers killed.
        """
        victims = [process for process in self._processes if process.is_alive()]
        if count is not None:
            victims = victims[: max(0, count)]
        for victim in victims:
            victim.terminate()
        for victim in victims:
            victim.join(timeout=10.0)
        return len(victims)

    def inject_plan_loss(
        self,
        job: str,
        iteration: int,
        message: str = "injected transient fault: plan payload lost",
    ) -> bool:
        """Drop ``(job, iteration)``'s plan and mark it failed (transient fault).

        Models a transient plan-transport error: whatever the workers
        produced for the iteration is discarded and a failure is recorded
        in its place, so the consumer's next :meth:`wait_payload` raises
        :class:`PlanFailedError` exactly as a worker-side failure would.
        The fault is *transient* by construction — it poisons only this
        attempt's stream; a retried attempt replans the iteration under a
        fresh stream name and succeeds.

        Returns ``True`` if the fault was injected; ``False`` when there
        was nothing to poison (unknown/retired stream, iteration outside
        the stream's range or already consumed, or already failed).
        """
        with self._lock:
            stream = self._streams.get(job)
            if stream is None or stream.retired or self._sealed:
                return False
            if iteration < stream.start or iteration >= stream.end:
                return False
            if iteration <= stream.consumed:
                return False
            if iteration in stream.failed:
                return False
            stream.payloads.pop(iteration, None)
            stream.completed.discard(iteration)
            error = RuntimeError(message)
            stream.errors.append((iteration, error))
            stream.failed.add(iteration)
        return True

    # ------------------------------------------------------------------ telemetry

    def telemetry_snapshot(self) -> dict[str, Any]:
        """Fleet-wide metrics view: parent registry + every worker's latest.

        Counters and histograms are summed across processes; gauges are
        last-writer-wins (see :func:`repro.obs.registry.aggregate_snapshots`).
        """
        with self._lock:
            snapshots = list(self._worker_metrics.values())
        return aggregate_snapshots([REGISTRY.snapshot(), *snapshots])

    def engine_stats(self) -> dict[str, int]:
        """Aggregated simulation-engine counters across parent and workers.

        The process-local :func:`repro.simulator.engine.engine_stats` cannot
        see planning done inside pool worker processes; this view sums the
        ``sim_engine.*`` counters over the parent and every worker's shipped
        snapshot, so order-search solves running on the planning cluster are
        accounted for.
        """
        combined = self.telemetry_snapshot()["counters"]
        prefix = "sim_engine."
        return {
            key[len(prefix):]: value
            for key, value in combined.items()
            if key.startswith(prefix)
        }

    # ------------------------------------------------------------------ status

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has spawned the workers."""
        return self._started

    def live_workers(self) -> int:
        """Worker processes currently alive (0 after a clean stop)."""
        return sum(p.is_alive() for p in self._processes)

    def job_errors(self, job: str) -> list[tuple[int, Exception]]:
        """One stream's planning failures, as (iteration, exception) pairs."""
        with self._lock:
            return list(self._stream(job).errors)

    @property
    def pool_errors(self) -> list[Exception]:
        """Failures of the pool itself (worker deaths), not tied to a task."""
        with self._lock:
            return list(self._pool_errors)

    def job_abandoned(self, job: str) -> list[int]:
        """One stream's abandoned iterations (set by stop/retire)."""
        with self._lock:
            return list(self._stream(job).abandoned)

    def planned_iterations(self, job: str) -> list[int]:
        """Iterations of ``job`` planned so far (consumed ones included)."""
        with self._lock:
            return sorted(record.iteration for record in self.records if record.job == job)

    def failed_iterations(self, job: str) -> list[int]:
        """Iterations of ``job`` whose planning failed."""
        with self._lock:
            return sorted(self._stream(job).failed)

    def payload(self, job: str, iteration: int) -> dict[str, Any] | None:
        """The :meth:`IterationPlan.to_dict` payload of ``(job, iteration)``.

        ``None`` until the iteration is planned, and again once it is
        consumed or its stream retired.
        """
        with self._lock:
            return self._stream(job).payloads.get(iteration)

    def wait_payload(self, job: str, iteration: int, timeout: float = 120.0) -> dict[str, Any]:
        """Block until ``(job, iteration)`` is planned and return its payload.

        Raises:
            PlanFailedError: If planning of the iteration failed (the error
                recorded for exactly this iteration, or the pool-wide
                failure when no worker is left to plan it).
            TimeoutError: If the payload does not appear within ``timeout``.
        """
        with self._lock:
            stream = self._stream(job)
        deadline = time.perf_counter() + timeout
        while True:
            with self._lock:
                payload = stream.payloads.get(iteration)
                failure = next(
                    (error for it, error in stream.errors if it == iteration), None
                )
                if failure is None:
                    failure = self._pool_failure
            if failure is None and self._started and self.live_workers() == 0:
                # Every worker is gone (e.g. killed by the chaos harness)
                # and the iteration is neither planned nor failed: nothing
                # will ever serve it, so fail fast instead of spinning out
                # the full timeout.
                failure = RuntimeError("all planner workers are dead")
            if payload is not None:
                return payload
            if failure is not None:
                raise PlanFailedError(
                    f"planning failed for iteration {iteration}: {failure}",
                    iteration=iteration,
                    job=job,
                ) from failure
            if time.perf_counter() > deadline:
                raise TimeoutError(
                    f"no plan for iteration {iteration} after {timeout:.1f}s"
                )
            time.sleep(0.002)
