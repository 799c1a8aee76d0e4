"""Compute-op level pipeline simulation.

Given a :class:`~repro.schedule.events.PipelineSchedule` and per-op
durations, the engine resolves the timing of every forward and backward pass
under the pipeline's data dependencies:

* an op must wait for the previous op on its own device (devices execute
  their schedule in order, one op at a time);
* a forward pass on stage ``j > 0`` must wait for the same micro-batch's
  forward on stage ``j - 1`` plus the activation transfer time;
* a backward pass on stage ``j < c-1`` must wait for the same micro-batch's
  backward on stage ``j + 1`` plus the gradient transfer time;
* the backward pass on the last stage follows its own forward pass.

:func:`walk_timeline` times fixed per-stage op sequences in one scalar pass:
it visits the stages round-robin and advances each one while the op at its
head has its cross-stage dependency met.  Each op reads only the end times
of its two predecessors, so any such order gives the same floats.
:func:`simulate_schedule` encodes a schedule, checks it, gathers its
duration and transfer callbacks into ``[microbatch][stage]`` rows and walks
it.  A schedule that lists an op twice, uses a negative micro-batch index,
or has unsatisfiable dependencies is rejected with :class:`SimulationError`.

The result contains the full timeline (used for safety-stock analysis and
communication planning), the makespan, per-device idle time and the peak
memory per device.  ``op_times`` and ``trace`` are materialized lazily from
the walk's lists on first access.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.obs.events import publish as _publish
from repro.obs.registry import REGISTRY
from repro.schedule.cyclic import OpCosts
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule
from repro.simulator.trace import ExecutionTrace, TraceEvent

__all__ = [
    "CommTimeFn",
    "DurationFn",
    "SimulationError",
    "SimulationResult",
    "Timeline",
    "engine_stats",
    "reset_engine_stats",
    "simulate_schedule",
    "walk_timeline",
]

#: Duration provider: maps a compute op to milliseconds.
DurationFn = Callable[[ComputeOp], float]
#: Communication time provider: (microbatch, from_stage, to_stage, is_gradient) -> ms.
CommTimeFn = Callable[[int, int, int, bool], float]


class SimulationError(RuntimeError):
    """Raised when a schedule cannot be simulated: unsatisfiable
    dependencies, an op listed twice, or a negative micro-batch index."""


# --------------------------------------------------------------------------- stats

#: Hot-path counters, registered with (and snapshotted by) the process-wide
#: metrics registry as ``sim_engine.*`` while keeping the zero-overhead
#: plain-dict increment idiom on the walk.
_STATS = REGISTRY.counter_dict("sim_engine", ("timeline_solves", "vector_simulations"))


def engine_stats() -> dict[str, int]:
    """Snapshot of the engine's counters: timed walks of fixed sequences
    (``timeline_solves``) and whole-schedule simulations.

    This is a *process-local* shim over ``repro.obs.REGISTRY``'s
    ``sim_engine.*`` counters; planning that ran in pool worker processes is
    invisible here — use :meth:`repro.runtime.planner_pool.PlannerPool.engine_stats`
    for the aggregated fleet-wide view.
    """
    return dict(_STATS)


def reset_engine_stats() -> None:
    """Reset all engine counters to zero (used by tests and benchmarks)."""
    for key in _STATS:
        _STATS[key] = 0


class SimulationResult:
    """Output of :func:`simulate_schedule`.

    Attributes:
        op_times: Mapping from compute op to its (start, end) time in ms.
        makespan_ms: Completion time of the last op.
        device_busy_ms: Total compute time per device.
        device_idle_ms: Idle (bubble) time per device within the makespan.
        peak_activation_bytes: Peak memory per device: its static memory
            (``static_bytes``, zero when not given) plus its live
            activations.  The planner's peaks include static memory.
        trace: Flat execution trace for rendering / export.

    ``op_times`` may be built lazily from the walk's lists (``materialize``)
    and ``trace`` lazily from ``op_times``; all other attributes are always
    materialized.
    """

    def __init__(
        self,
        op_times: dict[ComputeOp, tuple[float, float]] | None = None,
        makespan_ms: float = 0.0,
        device_busy_ms: list[float] | None = None,
        device_idle_ms: list[float] | None = None,
        peak_activation_bytes: list[float] | None = None,
        trace: ExecutionTrace | None = None,
        materialize: Callable[[], dict[ComputeOp, tuple[float, float]]] | None = None,
    ) -> None:
        self._op_times = op_times
        self._trace = trace
        self._materialize = materialize
        if materialize is None:
            if self._op_times is None:
                self._op_times = {}
            if self._trace is None:
                self._trace = ExecutionTrace()
        self.makespan_ms = makespan_ms
        self.device_busy_ms = device_busy_ms if device_busy_ms is not None else []
        self.device_idle_ms = device_idle_ms if device_idle_ms is not None else []
        self.peak_activation_bytes = (
            peak_activation_bytes if peak_activation_bytes is not None else []
        )

    @property
    def op_times(self) -> dict[ComputeOp, tuple[float, float]]:
        if self._op_times is None:
            self._op_times = self._materialize()
        return self._op_times

    @property
    def trace(self) -> ExecutionTrace:
        if self._trace is None:
            trace = ExecutionTrace()
            for op, (start, end) in self.op_times.items():
                trace.add(
                    TraceEvent(
                        device=op.stage,
                        name=f"{op.op_type.value}{op.microbatch}",
                        start_ms=start,
                        end_ms=end,
                        category="compute",
                        microbatch=op.microbatch,
                    )
                )
            self._trace = trace
        return self._trace

    @property
    def bubble_fraction(self) -> float:
        """Average fraction of the makespan devices spend idle."""
        if self.makespan_ms <= 0 or not self.device_idle_ms:
            return 0.0
        return sum(self.device_idle_ms) / (len(self.device_idle_ms) * self.makespan_ms)


# ---------------------------------------------------------------- the walk


class Timeline(NamedTuple):
    """One timed walk: per-stage op start and end times (in sequence order),
    the last end, per-stage busy and idle time, and per-stage peak memory
    (static plus live activations; static alone without activation sizes)."""

    starts: list[list[float]]
    ends: list[list[float]]
    makespan_ms: float
    busy_ms: list[float]
    idle_ms: list[float]
    peak_bytes: list[float]

    def result(
        self,
        ops: Callable[[], Iterable[ComputeOp]],
        peak_activation_bytes: list[float],
    ) -> SimulationResult:
        """This walk as a :class:`SimulationResult`; ``ops()`` yields the
        walked ops stage-major and is only called when ``op_times`` is
        first read."""
        starts, ends = self.starts, self.ends
        return SimulationResult(
            makespan_ms=self.makespan_ms,
            device_busy_ms=self.busy_ms,
            device_idle_ms=self.idle_ms,
            peak_activation_bytes=peak_activation_bytes,
            materialize=lambda: dict(
                zip(ops(), zip(chain.from_iterable(starts), chain.from_iterable(ends)))
            ),
        )


def _op_name(microbatch: int, stage: int, is_forward: bool) -> str:
    return f"{'F' if is_forward else 'B'}{microbatch}@{stage}"


def _dependency(
    microbatch: int, stage: int, is_forward: bool, num_stages: int
) -> tuple[int, int, bool] | None:
    """The op a ``(microbatch, stage, is_forward)`` op waits for across
    stages (``None`` for a forward on stage 0)."""
    if is_forward:
        return (microbatch, stage - 1, True) if stage > 0 else None
    if stage == num_stages - 1:
        return (microbatch, stage, True)
    return (microbatch, stage + 1, False)


def walk_timeline(
    num_stages: int,
    sequences: Sequence[Sequence[int]],
    costs: OpCosts | None = None,
    activation_bytes: Sequence[Sequence[float]] | None = None,
    static_bytes: Sequence[float] | None = None,
) -> Timeline:
    """Time fixed per-stage op sequences in one scalar pass.

    ``sequences[j]`` lists stage ``j``'s ops in execution order, encoded
    ``(microbatch << 1) | is_forward``, each op at most once with a
    non-negative micro-batch index (:func:`simulate_schedule` checks this).
    The walk visits the stages round-robin and advances each one while the
    cross-stage dependency of the op at its head has ended.  An op starts
    at that dependency's end plus the transfer time if that beats its
    device's previous end, else at that end, and ends ``duration`` later.
    Busy time is a sequential running sum of each stage's op spans; the
    peaks walk each stage's ops adding a forward's activation and
    subtracting it again at its backward.

    Args:
        num_stages: Number of pipeline stages ``C``.
        sequences: Per-stage encoded op order.
        costs: ``[microbatch][stage]`` duration and transfer rows, added as
            given (callers clamp durations); ``None`` times every op at zero.
        activation_bytes: Optional ``[microbatch][stage]`` activation sizes;
            without them ``peak_bytes`` is the static memory alone.
        static_bytes: Optional per-stage static memory the peaks start from.

    Raises:
        SimulationError: If no stage can advance: the head of the lowest
            unfinished stage is named with the dependency it waits for.
    """
    num_microbatches = max(((max(seq) >> 1) + 1 for seq in sequences if seq), default=0)
    if costs is None:  # an untimed walk only checks the sequences: no solve
        zeros = [[0.0] * num_stages] * num_microbatches
        costs = OpCosts(zeros, zeros, zeros, zeros)
    else:
        _STATS["timeline_solves"] += 1
    forward_ms, backward_ms, act_comm_ms, grad_comm_ms = costs
    last = num_stages - 1
    # End time of each stage's forward / backward of each micro-batch.
    forward_end: list[list[float | None]] = [[None] * num_microbatches for _ in sequences]
    backward_end: list[list[float | None]] = [[None] * num_microbatches for _ in sequences]
    starts: list[list[float]] = [[] for _ in sequences]
    ends: list[list[float]] = [[] for _ in sequences]
    device_free = [0.0] * num_stages
    positions = [0] * num_stages
    remaining = sum(len(seq) for seq in sequences)

    while remaining:
        before = remaining
        for j in range(num_stages):
            sequence, position = sequences[j], positions[j]
            stage_starts, stage_ends = starts[j], ends[j]
            prev = device_free[j]
            for position in range(position, len(sequence)):
                encoded = sequence[position]
                mb = encoded >> 1
                if encoded & 1:
                    if j:
                        dep = forward_end[j - 1][mb]
                        if dep is None:
                            break
                        ready = dep + act_comm_ms[mb][j - 1]
                    else:
                        ready = 0.0
                    start = ready if ready > prev else prev
                    prev = start + forward_ms[mb][j]
                    forward_end[j][mb] = prev
                else:
                    if j < last:
                        dep = backward_end[j + 1][mb]
                        if dep is None:
                            break
                        ready = dep + grad_comm_ms[mb][j + 1]
                    else:
                        ready = forward_end[j][mb]
                        if ready is None:
                            break
                    start = ready if ready > prev else prev
                    prev = start + backward_ms[mb][j]
                    backward_end[j][mb] = prev
                stage_starts.append(start)
                stage_ends.append(prev)
            else:
                position = len(sequence)
            remaining -= position - positions[j]
            positions[j] = position
            device_free[j] = prev
        if remaining == before:
            j = next(j for j in range(num_stages) if positions[j] < len(sequences[j]))
            encoded = sequences[j][positions[j]]
            head = (encoded >> 1, j, bool(encoded & 1))
            raise SimulationError(
                "simulation cannot make progress: "
                f"{_op_name(*head)} is blocked waiting for "
                f"{_op_name(*_dependency(*head, num_stages))}, which cannot execute "
                "(circular or misordered schedule dependencies)"
            )

    # A device's ops end in order, so its last end is its latest.
    makespan = max(device_free, default=0.0)
    busy: list[float] = []
    for stage_starts, stage_ends in zip(starts, ends):
        total = 0.0
        for start, end in zip(stage_starts, stage_ends):
            total += end - start
        busy.append(total)
    if activation_bytes is None:
        peaks = [(static_bytes[j] if static_bytes else 0.0) for j in range(num_stages)]
    else:
        peaks = []
        for j, sequence in enumerate(sequences):
            running = peak = float(static_bytes[j]) if static_bytes else 0.0
            for encoded in sequence:
                if encoded & 1:
                    running += activation_bytes[encoded >> 1][j]
                    if running > peak:
                        peak = running
                else:
                    running -= activation_bytes[encoded >> 1][j]
            peaks.append(peak)
    return Timeline(
        starts, ends, makespan, busy, [max(makespan - total, 0.0) for total in busy], peaks
    )


# ---------------------------------------------------------------- simulation


def _check_sequences(num_stages: int, sequences: list[list[int]]) -> None:
    """Raise the :class:`SimulationError` of sequences that cannot run, in
    this order: the op with the lowest negative micro-batch index, the first
    op listed twice, the first op whose dependency never appears (all
    stage-major), then the walk's verdict on circular or misordered ones."""
    ops = [
        (encoded >> 1, stage, bool(encoded & 1))
        for stage, sequence in enumerate(sequences)
        for encoded in sequence
    ]
    if ops:
        lowest = min(ops, key=lambda op: op[0])
        if lowest[0] < 0:
            raise SimulationError(f"{_op_name(*lowest)} has a negative micro-batch index")
    seen: set[tuple[int, int, bool]] = set()
    for op in ops:
        if op in seen:
            raise SimulationError(f"{_op_name(*op)} appears twice in the schedule")
        seen.add(op)
    for op in ops:
        dependency = _dependency(*op, num_stages)
        if dependency is not None and dependency not in seen:
            raise SimulationError(
                "simulation cannot make progress: "
                f"{_op_name(*op)} depends on {_op_name(*dependency)}, "
                "which never appears in the schedule"
            )
    walk_timeline(num_stages, sequences)


def _gather_costs(
    schedule: PipelineSchedule,
    duration_fn: DurationFn | Mapping[ComputeOp, float],
    comm_time_fn: CommTimeFn | None,
) -> OpCosts:
    """``[microbatch][stage]`` cost rows of ``schedule``.  Durations are
    drawn in ``all_ops()`` order and clamped at zero; then the activation
    edges' and the gradient edges' transfer times, each stage-major."""
    lookup = duration_fn if callable(duration_fn) else duration_fn.__getitem__
    ops = list(schedule.all_ops())
    durations = np.maximum(np.asarray([lookup(op) for op in ops], dtype=np.float64), 0.0)
    num_stages = schedule.num_stages
    num_microbatches = max((op.microbatch for op in ops), default=-1) + 1
    forward, backward, act_comm, grad_comm = (
        [[0.0] * num_stages for _ in range(num_microbatches)] for _ in range(4)
    )
    for op, duration in zip(ops, durations.tolist()):
        rows = forward if op.op_type is OpType.FORWARD else backward
        rows[op.microbatch][op.stage] = duration
    if comm_time_fn is not None:
        for op in ops:
            if op.op_type is OpType.FORWARD and op.stage > 0:
                act_comm[op.microbatch][op.stage - 1] = float(
                    comm_time_fn(op.microbatch, op.stage - 1, op.stage, False)
                )
        for op in ops:
            if op.op_type is OpType.BACKWARD and op.stage < num_stages - 1:
                grad_comm[op.microbatch][op.stage + 1] = float(
                    comm_time_fn(op.microbatch, op.stage + 1, op.stage, True)
                )
    return OpCosts(forward, backward, act_comm, grad_comm)


def simulate_schedule(
    schedule: PipelineSchedule,
    duration_fn: DurationFn | Mapping[ComputeOp, float],
    comm_time_fn: CommTimeFn | None = None,
    activation_bytes: Sequence[Sequence[float]] | None = None,
    static_bytes: Sequence[float] | None = None,
) -> SimulationResult:
    """Simulate ``schedule`` and return its timeline.

    The schedule is checked before any callback is drawn, so a schedule
    that cannot run raises without consuming a noisy duration provider.

    Args:
        schedule: The pipeline schedule to execute.
        duration_fn: Per-op durations, either as a callable or a mapping.
        comm_time_fn: Optional transfer time between adjacent stages;
            defaults to zero (communication fully overlapped / negligible).
        activation_bytes: Optional ``[microbatch][stage]`` activation sizes
            for memory accounting.
        static_bytes: Optional per-device static memory.

    Returns:
        A :class:`SimulationResult`.

    Raises:
        SimulationError: If the schedule's dependencies are unsatisfiable,
            an op appears twice, or a micro-batch index is negative.
    """
    num_stages = schedule.num_stages
    sequences = [
        [(op.microbatch << 1) | (op.op_type is OpType.FORWARD) for op in stage.ops]
        for stage in schedule.stages
    ]
    _check_sequences(num_stages, sequences)
    costs = _gather_costs(schedule, duration_fn, comm_time_fn)
    if activation_bytes is not None:
        activation_bytes = np.asarray(activation_bytes, dtype=np.float64).tolist()
    timeline = walk_timeline(num_stages, sequences, costs, activation_bytes, static_bytes)
    _STATS["vector_simulations"] += 1
    _publish(
        "simulation",
        engine="vector",
        num_stages=num_stages,
        makespan_ms=timeline.makespan_ms,
    )
    return timeline.result(schedule.all_ops, timeline.peak_bytes)
