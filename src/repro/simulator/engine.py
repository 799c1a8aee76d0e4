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

The engine compiles the schedule into a
:class:`~repro.simulator.compiled.CompiledTimeline` — flat numpy arrays plus
a precomputed dependency index — and solves it op by op in a topological
order of the dependency DAG.  Compiled geometries are cached by schedule structure, so
re-simulating the same geometry (order search, fleet iterations with
unchanged plans) skips compilation entirely.  A schedule that lists an op
twice or uses a negative micro-batch index is rejected with
:class:`~repro.simulator.compiled.SimulationError`.

The result contains the full timeline (used for safety-stock analysis and
communication planning), the makespan, per-device idle time and the peak
activation memory per device.  ``op_times`` and ``trace`` are materialized
lazily from the solver arrays on first access; :func:`timeline_result`
wraps any solve of a compiled timeline the same way.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.obs.events import publish as _publish
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule
from repro.simulator.compiled import (
    _STATS,
    CompiledTimeline,
    SimulationError,
    TimelineSolution,
    engine_stats,
    reset_engine_stats,
)
from repro.simulator.trace import ExecutionTrace, TraceEvent

__all__ = [
    "CommTimeFn",
    "DurationFn",
    "SimulationError",
    "SimulationResult",
    "compile_schedule",
    "engine_stats",
    "reset_engine_stats",
    "simulate_schedule",
    "timeline_result",
]

#: Duration provider: maps a compute op to milliseconds.
DurationFn = Callable[[ComputeOp], float]
#: Communication time provider: (microbatch, from_stage, to_stage, is_gradient) -> ms.
CommTimeFn = Callable[[int, int, int, bool], float]


class SimulationResult:
    """Output of :func:`simulate_schedule`.

    Attributes:
        op_times: Mapping from compute op to its (start, end) time in ms.
        makespan_ms: Completion time of the last op.
        device_busy_ms: Total compute time per device.
        device_idle_ms: Idle (bubble) time per device within the makespan.
        peak_activation_bytes: Peak activation memory per device (excludes
            static memory unless the caller passes it via the tracker).
        trace: Flat execution trace for rendering / export.

    ``op_times`` may be built lazily from the solver's arrays (``materialize``)
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


def timeline_result(
    ops: Callable[[], Iterable[ComputeOp]],
    timeline: CompiledTimeline,
    solution: TimelineSolution,
    peak_activation_bytes: list[float],
) -> SimulationResult:
    """Wrap one solve of ``timeline`` as a :class:`SimulationResult`.

    ``ops()`` yields the compute ops in op-id (stage-major) order; it is
    only called when ``op_times`` is first read.
    """
    starts, ends = solution.starts, solution.ends
    busy, idle = timeline.device_busy_idle(starts, ends, solution.makespan_ms)
    return SimulationResult(
        makespan_ms=solution.makespan_ms,
        device_busy_ms=busy,
        device_idle_ms=idle,
        peak_activation_bytes=peak_activation_bytes,
        materialize=lambda: dict(zip(ops(), zip(starts.tolist(), ends.tolist()))),
    )


# ---------------------------------------------------------------- geometry cache

_GEOMETRY_CACHE: OrderedDict[tuple, CompiledTimeline] = OrderedDict()
_GEOMETRY_CACHE_MAX = 128


def _structure_signature(schedule: PipelineSchedule) -> tuple:
    """Hashable key for the schedule's geometry (per-stage op sequences)."""
    parts = []
    for stage_schedule in schedule.stages:
        encoded = np.fromiter(
            (
                (op.microbatch << 1) | (op.op_type is OpType.FORWARD)
                for op in stage_schedule.ops
            ),
            dtype=np.int64,
            count=len(stage_schedule.ops),
        )
        parts.append(encoded.tobytes())
    return tuple(parts)


def compile_schedule(schedule: PipelineSchedule) -> CompiledTimeline:
    """Compile ``schedule`` into a :class:`CompiledTimeline`, with caching.

    Two cache layers avoid recompilation: the compiled timeline is attached
    to the schedule object itself (same-object re-simulation, e.g. repeated
    fleet iterations over one plan), and a process-wide LRU keyed by the
    schedule *structure* catches structurally identical schedules built
    fresh each iteration.
    """
    cached = getattr(schedule, "_compiled_timeline", None)
    if cached is not None:
        _STATS["geometry_cache_hits"] += 1
        return cached
    signature = _structure_signature(schedule)
    timeline = _GEOMETRY_CACHE.get(signature)
    if timeline is not None:
        _GEOMETRY_CACHE.move_to_end(signature)
        _STATS["geometry_cache_hits"] += 1
    else:
        timeline = CompiledTimeline.from_schedule(schedule)
        _GEOMETRY_CACHE[signature] = timeline
        while len(_GEOMETRY_CACHE) > _GEOMETRY_CACHE_MAX:
            _GEOMETRY_CACHE.popitem(last=False)
    schedule._compiled_timeline = timeline  # cheap same-object memoization
    return timeline


def clear_geometry_cache() -> None:
    """Drop all cached compiled geometries (used by tests)."""
    _GEOMETRY_CACHE.clear()


# ---------------------------------------------------------------- simulation


def simulate_schedule(
    schedule: PipelineSchedule,
    duration_fn: DurationFn | Mapping[ComputeOp, float],
    comm_time_fn: CommTimeFn | None = None,
    activation_bytes: Sequence[Sequence[float]] | None = None,
    static_bytes: Sequence[float] | None = None,
) -> SimulationResult:
    """Simulate ``schedule`` and return its timeline.

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
    timeline = compile_schedule(schedule)
    durations = timeline.durations_from(duration_fn, schedule)
    comm = timeline.comm_from(comm_time_fn) if comm_time_fn is not None else None
    solution = timeline.solve(durations, comm)
    if activation_bytes is not None:
        peaks = timeline.peak_activation(activation_bytes, static_bytes)
    else:
        peaks = [
            (static_bytes[j] if static_bytes else 0.0) for j in range(schedule.num_stages)
        ]
    _STATS["vector_simulations"] += 1
    _publish(
        "simulation",
        engine="vector",
        num_stages=schedule.num_stages,
        makespan_ms=solution.makespan_ms,
    )
    return timeline_result(schedule.all_ops, timeline, solution, peaks)
