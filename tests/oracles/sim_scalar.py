"""Scalar pipeline simulator: the timeline walk's bit-identity oracle.

This is the original per-op Python event loop behind
:func:`repro.simulator.engine.simulate_schedule`, before the compiled
timeline and then the timeline walk replaced it.  It resolves the same
timing recurrence one op at a time, in the same operand order, with op
objects and a memory tracker, so the equivalence suites compare the two
bit-for-bit (op start/end times, makespan, busy/idle time, peak activation
memory).  It lives in ``tests/`` because nothing in the library selects it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.schedule.events import ComputeOp, OpType, PipelineSchedule
from repro.simulator.engine import CommTimeFn, DurationFn, SimulationError, SimulationResult
from repro.simulator.memory_tracker import MemoryTracker
from repro.simulator.trace import ExecutionTrace, TraceEvent


def _zero_comm_time(microbatch: int, src: int, dst: int, is_gradient: bool) -> float:
    return 0.0


def _cross_stage_dependency(op: ComputeOp, num_stages: int) -> ComputeOp | None:
    """The op whose completion ``op`` waits for across stages (None for the
    pipeline entry: a forward pass on stage 0)."""
    if op.op_type is OpType.FORWARD:
        if op.stage == 0:
            return None
        return ComputeOp(op.microbatch, op.stage - 1, OpType.FORWARD)
    if op.stage == num_stages - 1:
        return ComputeOp(op.microbatch, op.stage, OpType.FORWARD)
    return ComputeOp(op.microbatch, op.stage + 1, OpType.BACKWARD)


def _no_progress_error(
    schedule: PipelineSchedule, pointers: list[int], num_stages: int
) -> SimulationError:
    """Build a diagnostic naming the first blocked op and its unmet dependency."""
    blocked = [
        schedule.stage(j).ops[pointers[j]]
        for j in range(num_stages)
        if pointers[j] < len(schedule.stage(j).ops)
    ]
    first = min(blocked, key=lambda op: op.stage)
    dependency = _cross_stage_dependency(first, num_stages)
    if dependency is None:  # pragma: no cover - entry ops are always runnable
        return SimulationError("simulation cannot make progress")
    if dependency in set(schedule.all_ops()):
        why = "cannot execute (circular or misordered schedule dependencies)"
    else:
        why = "never appears in the schedule"
    return SimulationError(
        f"simulation cannot make progress: {first} is blocked waiting for "
        f"{dependency}, which {why}"
    )


def simulate_schedule_scalar(
    schedule: PipelineSchedule,
    duration_fn: DurationFn | Mapping[ComputeOp, float],
    comm_time_fn: CommTimeFn | None = None,
    activation_bytes: Sequence[Sequence[float]] | None = None,
    static_bytes: Sequence[float] | None = None,
) -> SimulationResult:
    """Reference per-op event-loop engine (the timeline walk's oracle)."""
    if isinstance(duration_fn, Mapping):
        durations: Mapping[ComputeOp, float] = duration_fn
        duration = lambda op: durations[op]  # noqa: E731 - small adapter
    else:
        duration = duration_fn
    comm_time = comm_time_fn or _zero_comm_time

    num_stages = schedule.num_stages
    op_times: dict[ComputeOp, tuple[float, float]] = {}
    pointers = [0] * num_stages
    device_clock = [0.0] * num_stages
    busy = [0.0] * num_stages
    trackers = [
        MemoryTracker(static_bytes=(static_bytes[j] if static_bytes else 0.0))
        for j in range(num_stages)
    ]
    trace = ExecutionTrace()

    def dependency_ready_time(op: ComputeOp) -> float | None:
        """Earliest time the cross-stage dependency of ``op`` is satisfied,
        or None if the dependency has not been simulated yet."""
        if op.op_type is OpType.FORWARD:
            if op.stage == 0:
                return 0.0
            dep = ComputeOp(op.microbatch, op.stage - 1, OpType.FORWARD)
            if dep not in op_times:
                return None
            return op_times[dep][1] + comm_time(op.microbatch, op.stage - 1, op.stage, False)
        if op.stage == num_stages - 1:
            dep = ComputeOp(op.microbatch, op.stage, OpType.FORWARD)
            if dep not in op_times:
                return None
            return op_times[dep][1]
        dep = ComputeOp(op.microbatch, op.stage + 1, OpType.BACKWARD)
        if dep not in op_times:
            return None
        return op_times[dep][1] + comm_time(op.microbatch, op.stage + 1, op.stage, True)

    total_ops = schedule.total_ops()
    scheduled = 0
    while scheduled < total_ops:
        progressed = False
        for stage in range(num_stages):
            stage_ops = schedule.stage(stage).ops
            while pointers[stage] < len(stage_ops):
                op = stage_ops[pointers[stage]]
                ready = dependency_ready_time(op)
                if ready is None:
                    break
                start = max(device_clock[stage], ready)
                end = start + max(duration(op), 0.0)
                op_times[op] = (start, end)
                device_clock[stage] = end
                busy[stage] += end - start
                pointers[stage] += 1
                scheduled += 1
                progressed = True
                if activation_bytes is not None:
                    if op.op_type is OpType.FORWARD:
                        trackers[stage].allocate(op.microbatch, activation_bytes[op.microbatch][stage])
                    else:
                        trackers[stage].free(op.microbatch)
                trace.add(
                    TraceEvent(
                        device=stage,
                        name=f"{op.op_type.value}{op.microbatch}",
                        start_ms=start,
                        end_ms=end,
                        category="compute",
                        microbatch=op.microbatch,
                    )
                )
        if not progressed:
            raise _no_progress_error(schedule, pointers, num_stages)

    makespan = max((end for _, end in op_times.values()), default=0.0)
    idle = [max(makespan - busy[j], 0.0) for j in range(num_stages)]
    peaks = [trackers[j].peak_bytes for j in range(num_stages)]
    return SimulationResult(
        op_times=op_times,
        makespan_ms=makespan,
        device_busy_ms=busy,
        device_idle_ms=idle,
        peak_activation_bytes=peaks,
        trace=trace,
    )
