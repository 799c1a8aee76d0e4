"""Cyclic (adaptive) scheduling — Algorithm 1 of the paper.

Under cyclic scheduling each device tries to execute exactly one backward
and one forward pass per cycle, drawing from per-device buffers of *ready*
ops.  Unlike 1F1B, which hard-codes the execution order, the cyclic
formulation exposes two control knobs:

* the **injection order** of micro-batches into the first stage's forward
  buffer, and
* a per-device **memory limit** that makes a device skip forward passes
  (delaying the injection/progress of micro-batches) until backward passes
  have freed enough activation memory — this is the "memory-aware" part of
  DynaPipe's adaptive schedule.

This module implements the core algorithm; the planner-facing wrapper that
derives activation sizes and memory limits from the cost model lives in
:mod:`repro.core.adaptive_schedule`.

The slot-level core, :func:`cyclic_stage_sequences`, produces the per-stage
op *order* as plain encoded integers without building
:class:`~repro.schedule.events.ComputeOp` objects.  :func:`cyclic_schedule`
wraps it into a full :class:`~repro.schedule.events.PipelineSchedule`; the
incremental order search (:mod:`repro.simulator.incremental`) consumes the
encoded form directly, so both paths share one implementation by
construction.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.schedule.events import PipelineSchedule


class ScheduleDeadlockError(RuntimeError):
    """Raised when no device can make progress (e.g. a single micro-batch's
    activation exceeds a device's memory limit)."""


def cyclic_stage_sequences(
    num_stages: int,
    activation_bytes: Sequence[Sequence[float]],
    memory_limits: Sequence[float] | None = None,
    injection_order: Sequence[int] | None = None,
) -> list[list[int]]:
    """Run Algorithm 1 and return the per-stage op order in encoded form.

    Args:
        num_stages: Number of pipeline stages ``C``.
        activation_bytes: ``activation_bytes[i][j]`` is the activation memory
            micro-batch ``i`` pins on stage ``j`` between its forward and
            backward pass.  The outer length defines the number of
            micro-batches ``M``.
        memory_limits: Per-stage activation memory limits ``l_j``.  ``None``
            disables the memory check.
        injection_order: Order in which micro-batches enter the first stage's
            forward buffer.  Defaults to ``0..M-1``.

    Returns:
        One list per stage of encoded ops ``(microbatch << 1) | is_forward``,
        in execution order.

    Raises:
        ValueError: If ``injection_order`` is not a permutation of the
            micro-batch indices.
        ScheduleDeadlockError: If a micro-batch can never be scheduled
            because its activation alone exceeds a stage's memory limit.
    """
    num_microbatches = len(activation_bytes)
    if injection_order is None:
        injection_order = range(num_microbatches)
    elif sorted(injection_order) != list(range(num_microbatches)):
        raise ValueError("injection_order must be a permutation of the micro-batch indices")

    # Per-device ready buffers of forward and backward ops (micro-batch ids).
    forward_ready: list[deque[int]] = [deque() for _ in range(num_stages)]
    backward_ready: list[deque[int]] = [deque() for _ in range(num_stages)]
    forward_ready[0].extend(injection_order)
    current_memory = [0.0] * num_stages

    sequences: list[list[int]] = [[] for _ in range(num_stages)]
    remaining_ops = 2 * num_microbatches * num_stages

    while any(forward_ready[j] or backward_ready[j] for j in range(num_stages)):
        newly_forward: list[list[int]] = [[] for _ in range(num_stages)]
        newly_backward: list[list[int]] = [[] for _ in range(num_stages)]
        progressed = False

        for j in range(num_stages):
            # Schedule one backward op if available (frees memory first).
            if backward_ready[j]:
                mb = backward_ready[j].popleft()
                current_memory[j] -= activation_bytes[mb][j]
                sequences[j].append(mb << 1)
                remaining_ops -= 1
                progressed = True
                if j > 0:
                    newly_backward[j - 1].append(mb)

            # Schedule one forward op if available and memory permits.
            if forward_ready[j]:
                mb = forward_ready[j].popleft()
                needed = activation_bytes[mb][j]
                limit = memory_limits[j] if memory_limits is not None else float("inf")
                if current_memory[j] + needed <= limit:
                    current_memory[j] += needed
                    sequences[j].append((mb << 1) | 1)
                    remaining_ops -= 1
                    progressed = True
                    if j < num_stages - 1:
                        newly_forward[j + 1].append(mb)
                    else:
                        newly_backward[j].append(mb)
                else:
                    # Put it back at the head of the buffer and retry later.
                    forward_ready[j].appendleft(mb)

        unlocked = any(newly_forward[j] or newly_backward[j] for j in range(num_stages))
        if not progressed and not unlocked:
            raise ScheduleDeadlockError(
                "cyclic scheduling cannot make progress: a micro-batch's activation "
                "memory exceeds a stage's memory limit"
            )

        for j in range(num_stages):
            forward_ready[j].extend(newly_forward[j])
            backward_ready[j].extend(newly_backward[j])

    if remaining_ops:
        raise RuntimeError(f"cyclic scheduling terminated with {remaining_ops} unscheduled ops")
    return sequences


def cyclic_schedule(
    num_stages: int,
    activation_bytes: Sequence[Sequence[float]],
    memory_limits: Sequence[float] | None = None,
    injection_order: Sequence[int] | None = None,
    name: str = "adaptive",
) -> PipelineSchedule:
    """Run Algorithm 1 and return the resulting per-stage op order.

    Args:
        num_stages: Number of pipeline stages ``C``.
        activation_bytes: ``activation_bytes[i][j]`` is the activation memory
            micro-batch ``i`` pins on stage ``j`` between its forward and
            backward pass.  The outer length defines the number of
            micro-batches ``M``.
        memory_limits: Per-stage activation memory limits ``l_j``.  ``None``
            disables the memory check (plain cyclic scheduling, equivalent to
            injecting micro-batches as fast as dependencies allow).
        injection_order: Order in which micro-batches enter the first stage's
            forward buffer.  Defaults to ``0..M-1``.
        name: Name recorded on the returned schedule.

    Returns:
        A :class:`~repro.schedule.events.PipelineSchedule`.

    Raises:
        ScheduleDeadlockError: If a micro-batch can never be scheduled
            because its activation alone exceeds a stage's memory limit.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    num_microbatches = len(activation_bytes)
    if num_microbatches < 1:
        raise ValueError("at least one micro-batch is required")
    for i, row in enumerate(activation_bytes):
        if len(row) != num_stages:
            raise ValueError(
                f"activation_bytes[{i}] has {len(row)} entries, expected {num_stages}"
            )
    if memory_limits is not None and len(memory_limits) != num_stages:
        raise ValueError(
            f"memory_limits has {len(memory_limits)} entries, expected {num_stages}"
        )

    sequences = cyclic_stage_sequences(
        num_stages, activation_bytes, memory_limits, injection_order
    )
    return PipelineSchedule.from_stage_sequences(sequences, num_microbatches, name)
