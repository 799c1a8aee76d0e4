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

The one ready-buffer loop, :func:`cyclic_walk`, can also time every op as
it places it: Alg. 1 emits ops only after their dependencies, a topological
order.  The order search (:mod:`repro.simulator.incremental`) scores each
injection order with one such walk; :func:`cyclic_schedule` is the walk
without costs.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from repro.schedule.events import PipelineSchedule


class ScheduleDeadlockError(RuntimeError):
    """Raised when no device can make progress (e.g. a single micro-batch's
    activation exceeds a device's memory limit)."""


class OpCosts(NamedTuple):
    """``[microbatch][stage]`` rows: op durations (added as given, so callers
    clamp), and transfer times from stage ``j`` to ``j + 1`` (activations)
    and to ``j - 1`` (gradients)."""

    forward_ms: Sequence[Sequence[float]]
    backward_ms: Sequence[Sequence[float]]
    act_comm_ms: Sequence[Sequence[float]]
    grad_comm_ms: Sequence[Sequence[float]]


class CyclicWalk(NamedTuple):
    """Per-stage op order (encoded ``(microbatch << 1) | is_forward``), the
    last op's end, and per-stage peak memory (static plus live activations)."""

    sequences: list[list[int]]
    makespan_ms: float
    peak_bytes: list[float]


def cyclic_walk(
    num_stages: int,
    activation_bytes: Sequence[Sequence[float]],
    memory_limits: Sequence[float] | None = None,
    injection_order: Sequence[int] | None = None,
    costs: OpCosts | None = None,
    static_bytes: Sequence[float] | None = None,
) -> CyclicWalk:
    """Run Algorithm 1, timing and memory-checking every op as it is placed.

    An op starts at its cross-stage dependency's end plus the transfer time
    if that beats its device's previous end, else at that end, and ends
    ``duration`` later: :meth:`~repro.simulator.compiled.CompiledTimeline.solve`'s
    arithmetic in a topological order, so the makespan and the peaks are
    bit-identical to compiling the sequences, solving them and walking
    their peak memory.  ``activation_bytes[i][j]`` is the activation
    micro-batch ``i`` pins on stage ``j``; ``memory_limits`` (``None``: no
    check) caps each stage's; ``injection_order`` defaults to ``0..M-1``;
    ``costs=None`` times every op at zero.

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
    if costs is None:
        zeros = [[0.0] * num_stages] * num_microbatches
        costs = OpCosts(zeros, zeros, zeros, zeros)
    forward_ms, backward_ms, act_comm_ms, grad_comm_ms = costs
    limits = list(memory_limits) if memory_limits is not None else [float("inf")] * num_stages

    # Per-device ready buffers of (micro-batch, time its dependency is met).
    forward_ready: list[deque[tuple[int, float]]] = [deque() for _ in range(num_stages)]
    backward_ready: list[deque[tuple[int, float]]] = [deque() for _ in range(num_stages)]
    forward_ready[0].extend((mb, 0.0) for mb in injection_order)
    current_memory = [0.0] * num_stages
    running = [float(static_bytes[j]) if static_bytes else 0.0 for j in range(num_stages)]
    peaks = list(running)
    device_free = [0.0] * num_stages
    sequences: list[list[int]] = [[] for _ in range(num_stages)]
    remaining_ops = 2 * num_microbatches * num_stages
    last = num_stages - 1

    while remaining_ops:
        cycle_start = remaining_ops
        # Ops a cycle unlocks join the buffers only after the cycle.  A
        # backward unlocks an already-visited stage (or its own, after its
        # backward turn), so it is appended at once; a forward unlocks the
        # next stage, so it is carried past that stage's turn.
        carried: tuple[int, float] | None = None
        for j in range(num_stages):
            # Schedule one backward op if available (frees memory first).
            if backward_ready[j]:
                mb, ready = backward_ready[j].popleft()
                needed = activation_bytes[mb][j]
                current_memory[j] -= needed
                running[j] -= needed
                prev = device_free[j]
                end = (ready if ready > prev else prev) + backward_ms[mb][j]
                device_free[j] = end
                sequences[j].append(mb << 1)
                remaining_ops -= 1
                if j > 0:
                    backward_ready[j - 1].append((mb, end + grad_comm_ms[mb][j]))

            # Schedule one forward op if available and memory permits.
            unlocked = None
            if forward_ready[j]:
                mb, ready = forward_ready[j][0]
                needed = activation_bytes[mb][j]
                if current_memory[j] + needed <= limits[j]:
                    forward_ready[j].popleft()
                    current_memory[j] += needed
                    running[j] += needed
                    if running[j] > peaks[j]:
                        peaks[j] = running[j]
                    prev = device_free[j]
                    end = (ready if ready > prev else prev) + forward_ms[mb][j]
                    device_free[j] = end
                    sequences[j].append((mb << 1) | 1)
                    remaining_ops -= 1
                    if j < last:
                        unlocked = (mb, end + act_comm_ms[mb][j])
                    else:
                        backward_ready[j].append((mb, end))
            if carried is not None:
                forward_ready[j].append(carried)
            carried = unlocked

        if remaining_ops == cycle_start:
            raise ScheduleDeadlockError(
                "cyclic scheduling cannot make progress: a micro-batch's activation "
                "memory exceeds a stage's memory limit"
            )

    # A device's ops end in order, so its last end is its latest.
    return CyclicWalk(sequences, max(device_free, default=0.0), peaks)


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

    walk = cyclic_walk(num_stages, activation_bytes, memory_limits, injection_order)
    return PipelineSchedule.from_stage_sequences(walk.sequences, num_microbatches, name)
