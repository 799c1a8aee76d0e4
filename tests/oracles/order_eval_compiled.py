"""Per-order compiled evaluation: the order walk's bit-identity oracle.

This is the injection-order scorer that
:class:`repro.simulator.incremental.IncrementalOrderSimulator` replaced with
one timed pass of Algorithm 1.  Each order runs the slot-level cyclic
scheduler on the permuted numpy activation rows, compiles the resulting slot
structure into a :class:`~oracles.compiled_timeline.CompiledTimeline` (once per
distinct structure), gathers the real micro-batch durations and comm times
onto it, solves it and walks its peak activation memory.  It keeps its own
copy of the ready-buffer loop, so the equivalence suite checks the walk's
slot sequences and deadlock verdicts against an independent implementation.
It lives in ``tests/`` because nothing in the library selects it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.schedule.cyclic import ScheduleDeadlockError
from repro.schedule.events import PipelineSchedule
from repro.simulator.engine import SimulationResult

from oracles.compiled_timeline import (
    COMM_ACT,
    COMM_GRAD,
    CompiledTimeline,
    TimelineSolution,
    timeline_result,
)


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


@dataclass
class CompiledOrderEvaluation:
    """One solved injection order: slot ``k`` of ``timeline`` is micro-batch
    ``permutation[k]``; the peaks include static memory, and ``feasible``
    says whether they fit the device (always true without a capacity)."""

    permutation: np.ndarray
    timeline: CompiledTimeline
    solution: TimelineSolution
    peak_activation_bytes: list[float]
    feasible: bool


class CompiledOrderSimulator:
    """Evaluates injection orders of one replica against compiled geometry.

    All inputs are indexed by *micro-batch id* and pipeline stage:

    Args:
        num_stages: Number of pipeline stages ``C``.
        activation_bytes: ``(M, C)`` activation footprint matrix.
        forward_ms / backward_ms: ``(M, C)`` per-op duration matrices.
        act_comm_ms: ``(M, C)`` activation transfer times; entry ``[i, j]``
            is the cost of sending micro-batch ``i``'s activations from
            stage ``j`` to ``j + 1`` (column ``C - 1`` unused).
        grad_comm_ms: ``(M, C)`` gradient transfer times; entry ``[i, j]``
            is the cost of sending micro-batch ``i``'s gradients from stage
            ``j`` to ``j - 1`` (column ``0`` unused).
        memory_limits: Optional per-stage limits for memory-aware scheduling.
        static_bytes: Optional per-stage static memory.
        device_memory_bytes: Optional per-device capacity; orders whose peak
            memory exceeds it are infeasible and score ``inf``, matching the
            planner's feasibility rule.
        stage_sequences: Optional fixed per-stage slot sequences in the
            encoded form (the 1F1B schedule); ``None`` derives each order's
            sequences by cyclic scheduling.
    """

    def __init__(
        self,
        num_stages: int,
        activation_bytes: np.ndarray,
        forward_ms: np.ndarray,
        backward_ms: np.ndarray,
        act_comm_ms: np.ndarray,
        grad_comm_ms: np.ndarray,
        memory_limits: Sequence[float] | None = None,
        static_bytes: Sequence[float] | None = None,
        device_memory_bytes: float | None = None,
        stage_sequences: list[list[int]] | None = None,
    ) -> None:
        self.num_stages = num_stages
        self.activation_bytes = np.asarray(activation_bytes, dtype=np.float64)
        self.forward_ms = np.asarray(forward_ms, dtype=np.float64)
        self.backward_ms = np.asarray(backward_ms, dtype=np.float64)
        self.act_comm_ms = np.asarray(act_comm_ms, dtype=np.float64)
        self.grad_comm_ms = np.asarray(grad_comm_ms, dtype=np.float64)
        self.memory_limits = list(memory_limits) if memory_limits is not None else None
        self.static_bytes = list(static_bytes) if static_bytes is not None else None
        self.device_memory_bytes = device_memory_bytes
        self.stage_sequences = stage_sequences
        self._geometries: dict[tuple, CompiledTimeline] = {}
        self._evaluations: dict[tuple[int, ...], CompiledOrderEvaluation] = {}
        #: Number of distinct slot structures compiled so far.
        self.compiles = 0
        #: Number of timeline solves (one per evaluated order).
        self.solves = 0

    def _geometry_for(self, sequences: list[list[int]]) -> CompiledTimeline:
        key = tuple(np.asarray(seq, dtype=np.int64).tobytes() for seq in sequences)
        timeline = self._geometries.get(key)
        if timeline is None:
            timeline = CompiledTimeline.from_stage_sequences(self.num_stages, sequences)
            self._geometries[key] = timeline
            self.compiles += 1
        return timeline

    def evaluate(self, order: Sequence[int]) -> CompiledOrderEvaluation:
        """Schedule, solve and memory-check ``order`` (one timeline solve).

        Raises:
            ScheduleDeadlockError: If cyclic scheduling cannot place every
                op under the memory limits.
        """
        permutation = np.asarray(order, dtype=np.int64)
        permuted_activation = self.activation_bytes[permutation]
        sequences = self.stage_sequences
        if sequences is None:
            sequences = cyclic_stage_sequences(
                self.num_stages, permuted_activation, self.memory_limits
            )
        timeline = self._geometry_for(sequences)

        # Map slot-indexed geometry onto real micro-batch ids.
        microbatch = permutation[timeline.op_microbatch]
        stage = timeline.op_stage
        durations = np.where(
            timeline.op_is_forward,
            self.forward_ms[microbatch, stage],
            self.backward_ms[microbatch, stage],
        )
        comm = np.zeros(timeline.num_ops, dtype=np.float64)
        act_edges = np.flatnonzero(timeline.comm_kind == COMM_ACT)
        grad_edges = np.flatnonzero(timeline.comm_kind == COMM_GRAD)
        comm[act_edges] = self.act_comm_ms[microbatch[act_edges], stage[act_edges] - 1]
        comm[grad_edges] = self.grad_comm_ms[microbatch[grad_edges], stage[grad_edges] + 1]

        solution = timeline.solve(durations, comm)
        self.solves += 1
        peaks = timeline.peak_activation(permuted_activation, self.static_bytes)
        capacity = self.device_memory_bytes
        evaluation = CompiledOrderEvaluation(
            permutation=permutation,
            timeline=timeline,
            solution=solution,
            peak_activation_bytes=peaks,
            feasible=capacity is None
            or all(peak <= capacity * (1.0 + 1e-9) for peak in peaks),
        )
        self._evaluations[tuple(permutation.tolist())] = evaluation
        return evaluation

    def score(self, order: Sequence[int]) -> float:
        """Makespan of ``order`` (``inf`` when infeasible or deadlocked)."""
        try:
            evaluation = self.evaluate(order)
        except ScheduleDeadlockError:
            return float("inf")
        return evaluation.solution.makespan_ms if evaluation.feasible else float("inf")

    def simulation(
        self, order: Sequence[int], name: str
    ) -> tuple[PipelineSchedule, SimulationResult]:
        """The schedule and timeline of ``order``, read off its evaluation.

        Reuses the cached evaluation when ``order`` was already evaluated
        (no further solve), so the search's solve of the chosen order
        becomes the plan's timeline.  Equal to
        ``cyclic_schedule(..., injection_order=order, name=name)`` (or the
        1F1B schedule) and :func:`~repro.simulator.engine.simulate_schedule`
        on it.
        """
        evaluation = self._evaluations.get(tuple(int(i) for i in order))
        if evaluation is None:
            evaluation = self.evaluate(order)
        timeline = evaluation.timeline
        encoded = (
            (evaluation.permutation[timeline.op_microbatch] << 1) | timeline.op_is_forward
        ).tolist()
        offsets = timeline.stage_offsets.tolist()
        schedule = PipelineSchedule.from_stage_sequences(
            [encoded[offsets[stage] : offsets[stage + 1]] for stage in range(self.num_stages)],
            len(evaluation.permutation),
            name,
        )
        return schedule, timeline_result(
            schedule.all_ops, timeline, evaluation.solution, evaluation.peak_activation_bytes
        )
