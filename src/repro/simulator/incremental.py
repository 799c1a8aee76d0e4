"""Incremental re-simulation of one replica's injection orders.

The planner evaluates the *same* micro-batches under many injection orders:
the identity order for the feasibility check, every candidate of the order
search (§5), and the chosen order for the plan.

* **One timed walk per cyclic order.** Algorithm 1 emits ops only after
  their dependencies, so its ready-buffer loop
  (:func:`~repro.schedule.cyclic.cyclic_walk`) times every op and tracks
  each stage's peak memory as it places it, with
  :meth:`~repro.simulator.compiled.CompiledTimeline.solve`'s arithmetic.
  A searched order costs one pass over per-replica float rows: no
  dependency arrays, no topological sort, no compiled geometry.
* **One geometry for 1F1B.** Its fixed slot sequences
  (:func:`~repro.schedule.one_f_one_b.one_f_one_b_stage_sequences`, passed
  as ``stage_sequences``; slot ``k`` holds micro-batch ``P[k]`` of order
  ``P``) are compiled once; each order is a re-solve.

Evaluations are cached, and only the chosen order is compiled and solved,
once, for the plan's timeline (:meth:`IncrementalOrderSimulator.simulation`).
Everything is bit-identical to building the schedule with
``injection_order=P`` and running
:func:`~repro.simulator.engine.simulate_schedule` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.schedule.cyclic import OpCosts, ScheduleDeadlockError, cyclic_walk
from repro.schedule.events import PipelineSchedule
from repro.simulator.compiled import COMM_ACT, COMM_GRAD, CompiledTimeline, TimelineSolution
from repro.simulator.engine import SimulationResult, timeline_result


@dataclass
class OrderEvaluation:
    """One scored injection order: its per-stage op order (encoded
    ``(microbatch << 1) | is_forward``), makespan, peaks including static
    memory, and whether they fit the device (always, without a capacity)."""

    permutation: list[int]
    sequences: list[list[int]]
    makespan_ms: float
    peak_activation_bytes: list[float]
    feasible: bool


class IncrementalOrderSimulator:
    """Evaluates injection orders of one replica.

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
        self._evaluations: dict[tuple[int, ...], OrderEvaluation] = {}
        if stage_sequences is None:
            # The walk's float rows; durations clamped as the solve clamps.
            self._activation_rows = self.activation_bytes.tolist()
            self._costs = OpCosts(
                np.maximum(self.forward_ms, 0.0).tolist(),
                np.maximum(self.backward_ms, 0.0).tolist(),
                self.act_comm_ms.tolist(),
                self.grad_comm_ms.tolist(),
            )
            self._timeline = None
        else:
            self._timeline = CompiledTimeline.from_stage_sequences(num_stages, stage_sequences)

    def _solve(self, timeline: CompiledTimeline, microbatch: np.ndarray) -> TimelineSolution:
        """Solve ``timeline`` whose op ``i`` runs micro-batch ``microbatch[i]``."""
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
        return timeline.solve(durations, comm)

    def evaluate(self, order: Sequence[int]) -> OrderEvaluation:
        """Schedule, time and memory-check ``order``.

        Raises:
            ScheduleDeadlockError: If cyclic scheduling cannot place every
                op under the memory limits.
        """
        permutation = [int(i) for i in order]
        if self._timeline is None:
            sequences, makespan, peaks = cyclic_walk(
                self.num_stages, self._activation_rows, self.memory_limits, permutation,
                self._costs, self.static_bytes,
            )
        else:
            slots = np.asarray(permutation, dtype=np.int64)
            timeline = self._timeline
            makespan = self._solve(timeline, slots[timeline.op_microbatch]).makespan_ms
            peaks = timeline.peak_activation(self.activation_bytes[slots], self.static_bytes)
            sequences = [
                [(permutation[encoded >> 1] << 1) | (encoded & 1) for encoded in sequence]
                for sequence in self.stage_sequences
            ]
        capacity = self.device_memory_bytes
        evaluation = OrderEvaluation(
            permutation=permutation,
            sequences=sequences,
            makespan_ms=makespan,
            peak_activation_bytes=peaks,
            feasible=capacity is None
            or all(peak <= capacity * (1.0 + 1e-9) for peak in peaks),
        )
        self._evaluations[tuple(permutation)] = evaluation
        return evaluation

    def score(self, order: Sequence[int]) -> float:
        """Makespan of ``order`` (``inf`` when infeasible or deadlocked)."""
        try:
            evaluation = self.evaluate(order)
        except ScheduleDeadlockError:
            return float("inf")
        return evaluation.makespan_ms if evaluation.feasible else float("inf")

    def simulation(
        self, order: Sequence[int], name: str
    ) -> tuple[PipelineSchedule, SimulationResult]:
        """The schedule and timeline of ``order``.

        Reuses the cached evaluation when ``order`` was already evaluated,
        then compiles (cyclic kinds) and solves its op sequences once.
        Equal to ``cyclic_schedule(..., injection_order=order, name=name)``
        (or the 1F1B schedule) and
        :func:`~repro.simulator.engine.simulate_schedule` on it.
        """
        evaluation = self._evaluations.get(tuple(int(i) for i in order))
        if evaluation is None:
            evaluation = self.evaluate(order)
        if self._timeline is None:
            timeline = CompiledTimeline.from_stage_sequences(
                self.num_stages, evaluation.sequences
            )
            microbatch = timeline.op_microbatch
        else:
            timeline = self._timeline
            microbatch = np.asarray(evaluation.permutation)[timeline.op_microbatch]
        solution = self._solve(timeline, microbatch)
        schedule = PipelineSchedule.from_stage_sequences(
            evaluation.sequences, len(evaluation.permutation), name
        )
        return schedule, timeline_result(
            schedule.all_ops, timeline, solution, evaluation.peak_activation_bytes
        )
