"""Incremental re-simulation of one replica's injection orders.

The planner evaluates the *same* micro-batches under many injection orders:
the identity order for the feasibility check, every candidate of the order
search (§5), and the chosen order for the plan.  Two observations avoid
rebuilding and re-simulating the schedule each time:

* **Slot relabeling.** Cyclic scheduling decisions depend only on the
  activation *values* presented, so scheduling micro-batches in injection
  order ``P`` is isomorphic to scheduling *slots* ``0..M-1`` in identity
  order over the permuted activation rows ``A[P]`` — slot ``k`` stands for
  micro-batch ``P[k]``.  Each order therefore only needs the lean
  slot-level scheduler (:func:`~repro.schedule.cyclic.cyclic_stage_sequences`)
  plus array gathers to map slot-indexed geometry onto real micro-batch
  durations, comm times and activations.

* **Geometry reuse.** With ample memory every order produces the same slot
  structure, so compiling the dependency DAG into a
  :class:`~repro.simulator.compiled.CompiledTimeline` happens once and each
  order is a pure re-solve.  Memory-gated schedules can fork into a handful
  of distinct structures; each is compiled at most once.  The 1F1B
  schedule is one fixed slot structure
  (:func:`~repro.schedule.one_f_one_b.one_f_one_b_stage_sequences`, passed
  as ``stage_sequences``), so all its orders share one geometry.

Evaluations are cached, so the chosen order's schedule and
:class:`~repro.simulator.engine.SimulationResult` are read off its solve
(:meth:`IncrementalOrderSimulator.simulation`).  Everything is
bit-identical to building the schedule with ``injection_order=P`` and
running :func:`~repro.simulator.engine.simulate_schedule` on it: the
same scheduler core emits the op order and the same solver times it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.schedule.cyclic import ScheduleDeadlockError, cyclic_stage_sequences
from repro.schedule.events import PipelineSchedule
from repro.simulator.compiled import COMM_ACT, COMM_GRAD, CompiledTimeline, TimelineSolution
from repro.simulator.engine import SimulationResult, timeline_result


@dataclass
class OrderEvaluation:
    """One solved injection order: slot ``k`` of ``timeline`` is micro-batch
    ``permutation[k]``; the peaks include static memory, and ``feasible``
    says whether they fit the device (always true without a capacity)."""

    permutation: np.ndarray
    timeline: CompiledTimeline
    solution: TimelineSolution
    peak_activation_bytes: list[float]
    feasible: bool


class IncrementalOrderSimulator:
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
        self._evaluations: dict[tuple[int, ...], OrderEvaluation] = {}
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

    def evaluate(self, order: Sequence[int]) -> OrderEvaluation:
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
        evaluation = OrderEvaluation(
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
