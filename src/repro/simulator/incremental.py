"""Incremental re-simulation for the injection-order search.

The planner's order search scores dozens of injection-order permutations of
the *same* micro-batches.  The legacy path rebuilt the full cyclic schedule
(ComputeOp objects) and re-ran the whole simulation per permutation.  This
module exploits two observations:

* **Slot relabeling.** Cyclic scheduling decisions depend only on the
  activation *values* presented, so scheduling micro-batches in injection
  order ``P`` is isomorphic to scheduling *slots* ``0..M-1`` in identity
  order over the permuted activation rows ``A[P]`` — slot ``k`` stands for
  micro-batch ``P[k]``.  Each permutation therefore only needs the lean
  slot-level scheduler (:func:`~repro.schedule.cyclic.cyclic_stage_sequences`)
  plus array gathers to map slot-indexed geometry onto real micro-batch
  durations, comm times and activations.

* **Geometry reuse.** With ample memory every permutation produces the same
  slot structure, so the expensive part — compiling the dependency DAG into
  a :class:`~repro.simulator.compiled.CompiledTimeline` — happens once and
  each permutation is a pure array re-solve.  Memory-gated schedules can
  fork into a handful of distinct structures; each is compiled at most once
  (keyed by the encoded slot sequences).

The produced scores are bit-identical to the legacy build-and-simulate path:
the same scheduler core emits the op order, and both paths solve with the
same compiled solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.schedule.cyclic import ScheduleDeadlockError, cyclic_stage_sequences
from repro.simulator.compiled import COMM_ACT, COMM_GRAD, CompiledTimeline


@dataclass
class _Geometry:
    """One compiled slot structure plus precomputed gather indices."""

    timeline: CompiledTimeline
    act_edges: np.ndarray  # op ids whose dependency edge carries activations
    grad_edges: np.ndarray  # op ids whose dependency edge carries gradients


class IncrementalOrderSimulator:
    """Scores injection orders against compiled schedule geometry.

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
        device_memory_bytes: Optional per-device capacity; permutations whose
            peak memory exceeds it score ``inf`` (infeasible), matching the
            planner's feasibility rule.
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
        self._geometries: dict[tuple, _Geometry] = {}
        #: Number of distinct slot structures compiled so far.
        self.compiles = 0
        #: Number of timeline solves (one per scored permutation).
        self.solves = 0

    def _geometry_for(self, sequences: list[list[int]]) -> _Geometry:
        key = tuple(np.asarray(seq, dtype=np.int64).tobytes() for seq in sequences)
        geometry = self._geometries.get(key)
        if geometry is None:
            timeline = CompiledTimeline.from_stage_sequences(self.num_stages, sequences)
            geometry = _Geometry(
                timeline=timeline,
                act_edges=np.flatnonzero(timeline.comm_kind == COMM_ACT),
                grad_edges=np.flatnonzero(timeline.comm_kind == COMM_GRAD),
            )
            self._geometries[key] = geometry
            self.compiles += 1
        return geometry

    def score(self, order: Sequence[int]) -> float:
        """Makespan of ``order`` (``inf`` when infeasible or deadlocked).

        Bit-identical to building the cyclic schedule with
        ``injection_order=order`` and running the simulation engine on it.
        """
        permutation = np.asarray(order, dtype=np.int64)
        permuted_activation = self.activation_bytes[permutation]
        try:
            sequences = cyclic_stage_sequences(
                self.num_stages, permuted_activation, self.memory_limits
            )
        except ScheduleDeadlockError:
            return float("inf")
        geometry = self._geometry_for(sequences)
        timeline = geometry.timeline

        # Map slot-indexed geometry onto real micro-batch ids.
        microbatch = permutation[timeline.op_microbatch]
        stage = timeline.op_stage
        durations = np.where(
            timeline.op_is_forward,
            self.forward_ms[microbatch, stage],
            self.backward_ms[microbatch, stage],
        )
        comm = np.zeros(timeline.num_ops, dtype=np.float64)
        act_edges, grad_edges = geometry.act_edges, geometry.grad_edges
        comm[act_edges] = self.act_comm_ms[microbatch[act_edges], stage[act_edges] - 1]
        comm[grad_edges] = self.grad_comm_ms[microbatch[grad_edges], stage[grad_edges] + 1]

        solution = timeline.solve(durations, comm)
        self.solves += 1

        if self.device_memory_bytes is not None:
            peaks = timeline.peak_activation(permuted_activation, self.static_bytes)
            if any(peak > self.device_memory_bytes * (1.0 + 1e-9) for peak in peaks):
                return float("inf")
        return solution.makespan_ms
