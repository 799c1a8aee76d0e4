"""Memory-aware adaptive pipeline scheduling (paper §5, Algorithm 1).

:class:`AdaptiveScheduler` is the planner-facing wrapper around the cyclic
scheduling algorithm: it derives the per-(micro-batch, stage) activation
footprints and the per-stage activation budgets from the cost model, runs
Algorithm 1 (optionally with a caller-supplied injection order from the
micro-batch ordering search), and can also produce the 1F1B schedule for
comparison and for the baselines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.costmodel.cost_model import CostModel
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import cyclic_schedule
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule


class ScheduleKind(str, enum.Enum):
    """Pipeline schedule families supported by the planner."""

    ONE_F_ONE_B = "1f1b"
    """The standard 1F1B schedule (used by the baselines)."""

    ADAPTIVE = "adaptive"
    """Cyclic scheduling with unrestricted injection (max safety stock)."""

    MEMORY_AWARE_ADAPTIVE = "memory-aware-adaptive"
    """Cyclic scheduling with per-stage memory limits (Algorithm 1)."""


@dataclass
class ScheduleBuildResult:
    """A built schedule plus the data needed to simulate or execute it.

    Attributes:
        schedule: The per-stage op order.
        activation_bytes: ``[microbatch][stage]`` activation footprints used
            (and enforced) during scheduling.
        durations: Mapping from compute op to modelled duration in ms.
        memory_limits: Per-stage activation budgets passed to the scheduler
            (``None`` when the schedule kind does not limit memory).
    """

    schedule: PipelineSchedule
    activation_bytes: list[list[float]]
    durations: dict[ComputeOp, float]
    memory_limits: list[float] | None


class AdaptiveScheduler:
    """Builds pipeline schedules for a set of micro-batch shapes.

    Args:
        cost_model: Cost model of the pipeline's stages.
        device_memory_bytes: Usable memory per device; defaults to the cost
            model's device capacity.
    """

    def __init__(self, cost_model: CostModel, device_memory_bytes: float | None = None) -> None:
        self.cost_model = cost_model
        self.device_memory_bytes = (
            device_memory_bytes
            if device_memory_bytes is not None
            else cost_model.device_spec.memory_capacity
        )

    # ------------------------------------------------------------------ inputs

    def activation_matrix(
        self, shapes: Sequence[MicroBatchShape], recompute: RecomputeMode
    ) -> list[list[float]]:
        """Per-(micro-batch, stage) activation footprints, from one
        :meth:`~repro.costmodel.cost_model.CostModel.stage_costs_many` query
        over all stages."""
        return self.cost_model.stage_costs_many(shapes, recompute)[2].tolist()

    def duration_map(
        self, shapes: Sequence[MicroBatchShape], recompute: RecomputeMode
    ) -> dict[ComputeOp, float]:
        """Modelled duration of every compute op of the iteration, from one
        :meth:`~repro.costmodel.cost_model.CostModel.stage_costs_many` query
        over all stages."""
        forward, backward, _ = self.cost_model.stage_costs_many(shapes, recompute)
        durations: dict[ComputeOp, float] = {}
        for stage, (stage_forward, stage_backward) in enumerate(
            zip(forward.T.tolist(), backward.T.tolist())
        ):
            for microbatch, (fwd, bwd) in enumerate(zip(stage_forward, stage_backward)):
                durations[ComputeOp(microbatch, stage, OpType.FORWARD)] = fwd
                durations[ComputeOp(microbatch, stage, OpType.BACKWARD)] = bwd
        return durations

    def memory_limits(self) -> list[float]:
        """Per-stage activation budgets (device memory minus static memory)."""
        return [
            self.cost_model.activation_budget_bytes(stage, self.device_memory_bytes)
            for stage in range(self.cost_model.num_stages)
        ]

    # ------------------------------------------------------------------ building

    def build(
        self,
        shapes: Sequence[MicroBatchShape],
        kind: ScheduleKind | str = ScheduleKind.MEMORY_AWARE_ADAPTIVE,
        recompute: RecomputeMode = RecomputeMode.NONE,
        injection_order: Sequence[int] | None = None,
    ) -> ScheduleBuildResult:
        """Build a schedule of ``kind`` for the given micro-batch shapes.

        Args:
            shapes: Padded shapes of the iteration's micro-batches, in
                injection (execution) order unless ``injection_order`` is
                given.
            kind: Which schedule family to build.
            recompute: Recompute mode used for durations and activations.
            injection_order: Optional explicit injection order (a permutation
                of micro-batch indices) for the adaptive schedules.
        """
        if not shapes:
            raise ValueError("at least one micro-batch shape is required")
        kind = ScheduleKind(kind)
        activation = self.activation_matrix(shapes, recompute)
        durations = self.duration_map(shapes, recompute)
        num_stages = self.cost_model.num_stages

        if kind is ScheduleKind.ONE_F_ONE_B:
            schedule = one_f_one_b_schedule(num_stages, len(shapes))
            limits: list[float] | None = None
        elif kind is ScheduleKind.ADAPTIVE:
            schedule = cyclic_schedule(
                num_stages,
                activation,
                memory_limits=None,
                injection_order=injection_order,
                name="adaptive",
            )
            limits = None
        else:
            limits = self.memory_limits()
            schedule = cyclic_schedule(
                num_stages,
                activation,
                memory_limits=limits,
                injection_order=injection_order,
                name="memory-aware-adaptive",
            )
        return ScheduleBuildResult(
            schedule=schedule,
            activation_bytes=activation,
            durations=durations,
            memory_limits=limits,
        )


def build_schedule(
    cost_model: CostModel,
    shapes: Sequence[MicroBatchShape],
    kind: ScheduleKind | str = ScheduleKind.MEMORY_AWARE_ADAPTIVE,
    recompute: RecomputeMode = RecomputeMode.NONE,
    injection_order: Sequence[int] | None = None,
    device_memory_bytes: float | None = None,
) -> ScheduleBuildResult:
    """Convenience wrapper constructing an :class:`AdaptiveScheduler` and
    building one schedule."""
    scheduler = AdaptiveScheduler(cost_model, device_memory_bytes)
    return scheduler.build(shapes, kind, recompute, injection_order)
