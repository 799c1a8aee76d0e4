"""Schedule representation.

A schedule is a per-stage ordered list of compute operations.  Only the
*order* is fixed here; timing is resolved by the execution simulator, and
communication ordering is derived afterwards by the communication planner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator


class OpType(str, enum.Enum):
    """Type of a compute operation in a pipeline schedule."""

    FORWARD = "F"
    BACKWARD = "B"


@dataclass(frozen=True, order=True)
class ComputeOp:
    """One forward or backward pass of a micro-batch on a stage.

    Attributes:
        microbatch: Micro-batch index within the iteration.
        stage: Pipeline stage executing the op.
        op_type: Forward or backward.
    """

    microbatch: int
    stage: int
    op_type: OpType

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{self.op_type.value}{self.microbatch}@{self.stage}"


@dataclass
class StageSchedule:
    """Ordered list of compute ops executed by one stage."""

    stage: int
    ops: list[ComputeOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[ComputeOp]:
        return iter(self.ops)

    def forward_positions(self) -> dict[int, int]:
        """Map micro-batch index to the position of its forward op."""
        return {
            op.microbatch: position
            for position, op in enumerate(self.ops)
            if op.op_type is OpType.FORWARD
        }

    def backward_positions(self) -> dict[int, int]:
        """Map micro-batch index to the position of its backward op."""
        return {
            op.microbatch: position
            for position, op in enumerate(self.ops)
            if op.op_type is OpType.BACKWARD
        }


@dataclass
class PipelineSchedule:
    """A complete schedule: one :class:`StageSchedule` per pipeline stage.

    Attributes:
        stages: The per-stage schedules, indexed by stage.
        num_microbatches: Number of micro-batches in the iteration.
        name: Schedule family name (``"1f1b"``, ``"adaptive"``, ...), used in
            reports.
    """

    stages: list[StageSchedule]
    num_microbatches: int
    name: str = "unnamed"

    @classmethod
    def from_stage_sequences(
        cls, sequences: list[list[int]], num_microbatches: int, name: str
    ) -> "PipelineSchedule":
        """Decode per-stage sequences of encoded ops ``(microbatch << 1) | is_forward``."""
        return cls(
            stages=[
                StageSchedule(
                    stage=stage,
                    ops=[
                        ComputeOp(
                            encoded >> 1,
                            stage,
                            OpType.FORWARD if encoded & 1 else OpType.BACKWARD,
                        )
                        for encoded in sequence
                    ],
                )
                for stage, sequence in enumerate(sequences)
            ],
            num_microbatches=num_microbatches,
            name=name,
        )

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages."""
        return len(self.stages)

    def stage(self, index: int) -> StageSchedule:
        """The schedule of stage ``index``."""
        return self.stages[index]

    def all_ops(self) -> Iterator[ComputeOp]:
        """Iterate over every op of every stage (stage-major order)."""
        for stage_schedule in self.stages:
            yield from stage_schedule.ops

    def total_ops(self) -> int:
        """Total number of compute ops across all stages."""
        return sum(len(stage) for stage in self.stages)

    def injection_order(self) -> list[int]:
        """Order in which micro-batches are injected into the pipeline.

        Defined as the order of forward passes on the first stage, which is
        the knob the adaptive schedule controls (paper §5).
        """
        if not self.stages:
            return []
        return [
            op.microbatch for op in self.stages[0].ops if op.op_type is OpType.FORWARD
        ]
