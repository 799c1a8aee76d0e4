"""Execution plans (paper §3).

An execution plan is everything one executor (pipeline of one data-parallel
replica) needs for a training iteration: per-device instruction streams,
micro-batch shapes, the recomputation mode and the predictions the planner
made (iteration time, peak memory) so that they can later be compared with
the measured execution (Fig. 17/18).  Plans serialise to JSON-compatible
dictionaries, the form the planner pool ships them in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.instructions.ops import PipelineInstruction
from repro.instructions.serialization import instructions_from_dicts, instructions_to_dicts
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape


@dataclass
class PlanMetadata:
    """Planner predictions and bookkeeping attached to an execution plan.

    Attributes:
        iteration: Training iteration index the plan belongs to.
        replica: Data-parallel replica index the plan targets.
        schedule_name: Schedule family used (``"1f1b"``, ``"memory-aware-adaptive"``...).
        recompute: Recomputation mode selected for the iteration.
        predicted_makespan_ms: Planner's simulated iteration time.
        predicted_peak_memory_bytes: Planner's per-stage peak memory estimate.
        num_microbatches: Number of micro-batches in the plan.
        planning_time_s: Wall-clock time spent planning this replica's plan.
    """

    iteration: int
    replica: int
    schedule_name: str
    recompute: RecomputeMode
    predicted_makespan_ms: float
    predicted_peak_memory_bytes: list[float] = field(default_factory=list)
    num_microbatches: int = 0
    planning_time_s: float = 0.0


@dataclass
class ExecutionPlan:
    """Per-replica execution plan: instruction streams plus metadata.

    Attributes:
        device_instructions: One instruction list per pipeline stage.
        microbatch_shapes: Padded shape of each micro-batch, indexed by the
            micro-batch ids used inside the instructions.
        metadata: Planner predictions and bookkeeping.
    """

    device_instructions: list[list[PipelineInstruction]]
    microbatch_shapes: list[MicroBatchShape]
    metadata: PlanMetadata

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages the plan spans."""
        return len(self.device_instructions)

    def total_instructions(self) -> int:
        """Total instruction count across devices."""
        return sum(len(stream) for stream in self.device_instructions)

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> dict[str, Any]:
        """Serialise the plan to a JSON-compatible dictionary."""
        return {
            "metadata": {
                "iteration": self.metadata.iteration,
                "replica": self.metadata.replica,
                "schedule_name": self.metadata.schedule_name,
                "recompute": self.metadata.recompute.value,
                "predicted_makespan_ms": self.metadata.predicted_makespan_ms,
                "predicted_peak_memory_bytes": list(self.metadata.predicted_peak_memory_bytes),
                "num_microbatches": self.metadata.num_microbatches,
                "planning_time_s": self.metadata.planning_time_s,
            },
            "microbatch_shapes": [
                {
                    "batch_size": shape.batch_size,
                    "enc_seq_len": shape.enc_seq_len,
                    "dec_seq_len": shape.dec_seq_len,
                }
                for shape in self.microbatch_shapes
            ],
            "device_instructions": [
                instructions_to_dicts(stream) for stream in self.device_instructions
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        metadata = PlanMetadata(
            iteration=int(payload["metadata"]["iteration"]),
            replica=int(payload["metadata"]["replica"]),
            schedule_name=str(payload["metadata"]["schedule_name"]),
            recompute=RecomputeMode(payload["metadata"]["recompute"]),
            predicted_makespan_ms=float(payload["metadata"]["predicted_makespan_ms"]),
            predicted_peak_memory_bytes=[
                float(x) for x in payload["metadata"]["predicted_peak_memory_bytes"]
            ],
            num_microbatches=int(payload["metadata"]["num_microbatches"]),
            planning_time_s=float(payload["metadata"]["planning_time_s"]),
        )
        shapes = [
            MicroBatchShape(
                batch_size=int(s["batch_size"]),
                enc_seq_len=int(s["enc_seq_len"]),
                dec_seq_len=int(s["dec_seq_len"]),
            )
            for s in payload["microbatch_shapes"]
        ]
        streams = [
            instructions_from_dicts(stream) for stream in payload["device_instructions"]
        ]
        return cls(device_instructions=streams, microbatch_shapes=shapes, metadata=metadata)
