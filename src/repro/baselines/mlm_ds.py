"""Packing-based baseline (Megatron-LM + DeepSpeed).

The baseline planner mirrors how MLM+DS handles a multi-task mini-batch:

1. samples are packed into rows of exactly ``max_seq_len`` tokens (first-fit
   concatenation, paper §2.2);
2. the packed rows are split evenly across data-parallel replicas;
3. each replica groups its rows into micro-batches of a fixed size;
4. micro-batches execute under the 1F1B schedule with a fixed, user-chosen
   recomputation mode;
5. communication follows the regular 1F1B pattern (for which the naive and
   the planned orders coincide, so the ahead-of-time planner is reused to
   drive the instruction-level executor).

Each replica is timed, memory-checked and lowered by the planner's own
:class:`~repro.core.planner.ReplicaPipeline`, in its identity order.

Because packed rows always have the full maximum sequence length, the
quadratic attention cost over the packed sequence — the waste DynaPipe
avoids — is automatically reflected in the cost model queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.batching.packing import PackingBatching
from repro.cluster.network import NetworkModel
from repro.core.adaptive_schedule import ScheduleKind
from repro.core.planner import (
    IterationPlan, ReplicaPipeline, ReplicaPlanResult, assemble_iteration_plan,
)
from repro.core.recomputation import OutOfMemoryError
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


@dataclass
class BaselineConfig:
    """Configuration of the MLM+DS baseline.

    Attributes:
        max_seq_len: Packing target sequence length.
        micro_batch_size: Packed rows per micro-batch.
        recompute: Activation checkpointing mode (fixed for the whole run).
        max_target_len: Packing target for decoder sequences (T5 only).
        device_memory_bytes: Usable device memory (defaults to the device
            capacity of the cost model).
        data_parallel_same_node: Link class of the gradient all-reduce.
        stages_same_node: Link class of inter-stage transfers.
    """

    max_seq_len: int
    micro_batch_size: int
    recompute: RecomputeMode = RecomputeMode.NONE
    max_target_len: int | None = None
    device_memory_bytes: float | None = None
    data_parallel_same_node: bool = False
    stages_same_node: bool = True


class MLMDeepSpeedBaseline:
    """Packing + fixed micro-batches + 1F1B, on the shared substrate.

    Args:
        cost_model: Cost model of one replica's pipeline.
        data_parallel_size: Number of data-parallel replicas.
        config: Baseline configuration.
        network: Communication model.
    """

    def __init__(
        self,
        cost_model: CostModel,
        data_parallel_size: int = 1,
        config: BaselineConfig | None = None,
        network: NetworkModel | None = None,
    ) -> None:
        if config is None:
            raise ValueError("BaselineConfig is required (max_seq_len and micro_batch_size)")
        if data_parallel_size < 1:
            raise ValueError(f"data_parallel_size must be >= 1, got {data_parallel_size}")
        self.cost_model = cost_model
        self.data_parallel_size = data_parallel_size
        self.config = config
        self.network = network or NetworkModel()
        self.device_memory_bytes = (
            config.device_memory_bytes
            if config.device_memory_bytes is not None
            else cost_model.device_spec.memory_capacity
        )
        if cost_model.min_activation_budget_bytes(self.device_memory_bytes) <= 0:
            raise OutOfMemoryError(
                f"static memory of {cost_model.config.name} with "
                f"{cost_model.num_stages} pipeline stages and tensor parallelism "
                f"{cost_model.tensor_parallel} exceeds the device memory of "
                f"{self.device_memory_bytes / 1e9:.1f} GB; increase pipeline or "
                "tensor parallelism"
            )
        self.decoder_only = not cost_model.config.is_encoder_decoder
        self.packer = PackingBatching(
            max_seq_len=config.max_seq_len,
            micro_batch_size=config.micro_batch_size,
            decoder_only=self.decoder_only,
            max_target_len=config.max_target_len,
        )

    # ------------------------------------------------------------------ planning

    def plan(self, samples: list[Sample], iteration: int = 0) -> IterationPlan:
        """Build the baseline's execution plans for one mini-batch.

        Raises:
            OutOfMemoryError: If the configured micro-batch size does not fit
                in device memory under 1F1B (the paper's "OOM" points in
                Fig. 5/13).
        """
        if not samples:
            raise ValueError("cannot plan an iteration with no samples")
        start_time = time.perf_counter()

        rows, dropped = self.packer.pack_rows(samples)
        if not rows:
            raise ValueError("packing produced no rows; all samples were dropped")
        # Split packed rows across data-parallel replicas as evenly as possible
        # (MLM+DS shards the mini-batch uniformly).
        replica_rows: list[list[list[Sample]]] = [[] for _ in range(self.data_parallel_size)]
        for index, row in enumerate(rows):
            replica_rows[index % self.data_parallel_size].append(row)
        if any(not group for group in replica_rows):
            raise OutOfMemoryError(
                f"only {len(rows)} packed rows for {self.data_parallel_size} replicas; "
                "reduce data parallelism or the global batch size"
            )

        from repro.batching.base import MicroBatch  # local import avoids a cycle at module load

        all_micro_batches = []
        replicas: list[ReplicaPlanResult] = []
        for replica_index, group_rows in enumerate(replica_rows):
            micro_batches = []
            for start in range(0, len(group_rows), self.config.micro_batch_size):
                chunk = group_rows[start : start + self.config.micro_batch_size]
                micro_batches.append(
                    MicroBatch(
                        rows=chunk,
                        decoder_only=self.decoder_only,
                        pad_enc_to=self.config.max_seq_len,
                        pad_dec_to=self.packer.max_target_len if not self.decoder_only else None,
                    )
                )
            all_micro_batches.extend(micro_batches)
            pipeline = ReplicaPipeline(
                self.cost_model,
                [mb.shape() for mb in micro_batches],
                self.config.recompute,
                ScheduleKind.ONE_F_ONE_B,
                self.device_memory_bytes,
                self.network,
                self.config.stages_same_node,
            )
            identity = range(len(micro_batches))
            evaluation = pipeline.simulator.evaluate(identity)
            if not evaluation.feasible:
                raise OutOfMemoryError(
                    f"baseline OOM: peak memory "
                    f"{max(evaluation.peak_activation_bytes) / 1e9:.2f} GB exceeds "
                    f"{self.device_memory_bytes / 1e9:.2f} GB "
                    f"(micro_batch_size={self.config.micro_batch_size}, "
                    f"max_seq_len={self.config.max_seq_len}, "
                    f"recompute={self.config.recompute.value})"
                )
            replicas.append(pipeline.lower(identity, micro_batches, iteration, replica_index))

        return assemble_iteration_plan(
            replicas, self.config.recompute, all_micro_batches, None, start_time,
            self.cost_model, self.data_parallel_size, self.network,
            self.config.data_parallel_same_node,
        )
