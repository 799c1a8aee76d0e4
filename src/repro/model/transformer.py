"""Layer-level model structure and pipeline stage assignment.

A pipeline stage owns a contiguous slice of the model's Transformer layers.
For GPT all layers are decoder-only layers over a single sequence; for T5
the encoder stack is followed by the decoder stack, so early stages hold
encoder layers (processing the input sequence) and late stages hold decoder
layers (processing the target sequence, cross-attending to the encoder
output).  This split is why the paper's DP algorithm considers *both*
sequence lengths when constructing T5 micro-batches.

A :class:`StageModel` converts a micro-batch shape (batch size, encoder
sequence length, decoder sequence length) into forward/backward compute
descriptions and activation memory for that stage, using the analytic
formulas in :mod:`repro.model.flops` / :mod:`repro.model.memory` and a
:class:`~repro.cluster.device.SimulatedGPU` to obtain time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.model.config import ModelConfig
from repro.model.flops import (
    DTYPE_BYTES,
    LayerFlops,
    _attention_flops,
    _ffn_flops,
    decoder_layer_flops,
    encoder_layer_flops,
)
from repro.model.memory import (
    RecomputeMode,
    activation_bytes_per_layer,
    activation_terms,
    static_stage_bytes,
)


@dataclass(frozen=True)
class LayerAssignment:
    """The slice of model layers owned by one pipeline stage.

    Attributes:
        stage: Pipeline stage index (0-based).
        encoder_layers: Number of encoder layers on this stage.
        decoder_layers: Number of decoder (or GPT decoder-only) layers.
        has_output_projection: Whether the final vocabulary projection runs
            on this stage (always the last stage).
    """

    stage: int
    encoder_layers: int
    decoder_layers: int
    has_output_projection: bool

    @property
    def total_layers(self) -> int:
        """Total Transformer layers on this stage."""
        return self.encoder_layers + self.decoder_layers


def assign_layers(config: ModelConfig, num_stages: int) -> list[LayerAssignment]:
    """Split the model's layers into ``num_stages`` contiguous slices.

    Layers are balanced as evenly as possible; remainders go to the earliest
    stages (matching Megatron-LM's behaviour).  For T5 the encoder stack
    precedes the decoder stack in the flattened layer order.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    total = config.total_layer_count
    if num_stages > total:
        raise ValueError(
            f"cannot split {total} layers of {config.name} into {num_stages} pipeline stages"
        )
    base, remainder = divmod(total, num_stages)
    counts = [base + (1 if stage < remainder else 0) for stage in range(num_stages)]

    encoder_total = config.num_layers if config.is_encoder_decoder else 0
    assignments: list[LayerAssignment] = []
    consumed = 0
    for stage, count in enumerate(counts):
        enc = max(0, min(encoder_total - consumed, count))
        dec = count - enc
        assignments.append(
            LayerAssignment(
                stage=stage,
                encoder_layers=enc,
                decoder_layers=dec,
                has_output_projection=(stage == num_stages - 1),
            )
        )
        consumed += count
    return assignments


@dataclass(frozen=True)
class MicroBatchShape:
    """Shape of a padded micro-batch tensor.

    Attributes:
        batch_size: Number of samples in the micro-batch.
        enc_seq_len: Padded input (encoder) sequence length.  For GPT this is
            the full (input + target) sequence length.
        dec_seq_len: Padded target (decoder) sequence length; 0 for GPT.
    """

    batch_size: int
    enc_seq_len: int
    dec_seq_len: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.enc_seq_len < 0 or self.dec_seq_len < 0:
            raise ValueError("sequence lengths must be non-negative")

    @property
    def total_tokens(self) -> int:
        """Padded token count of the micro-batch (both sequences)."""
        return self.batch_size * (self.enc_seq_len + self.dec_seq_len)


class StageCostTables(NamedTuple):
    """Per-micro-batch ground-truth costs of one stage (see
    :meth:`StageModel.cost_tables`), as lists of Python floats."""

    forward_kernel_ms: list[float]
    backward_kernel_ms: list[float]
    tensor_parallel_ms: list[float]
    activation_bytes: list[float]


class StageModel:
    """Compute/memory behaviour of one pipeline stage of a model replica."""

    def __init__(
        self,
        config: ModelConfig,
        assignment: LayerAssignment,
        tensor_parallel: int = 1,
        zero_shards: int = 1,
    ) -> None:
        if tensor_parallel < 1:
            raise ValueError(f"tensor_parallel must be >= 1, got {tensor_parallel}")
        self.config = config
        self.assignment = assignment
        self.tensor_parallel = tensor_parallel
        self.zero_shards = zero_shards

    # ------------------------------------------------------------------ FLOPs

    def _stacks(self, enc_seq_len, dec_seq_len) -> list[tuple]:
        """``(layers, seq_len, cross_len)`` of each layer stack on this stage;
        ``cross_len`` is the encoder length a T5 decoder stack cross-attends
        to (``None`` for self-attention only).  An empty sequence costs 0."""
        t5 = self.config.is_encoder_decoder
        stacks = [
            (self.assignment.encoder_layers, enc_seq_len, None),
            (self.assignment.decoder_layers, dec_seq_len if t5 else enc_seq_len,
             enc_seq_len if t5 else None),
        ]
        return [stack for stack in stacks if stack[0]]

    def forward_flops(self, shape: MicroBatchShape) -> LayerFlops:
        """Aggregate forward-pass cost of this stage for one micro-batch."""
        total = LayerFlops(0.0, 0.0, 0)
        for layers, seq, cross in self._stacks(shape.enc_seq_len, shape.dec_seq_len):
            if seq:
                if cross is None:
                    per = encoder_layer_flops(self.config, shape.batch_size, seq)
                else:
                    per = decoder_layer_flops(self.config, shape.batch_size, seq, cross)
                total = total + per.scaled(layers)
        return LayerFlops(
            total.flops / self.tensor_parallel,
            total.bytes_moved / self.tensor_parallel,
            total.kernels,
        )

    # ------------------------------------------------------------------ time

    def forward_time_ms(
        self,
        gpu: SimulatedGPU,
        shape: MicroBatchShape,
        costs: tuple[float, float] | None = None,
    ) -> float:
        """Forward-pass time of this stage for one micro-batch.

        ``costs`` is ``shape``'s ``(noiseless kernel ms, all-reduce ms)``
        when already known from :meth:`cost_tables`; the result and the
        noise draw are the same either way."""
        if costs is None:
            cost = self.forward_flops(shape)
            time = gpu.kernel_time_ms(cost.flops, cost.bytes_moved, max(cost.kernels, 1))
            return time + self._tensor_parallel_comm_ms(shape)
        kernel_ms, comm_ms = costs
        return gpu.apply_noise(kernel_ms) + comm_ms

    def backward_time_ms(
        self,
        gpu: SimulatedGPU,
        shape: MicroBatchShape,
        recompute: RecomputeMode = RecomputeMode.NONE,
        costs: tuple[float, float] | None = None,
    ) -> float:
        """Backward-pass time; recomputation re-runs (part of) the forward.

        ``costs`` is as for :meth:`forward_time_ms`, under ``recompute``."""
        if costs is None:
            cost = self.forward_flops(shape)
            scaled = cost.scaled(recompute.backward_flop_factor)
            time = gpu.kernel_time_ms(scaled.flops, scaled.bytes_moved, max(cost.kernels, 1))
            return time + self._tensor_parallel_comm_ms(shape)
        kernel_ms, comm_ms = costs
        return gpu.apply_noise(kernel_ms) + comm_ms

    def _tensor_parallel_comm_ms(self, shape: MicroBatchShape) -> float:
        """Per-micro-batch tensor-parallel all-reduce cost on this stage.

        Each Transformer layer performs two all-reduces of the layer
        activation per pass under Megatron-style tensor parallelism.
        """
        if self.tensor_parallel == 1:
            return 0.0
        network = NetworkModel()
        total = 0.0
        for layers, seq, _ in self._stacks(shape.enc_seq_len, shape.dec_seq_len):
            if seq:
                nbytes = DTYPE_BYTES * shape.batch_size * seq * self.config.hidden_size
                total += 2 * layers * network.allreduce_time_ms(
                    nbytes, self.tensor_parallel, same_node=True
                )
        return total

    # ------------------------------------------------------------------ memory

    def activation_bytes(
        self, shape: MicroBatchShape, recompute: RecomputeMode = RecomputeMode.NONE
    ) -> float:
        """Activation memory this stage must hold between the forward and
        backward pass of one micro-batch."""
        total = 0.0
        for layers, seq, cross in self._stacks(shape.enc_seq_len, shape.dec_seq_len):
            if seq:
                total += layers * activation_bytes_per_layer(
                    self.config, shape.batch_size, seq, cross, recompute, self.tensor_parallel
                )
        return total

    def cost_tables(
        self,
        gpu: SimulatedGPU,
        shapes: Sequence[MicroBatchShape],
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> StageCostTables:
        """Ground-truth costs of every shape in one array evaluation.

        ``(forward_kernel_ms[i], tensor_parallel_ms[i])`` are the ``costs``
        that make :meth:`forward_time_ms` of shape ``i`` skip its formulas
        with a bit-identical result (likewise backward), and
        ``activation_bytes[i]`` is :meth:`activation_bytes`:
        the same flops, activation and all-reduce arithmetic runs on int64
        columns, with empty-sequence stacks masked where the scalar forms
        skip them.  (Exact while intermediate integers stay below 2**53,
        true of every shape a device can hold.)"""
        columns = np.array(
            [(s.batch_size, s.enc_seq_len, s.dec_seq_len) for s in shapes], dtype=np.int64
        ).reshape(-1, 3)
        batch, enc, dec = columns.T
        config, tp = self.config, self.tensor_parallel
        flops, nbytes, comm, held = (np.zeros(len(columns)) for _ in range(4))
        kernels = np.zeros(len(columns), dtype=np.int64)
        network = NetworkModel()
        for layers, seq, cross in self._stacks(enc, dec):
            on = seq > 0
            blocks = [_attention_flops(config, batch, seq, seq)]
            if cross is not None:
                blocks.append(_attention_flops(config, batch, seq, cross))
            blocks.append(_ffn_flops(config, batch, seq))
            flops = flops + np.where(on, sum(block[0] for block in blocks) * layers, 0.0)
            nbytes = nbytes + np.where(on, sum(block[1] for block in blocks) * layers, 0)
            kernels = kernels + np.where(on, sum(block[2] for block in blocks), 0)
            if tp > 1:
                volume = DTYPE_BYTES * batch * seq * config.hidden_size
                allreduce = network.allreduce_time_ms(volume, tp, same_node=True)
                comm = comm + np.where(on, 2 * layers * allreduce, 0.0)
            kv = seq if cross is None else cross
            per_layer = activation_terms(config, batch, seq, kv, tp).total(recompute)
            held = held + np.where(on, layers * per_layer, 0.0)
        flops, nbytes, kernels = flops / tp, nbytes / tp, np.maximum(kernels, 1)
        factor = recompute.backward_flop_factor
        forward = gpu.noiseless_time_ms(flops, nbytes, kernels)
        backward = gpu.noiseless_time_ms(flops * factor, nbytes * factor, kernels)
        return StageCostTables(forward.tolist(), backward.tolist(), comm.tolist(), held.tolist())

    def static_bytes(self) -> float:
        """Static memory (parameters, gradients, optimizer state, workspace)."""
        return static_stage_bytes(
            self.config,
            max(self.assignment.total_layers, 1),
            tensor_parallel=self.tensor_parallel,
            zero_shards=self.zero_shards,
        )

    # ------------------------------------------------------------------ comm shapes

    def output_activation_bytes(self, shape: MicroBatchShape) -> float:
        """Bytes of the activation tensor this stage sends to the next stage.

        The boundary activation is ``batch × seq × hidden``; for T5 stages
        that still hold encoder layers the encoder output must also flow
        forward (the decoder cross-attends to it), so both tensors are sent.
        """
        h = self.config.hidden_size
        nbytes = DTYPE_BYTES * shape.batch_size * h
        if self.config.is_encoder_decoder:
            # Encoder output is forwarded until the decoder stages consume it.
            total = nbytes * shape.enc_seq_len
            if self.assignment.decoder_layers:
                total += nbytes * shape.dec_seq_len
            return total / self.tensor_parallel
        return nbytes * shape.enc_seq_len / self.tensor_parallel


def build_stage_models(
    config: ModelConfig,
    num_stages: int,
    tensor_parallel: int = 1,
    zero_shards: int = 1,
) -> list[StageModel]:
    """Build the per-stage models for a pipeline of ``num_stages`` stages."""
    assignments = assign_layers(config, num_stages)
    return [
        StageModel(config, a, tensor_parallel=tensor_parallel, zero_shards=zero_shards)
        for a in assignments
    ]
