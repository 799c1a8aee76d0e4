"""Analytic memory model for Transformer training.

Three memory pools matter for the planner:

* **static memory** — parameters, gradients and optimizer state.  Constant
  across micro-batches; scaled down by tensor parallelism and (for optimizer
  state) by ZeRO sharding across data-parallel replicas.
* **activation memory** — per micro-batch, proportional to the number of
  tokens held on a stage and quadratic in sequence length for the attention
  score matrices (unless recomputation drops them).
* **workspace** — a small constant per device.

The per-micro-batch activation footprint is the quantity that DynaPipe's
memory-aware schedule (Alg. 1) tracks, and the cost-model accuracy figure
(Fig. 18b) compares its prediction against the simulated peak.

Recomputation (activation checkpointing, paper §7 "dynamic recomputation")
trades compute for memory.  Three modes are modelled, matching the choices
Megatron-LM exposes:

* :attr:`RecomputeMode.NONE` — store every intermediate activation.
* :attr:`RecomputeMode.SELECTIVE` — drop the quadratic attention-score
  matrices and recompute them in the backward pass.
* :attr:`RecomputeMode.FULL` — store only the layer-boundary activation and
  re-run the full forward during the backward pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.model.config import ModelConfig
from repro.model.flops import DTYPE_BYTES
from repro.utils.validation import check_non_negative, check_positive

#: fp32 master weights + fp32 momentum + fp32 variance for Adam, per parameter.
ADAM_STATE_BYTES_PER_PARAM = 12
#: fp16 gradient per parameter.
GRAD_BYTES_PER_PARAM = 2


class RecomputeMode(str, enum.Enum):
    """Activation checkpointing strategy for a training iteration."""

    NONE = "none"
    """No recomputation: all intermediate activations are stored."""

    SELECTIVE = "selective"
    """Recompute the attention score/softmax activations only."""

    FULL = "full"
    """Store only layer-boundary activations; recompute everything else."""

    @property
    def backward_flop_factor(self) -> float:
        """Backward-pass FLOPs as a multiple of the forward pass.

        Plain backward is ~2x the forward.  Selective recomputation re-runs
        roughly a third of the forward (the attention block); full
        recomputation re-runs the whole forward.
        """
        if self is RecomputeMode.NONE:
            return 2.0
        if self is RecomputeMode.SELECTIVE:
            return 2.35
        return 3.0


@dataclass(frozen=True)
class ActivationComponents:
    """Breakdown of one layer's activation memory, in bytes.

    Attributes:
        boundary: The layer input/output activation (always stored, or
            re-sent from the previous stage).
        attention_linear: Q/K/V projections and attention output held for
            the backward pass.
        attention_scores: The ``heads × query × key`` score / softmax
            matrices — the term quadratic in sequence length.
        ffn: Feed-forward intermediate activations.
    """

    boundary: float
    attention_linear: float
    attention_scores: float
    ffn: float

    def total(self, mode: RecomputeMode) -> float:
        """Bytes retained until the backward pass under ``mode``."""
        if mode is RecomputeMode.FULL:
            return self.boundary
        if mode is RecomputeMode.SELECTIVE:
            return self.boundary + self.attention_linear + self.ffn
        return self.boundary + self.attention_linear + self.attention_scores + self.ffn


def parameter_bytes(config: ModelConfig, layers: int, tensor_parallel: int = 1) -> float:
    """Bytes of fp16 parameters for ``layers`` Transformer layers of ``config``
    on one tensor-parallel shard."""
    check_positive("layers", layers)
    check_positive("tensor_parallel", tensor_parallel)
    per_layer = config.parameter_count(include_embedding=False) / config.total_layer_count
    return per_layer * layers * DTYPE_BYTES / tensor_parallel


def weight_gradient_bytes(config: ModelConfig, layers: int, tensor_parallel: int = 1) -> float:
    """Bytes of fp16 weight gradients for ``layers`` layers on one shard."""
    per_layer = config.parameter_count(include_embedding=False) / config.total_layer_count
    return per_layer * layers * GRAD_BYTES_PER_PARAM / tensor_parallel


def optimizer_state_bytes(
    config: ModelConfig,
    layers: int,
    tensor_parallel: int = 1,
    zero_shards: int = 1,
) -> float:
    """Bytes of Adam optimizer state for ``layers`` layers on one shard.

    ``zero_shards`` models ZeRO-1 sharding of optimizer state across data
    parallel replicas (the paper integrates DeepSpeed ZeRO).
    """
    check_positive("zero_shards", zero_shards)
    per_layer = config.parameter_count(include_embedding=False) / config.total_layer_count
    return per_layer * layers * ADAM_STATE_BYTES_PER_PARAM / (tensor_parallel * zero_shards)


def activation_components(
    config: ModelConfig,
    batch: int,
    seq_len: int,
    kv_len: int | None = None,
    tensor_parallel: int = 1,
) -> ActivationComponents:
    """Per-layer activation memory breakdown for a padded micro-batch.

    ``kv_len`` is the key/value sequence length of the attention block; for
    self-attention it equals ``seq_len``, for T5 cross-attention it is the
    encoder sequence length.
    """
    check_positive("batch", batch)
    check_non_negative("seq_len", seq_len)
    check_positive("tensor_parallel", tensor_parallel)
    if seq_len == 0:
        return ActivationComponents(0.0, 0.0, 0.0, 0.0)
    if kv_len is None:
        kv_len = seq_len
    return activation_terms(config, batch, seq_len, kv_len, tensor_parallel)


def activation_terms(
    config: ModelConfig, batch, seq_len, kv_len, tensor_parallel: int
) -> ActivationComponents:
    """The arithmetic of :func:`activation_components`, without its checks;
    also evaluates element-wise (bit-identically) on int64 numpy arrays."""
    h = config.hidden_size
    p = config.attention_projection_size
    f = config.ffn_hidden_size
    boundary = DTYPE_BYTES * batch * seq_len * h
    attention_linear = DTYPE_BYTES * batch * (seq_len * p * 3 + kv_len * p * 2) / tensor_parallel
    attention_scores = DTYPE_BYTES * batch * config.num_heads * seq_len * kv_len / tensor_parallel
    ffn = DTYPE_BYTES * batch * seq_len * f / tensor_parallel
    return ActivationComponents(boundary, attention_linear, attention_scores, ffn)


def activation_bytes_per_layer(
    config: ModelConfig,
    batch: int,
    seq_len: int,
    kv_len: int | None = None,
    recompute: bool | RecomputeMode = False,
    tensor_parallel: int = 1,
) -> float:
    """Activation bytes one layer must hold until its backward pass.

    ``recompute`` accepts either a :class:`RecomputeMode` or a boolean for
    convenience (``True`` meaning full recomputation).
    """
    if isinstance(recompute, bool):
        mode = RecomputeMode.FULL if recompute else RecomputeMode.NONE
    else:
        mode = recompute
    components = activation_components(config, batch, seq_len, kv_len, tensor_parallel)
    return components.total(mode)


def static_stage_bytes(
    config: ModelConfig,
    layers: int,
    tensor_parallel: int = 1,
    zero_shards: int = 1,
    workspace_bytes: float = 1.5 * 1024**3,
) -> float:
    """Total static (non-activation) memory of a pipeline stage holding
    ``layers`` layers: parameters + gradients + optimizer state + workspace."""
    check_non_negative("workspace_bytes", workspace_bytes)
    return (
        parameter_bytes(config, layers, tensor_parallel)
        + weight_gradient_bytes(config, layers, tensor_parallel)
        + optimizer_state_bytes(config, layers, tensor_parallel, zero_shards)
        + workspace_bytes
    )
