"""The cost model consumed by the planners.

The :class:`CostModel` answers the three questions every planner decision
needs (paper §3):

* how long does the forward / backward pass of micro-batch ``M`` take on
  pipeline stage ``j``?
* how much activation memory does ``M`` pin on stage ``j`` until its
  backward pass?
* how much static memory does stage ``j`` consume (so how much device memory
  is left for activations)?

Answers are obtained from the interpolated per-layer profiles multiplied by
the number of layers assigned to the stage, plus the stage's communication
terms.  The same object also provides the Eq. 1 iteration-time estimate used
by the micro-batch DP and the communication tensor sizes used by the
communication planner.

Array queries
-------------

The planner prices thousands of candidate micro-batch shapes per iteration,
so it never walks the scalar query chain (:meth:`CostModel.stage_cost`, one
interpolator call per quantity per stage per shape), which stays as the
independent reference.  It asks two array questions instead, recomputed on
every call:
:meth:`CostModel.stage_costs_many` gives every stage's forward, backward and
activation cost of a list of shapes (one replica's ops), and
:meth:`CostModel.window_costs_arrays` gives the bottleneck stage's time and
activation of raw coordinate arrays (the DP's window table).  Both make one
:meth:`~repro.costmodel.profiler.LayerProfile.query_many` pass per layer
profile, which interpolates a mode's forward, backward and activation grids
together, and cost each distinct layer assignment once; every value is
bit-identical to the scalar path.  The remaining aggregates are a few lines
over these two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.device import A100_40GB, DeviceSpec
from repro.costmodel.profiler import LayerProfiler, ProfileDatabase
from repro.model.config import ModelConfig
from repro.model.flops import DTYPE_BYTES
from repro.model.memory import RecomputeMode, static_stage_bytes
from repro.model.transformer import (
    LayerAssignment,
    MicroBatchShape,
    assign_layers,
)


def _shape_arrays(
    shapes: Sequence[MicroBatchShape],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(batch, enc, dec)`` coordinate arrays of ``shapes``."""
    return (
        np.array([s.batch_size for s in shapes], dtype=float),
        np.array([s.enc_seq_len for s in shapes], dtype=float),
        np.array([s.dec_seq_len for s in shapes], dtype=float),
    )


@dataclass(frozen=True)
class StageCost:
    """Cost of one micro-batch on one pipeline stage.

    Attributes:
        forward_ms: Forward-pass execution time.
        backward_ms: Backward-pass execution time (includes recomputation).
        activation_bytes: Activation memory pinned between forward and
            backward.
    """

    forward_ms: float
    backward_ms: float
    activation_bytes: float

    @property
    def total_ms(self) -> float:
        """Forward plus backward time, the ``t(M)`` of the paper's Eq. 1."""
        return self.forward_ms + self.backward_ms


class CostModel:
    """Per-stage execution time and memory estimates for one model replica.

    Args:
        config: Model configuration.
        num_stages: Number of pipeline stages.
        tensor_parallel: Tensor-parallel degree within each stage.
        zero_shards: Number of ZeRO optimizer-state shards (data-parallel
            degree when ZeRO-1 is enabled, else 1).
        device_spec: Device the stages run on.
        database: Optional pre-built profile database; profiled on demand if
            omitted.
        max_profile_batch_size / max_profile_seq_len: Grid extents used when
            profiling on demand.
    """

    def __init__(
        self,
        config: ModelConfig,
        num_stages: int,
        tensor_parallel: int = 1,
        zero_shards: int = 1,
        device_spec: DeviceSpec = A100_40GB,
        database: ProfileDatabase | None = None,
        max_profile_batch_size: int = 128,
        max_profile_seq_len: int = 8192,
    ) -> None:
        self.config = config
        self.num_stages = num_stages
        self.tensor_parallel = tensor_parallel
        self.zero_shards = zero_shards
        self.device_spec = device_spec
        self.assignments: list[LayerAssignment] = assign_layers(config, num_stages)
        if database is None:
            profiler = LayerProfiler(config, tensor_parallel, device_spec)
            database = profiler.build_database(
                max_batch_size=max_profile_batch_size, max_seq_len=max_profile_seq_len
            )
        self.database = database
        # Layer counts of each distinct assignment, and each stage's index
        # into them: stages sharing an assignment have identical costs.
        layers = [(a.encoder_layers, a.decoder_layers) for a in self.assignments]
        distinct = list(dict.fromkeys(layers))
        self._layer_counts = np.array(distinct, dtype=float)
        self._stage_assignment = [distinct.index(counts) for counts in layers]
        # A per-instance dict: memoising the method with ``functools`` would
        # pin every CostModel instance in a module-global table.
        self._static_bytes_cache: dict[int, float] = {}

    # ------------------------------------------------------------------ stage costs

    def stage_cost(
        self,
        stage: int,
        shape: MicroBatchShape,
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> StageCost:
        """Forward/backward time and activation memory of ``shape`` on ``stage``.

        The scalar reference of :meth:`stage_costs_many`: one interpolator
        call per quantity, recomputed on every call.
        """
        assignment = self._assignment(stage)
        forward = 0.0
        backward = 0.0
        activation = 0.0

        if assignment.encoder_layers:
            profile = self.database.get("encoder")
            coords = (shape.batch_size, shape.enc_seq_len)
            if coords[1] > 0:
                forward += assignment.encoder_layers * profile.query_forward(*coords)
                backward += assignment.encoder_layers * profile.query_backward(recompute, *coords)
                activation += assignment.encoder_layers * profile.query_activation(
                    recompute, *coords
                )

        if assignment.decoder_layers:
            if self.config.is_encoder_decoder:
                profile = self.database.get("decoder")
                coords3 = (shape.batch_size, shape.dec_seq_len, shape.enc_seq_len)
                if shape.dec_seq_len > 0:
                    forward += assignment.decoder_layers * profile.query_forward(*coords3)
                    backward += assignment.decoder_layers * profile.query_backward(
                        recompute, *coords3
                    )
                    activation += assignment.decoder_layers * profile.query_activation(
                        recompute, *coords3
                    )
            else:
                profile = self.database.get("encoder")
                coords = (shape.batch_size, shape.enc_seq_len)
                if coords[1] > 0:
                    forward += assignment.decoder_layers * profile.query_forward(*coords)
                    backward += assignment.decoder_layers * profile.query_backward(
                        recompute, *coords
                    )
                    activation += assignment.decoder_layers * profile.query_activation(
                        recompute, *coords
                    )

        return StageCost(forward_ms=forward, backward_ms=backward, activation_bytes=activation)

    def _assignment(self, stage: int) -> LayerAssignment:
        if not 0 <= stage < self.num_stages:
            raise ValueError(f"stage {stage} out of range [0, {self.num_stages})")
        return self.assignments[stage]

    # ------------------------------------------------------------------ array queries

    def _assignment_costs(
        self,
        batch: np.ndarray,
        enc: np.ndarray,
        dec: np.ndarray,
        recompute: RecomputeMode,
    ) -> np.ndarray:
        """``costs[q, a, i]``: quantity ``q`` (forward ms, backward ms,
        activation bytes) of shape ``i`` under distinct assignment ``a``.

        One ``query_many`` pass per layer profile.  Encoder (and GPT
        decoder-only) layers read the encoder profile, T5 decoder layers the
        decoder profile; a shape whose relevant sequence length is zero costs
        nothing there, mirroring the scalar guards in :meth:`stage_cost`.
        Each assignment adds its encoder then decoder terms in the scalar
        order (a zero layer count adds an exact ``0.0`` to the finite,
        non-negative profile values), so every value is bit-identical to
        :meth:`stage_cost`.
        """
        batch = np.asarray(batch, dtype=float)
        enc = np.asarray(enc, dtype=float)
        dec = np.asarray(dec, dtype=float)
        per_layer = self.database.get("encoder").query_many(
            recompute, np.stack([batch, enc], axis=1)
        )
        enc_costs = np.where(enc > 0, np.stack(per_layer), 0.0)
        dec_costs = enc_costs
        if self.config.is_encoder_decoder:
            per_layer = self.database.get("decoder").query_many(
                recompute, np.stack([batch, dec, enc], axis=1)
            )
            dec_costs = np.where(dec > 0, np.stack(per_layer), 0.0)
        layers = self._layer_counts
        return (
            layers[:, 0, None] * enc_costs[:, None, :] + layers[:, 1, None] * dec_costs[:, None, :]
        )

    def stage_costs_many(
        self,
        shapes: Sequence[MicroBatchShape],
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stage's cost of every shape: ``(forward_ms, backward_ms,
        activation_bytes)``, each of shape ``(len(shapes), num_stages)``.

        Recomputed on every call; element ``[i, j]`` is bit-identical to
        ``stage_cost(j, shapes[i], recompute)``.
        """
        costs = self._assignment_costs(*_shape_arrays(shapes), recompute)
        forward, backward, activation = costs[:, self._stage_assignment, :].transpose(0, 2, 1)
        return forward, backward, activation

    def window_costs_arrays(
        self,
        batch: np.ndarray,
        enc: np.ndarray,
        dec: np.ndarray,
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bottleneck ``(time_ms, activation_bytes)`` of raw shape coordinate
        arrays: the largest per-stage forward-plus-backward time and the
        largest per-stage activation of each shape.

        Recomputed on every call: the DP's window-shape table holds tens of
        thousands of unique shapes per mini-batch.
        """
        forward, backward, activation = self._assignment_costs(batch, enc, dec, recompute)
        return (forward + backward).max(axis=0), activation.max(axis=0)

    # ------------------------------------------------------------------ aggregates

    def microbatch_times_ms(
        self,
        shapes: Sequence[MicroBatchShape],
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> np.ndarray:
        """Batched :meth:`microbatch_time_ms`: ``t(M)`` for many shapes."""
        return self.window_costs_arrays(*_shape_arrays(shapes), recompute)[0]

    def microbatch_time_ms(
        self, shape: MicroBatchShape, recompute: RecomputeMode = RecomputeMode.NONE
    ) -> float:
        """``t(M)``: execution time of the bottleneck stage for ``shape``.

        The paper's Eq. 1 models the iteration time using the per-micro-batch
        time on the (bottleneck) stage; with balanced layer assignment all
        stages are close, and using the maximum keeps the estimate an upper
        bound.
        """
        return float(self.microbatch_times_ms([shape], recompute)[0])

    def microbatch_activation_bytes(
        self, shape: MicroBatchShape, recompute: RecomputeMode = RecomputeMode.NONE
    ) -> float:
        """Largest per-stage activation footprint of ``shape``."""
        return float(self.window_costs_arrays(*_shape_arrays([shape]), recompute)[1][0])

    def iteration_time_ms(
        self,
        shapes: list[MicroBatchShape],
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> float:
        """Eq. 1 iteration-time estimate for a set of micro-batches.

        ``(c - 1) · max t(M) + Σ t(M)`` where ``c`` is the number of stages.
        """
        if not shapes:
            return 0.0
        times = self.microbatch_times_ms(shapes, recompute).tolist()
        return (self.num_stages - 1) * max(times) + sum(times)

    # ------------------------------------------------------------------ memory

    def stage_static_bytes(self, stage: int) -> float:
        """Static memory (weights, grads, optimizer state, workspace) of ``stage``."""
        known = self._static_bytes_cache.get(stage)
        if known is not None:
            return known
        assignment = self._assignment(stage)
        value = static_stage_bytes(
            self.config,
            max(assignment.total_layers, 1),
            tensor_parallel=self.tensor_parallel,
            zero_shards=self.zero_shards,
        )
        self._static_bytes_cache[stage] = value
        return value

    def activation_budget_bytes(self, stage: int, device_memory: float | None = None) -> float:
        """Device memory available for activations on ``stage``."""
        capacity = device_memory if device_memory is not None else self.device_spec.memory_capacity
        return max(capacity - self.stage_static_bytes(stage), 0.0)

    def min_activation_budget_bytes(self, device_memory: float | None = None) -> float:
        """The tightest activation budget across all stages."""
        return min(
            self.activation_budget_bytes(stage, device_memory)
            for stage in range(self.num_stages)
        )

    def peak_memory_bytes(
        self,
        shapes: list[MicroBatchShape],
        in_flight: int | None = None,
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> float:
        """Estimated peak device memory across stages.

        Under 1F1B the first stage holds up to ``c`` in-flight micro-batch
        activations; ``in_flight`` overrides that count for other schedules.
        The estimate uses the largest ``in_flight`` activation footprints,
        which is what the paper's memory cost model predicts (Fig. 18b).
        """
        if not shapes:
            return max(self.stage_static_bytes(s) for s in range(self.num_stages))
        window = in_flight if in_flight is not None else self.num_stages
        window = max(1, min(window, len(shapes)))
        _, _, activation = self.stage_costs_many(shapes, recompute)
        peak = 0.0
        for stage, footprints in enumerate(activation.T.tolist()):
            footprints.sort(reverse=True)
            peak = max(peak, self.stage_static_bytes(stage) + sum(footprints[:window]))
        return peak

    # ------------------------------------------------------------------ communication

    def boundary_tensor_bytes(self, stage: int, shape: MicroBatchShape) -> float:
        """Bytes of the activation tensor sent from ``stage`` to ``stage + 1``.

        The boundary activation is ``batch × seq × hidden`` (per tensor
        parallel shard); T5 stages that feed decoder stages additionally
        forward the encoder output for cross-attention.
        """
        assignment = self._assignment(stage)
        h = self.config.hidden_size
        per_token = DTYPE_BYTES * h / self.tensor_parallel
        if not self.config.is_encoder_decoder:
            return shape.batch_size * shape.enc_seq_len * per_token
        total = shape.batch_size * shape.enc_seq_len * per_token
        if assignment.decoder_layers:
            total += shape.batch_size * shape.dec_seq_len * per_token
        return total
