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

Batched fast path
-----------------

The planner evaluates thousands of candidate micro-batch shapes per
iteration, so it never walks the scalar query chain (:meth:`stage_cost`,
one interpolator call per quantity per stage per shape), which stays as the
reference.  It prices shapes through two batched entry points:
:meth:`CostModel.window_costs_arrays` for the DP's window table (uncached
coordinate arrays; the DP's micro-batch times come from it) and
:meth:`CostModel.stage_costs_many` for each replica's per-stage op costs.
:meth:`CostModel.microbatch_times_ms` /
:meth:`CostModel.microbatch_activation_bytes_many` answer bottleneck values
for other callers.  All but the first are memoised in per-instance
shape-keyed caches.  Each batch costs one
:meth:`~repro.costmodel.profiler.LayerProfile.query_many` pass per layer
profile: the forward, backward and activation grids of a mode are
interpolated together, bit-identical to the scalar path.
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

#: Soft cap on the per-instance shape caches; a long-lived planner sees a
#: bounded set of padded shapes in practice, so this only guards pathological
#: workloads from unbounded memory growth.
_CACHE_LIMIT = 1 << 20


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
        # Per-instance caches (a dict rather than ``lru_cache`` on methods,
        # which would pin every CostModel instance in the global cache).
        self._stage_cost_cache: dict[
            tuple[int, MicroBatchShape, RecomputeMode], StageCost
        ] = {}
        #: (shape, mode) -> (bottleneck total_ms, activation_bytes)
        self._bottleneck_cache: dict[
            tuple[MicroBatchShape, RecomputeMode], tuple[float, float]
        ] = {}
        self._static_bytes_cache: dict[int, float] = {}
        # One-slot (key, tables) memo for the stage-independent per-layer
        # interpolation pass: per-stage loops (duration_map, activation
        # matrices, peak memory) query the same shape batch once per stage,
        # and the tables depend only on (shapes, mode).  A single tuple slot
        # keeps replacement atomic for concurrent planners.
        self._layer_tables_memo: tuple[tuple, dict[str, np.ndarray | None]] | None = None

    # ------------------------------------------------------------------ stage costs

    def stage_cost(
        self,
        stage: int,
        shape: MicroBatchShape,
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> StageCost:
        """Forward/backward time and activation memory of ``shape`` on ``stage``."""
        key = (stage, shape, recompute)
        cached = self._stage_cost_cache.get(key)
        if cached is not None:
            return cached
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

        cost = StageCost(forward_ms=forward, backward_ms=backward, activation_bytes=activation)
        self._cache_guard(self._stage_cost_cache)
        self._stage_cost_cache[key] = cost
        return cost

    def _assignment(self, stage: int) -> LayerAssignment:
        if not 0 <= stage < self.num_stages:
            raise ValueError(f"stage {stage} out of range [0, {self.num_stages})")
        return self.assignments[stage]

    @staticmethod
    def _cache_guard(cache: dict) -> None:
        if len(cache) >= _CACHE_LIMIT:
            cache.clear()

    # ------------------------------------------------------------------ batched queries

    def _layer_tables(
        self, shapes: Sequence[MicroBatchShape], recompute: RecomputeMode
    ) -> dict[str, np.ndarray | None]:
        """Per-layer cost arrays for a batch of :class:`MicroBatchShape`."""
        key = (tuple(shapes), recompute)
        memo = self._layer_tables_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        tables = self._layer_tables_arrays(
            np.array([s.batch_size for s in shapes], dtype=float),
            np.array([s.enc_seq_len for s in shapes], dtype=float),
            np.array([s.dec_seq_len for s in shapes], dtype=float),
            recompute,
        )
        self._layer_tables_memo = (key, tables)
        return tables

    def _layer_tables_arrays(
        self,
        batch: np.ndarray,
        enc: np.ndarray,
        dec: np.ndarray,
        recompute: RecomputeMode,
    ) -> dict[str, np.ndarray | None]:
        """Per-layer forward/backward/activation arrays for a batch of shapes.

        ``enc_*`` entries cover encoder (and GPT decoder-only) layers,
        ``dec_*`` entries cover T5 decoder layers (``None`` for decoder-only
        models, whose decoder layers share the encoder profile).  Entries for
        shapes whose relevant sequence length is zero are zeroed, mirroring
        the scalar guards in :meth:`stage_cost`.
        """
        batch = np.asarray(batch, dtype=float)
        enc = np.asarray(enc, dtype=float)
        dec = np.asarray(dec, dtype=float)
        enc_mask = enc > 0
        enc_fwd, enc_bwd, enc_act = self.database.get("encoder").query_many(
            recompute, np.stack([batch, enc], axis=1)
        )
        tables: dict[str, np.ndarray | None] = {
            "enc_fwd": np.where(enc_mask, enc_fwd, 0.0),
            "enc_bwd": np.where(enc_mask, enc_bwd, 0.0),
            "enc_act": np.where(enc_mask, enc_act, 0.0),
            "dec_fwd": None,
            "dec_bwd": None,
            "dec_act": None,
        }
        if self.config.is_encoder_decoder:
            dec_mask = dec > 0
            dec_fwd, dec_bwd, dec_act = self.database.get("decoder").query_many(
                recompute, np.stack([batch, dec, enc], axis=1)
            )
            tables["dec_fwd"] = np.where(dec_mask, dec_fwd, 0.0)
            tables["dec_bwd"] = np.where(dec_mask, dec_bwd, 0.0)
            tables["dec_act"] = np.where(dec_mask, dec_act, 0.0)
        return tables

    def _assignment_costs(
        self,
        assignment: LayerAssignment,
        tables: dict[str, np.ndarray | None],
        count: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(forward, backward, activation) arrays of one stage assignment.

        Accumulates the encoder then decoder contributions in the same order
        as the scalar :meth:`stage_cost`, so results are bit-identical.
        """
        forward = np.zeros(count)
        backward = np.zeros(count)
        activation = np.zeros(count)
        if assignment.encoder_layers:
            forward = forward + assignment.encoder_layers * tables["enc_fwd"]
            backward = backward + assignment.encoder_layers * tables["enc_bwd"]
            activation = activation + assignment.encoder_layers * tables["enc_act"]
        if assignment.decoder_layers:
            if self.config.is_encoder_decoder:
                forward = forward + assignment.decoder_layers * tables["dec_fwd"]
                backward = backward + assignment.decoder_layers * tables["dec_bwd"]
                activation = activation + assignment.decoder_layers * tables["dec_act"]
            else:
                forward = forward + assignment.decoder_layers * tables["enc_fwd"]
                backward = backward + assignment.decoder_layers * tables["enc_bwd"]
                activation = activation + assignment.decoder_layers * tables["enc_act"]
        return forward, backward, activation

    def stage_costs_many(
        self,
        stage: int,
        shapes: Sequence[MicroBatchShape],
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> list[StageCost]:
        """Batched :meth:`stage_cost` for many shapes on one stage.

        Cached results are reused; the remaining shapes are evaluated in one
        vectorized interpolator pass.
        """
        assignment = self._assignment(stage)
        results: dict[MicroBatchShape, StageCost] = {}
        missing: list[MicroBatchShape] = []
        for shape in shapes:
            if shape in results:
                continue
            cached = self._stage_cost_cache.get((stage, shape, recompute))
            if cached is not None:
                results[shape] = cached
            else:
                results[shape] = StageCost(0.0, 0.0, 0.0)  # placeholder
                missing.append(shape)
        if missing:
            tables = self._layer_tables(missing, recompute)
            forward, backward, activation = self._assignment_costs(
                assignment, tables, len(missing)
            )
            self._cache_guard(self._stage_cost_cache)
            for i, shape in enumerate(missing):
                cost = StageCost(
                    forward_ms=float(forward[i]),
                    backward_ms=float(backward[i]),
                    activation_bytes=float(activation[i]),
                )
                results[shape] = cost
                self._stage_cost_cache[(stage, shape, recompute)] = cost
        return [results[shape] for shape in shapes]

    def _bottleneck_arrays(
        self,
        batch: np.ndarray,
        enc: np.ndarray,
        dec: np.ndarray,
        recompute: RecomputeMode,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(total_ms, activation_bytes) bottleneck arrays."""
        tables = self._layer_tables_arrays(batch, enc, dec, recompute)
        # Stages sharing a layer assignment have identical costs, so the
        # bottleneck max only needs one evaluation per distinct assignment.
        distinct = {(a.encoder_layers, a.decoder_layers): a for a in self.assignments}
        totals, activations = [], []
        for assignment in distinct.values():
            forward, backward, activation = self._assignment_costs(
                assignment, tables, len(batch)
            )
            totals.append(forward + backward)
            activations.append(activation)
        return np.max(totals, axis=0), np.max(activations, axis=0)

    def window_costs_arrays(
        self,
        batch: np.ndarray,
        enc: np.ndarray,
        dec: np.ndarray,
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bottleneck (time_ms, activation_bytes) for raw shape coordinate arrays.

        The uncached bulk entry point of the planner fast path: the DP's
        window-shape table holds tens of thousands of unique shapes per
        mini-batch, for which per-shape cache bookkeeping costs more than the
        batched interpolation itself.
        """
        return self._bottleneck_arrays(batch, enc, dec, recompute)

    def _bottleneck_many(
        self, shapes: Sequence[MicroBatchShape], recompute: RecomputeMode
    ) -> list[tuple[float, float]]:
        """(total_ms, activation_bytes) bottleneck pairs (cached)."""
        results: dict[MicroBatchShape, tuple[float, float]] = {}
        missing: list[MicroBatchShape] = []
        for shape in shapes:
            if shape in results:
                continue
            cached = self._bottleneck_cache.get((shape, recompute))
            if cached is not None:
                results[shape] = cached
            else:
                results[shape] = (0.0, 0.0)  # placeholder
                missing.append(shape)
        if missing:
            total, activation = self._bottleneck_arrays(
                np.array([s.batch_size for s in missing], dtype=float),
                np.array([s.enc_seq_len for s in missing], dtype=float),
                np.array([s.dec_seq_len for s in missing], dtype=float),
                recompute,
            )
            self._cache_guard(self._bottleneck_cache)
            for i, shape in enumerate(missing):
                pair = (float(total[i]), float(activation[i]))
                results[shape] = pair
                self._bottleneck_cache[(shape, recompute)] = pair
        return [results[shape] for shape in shapes]

    def microbatch_times_ms(
        self,
        shapes: Sequence[MicroBatchShape],
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> np.ndarray:
        """Batched :meth:`microbatch_time_ms`: ``t(M)`` for many shapes."""
        return np.array([t for t, _ in self._bottleneck_many(shapes, recompute)])

    def microbatch_activation_bytes_many(
        self,
        shapes: Sequence[MicroBatchShape],
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> np.ndarray:
        """Batched :meth:`microbatch_activation_bytes` for many shapes."""
        return np.array([a for _, a in self._bottleneck_many(shapes, recompute)])

    # ------------------------------------------------------------------ aggregates

    def microbatch_time_ms(
        self, shape: MicroBatchShape, recompute: RecomputeMode = RecomputeMode.NONE
    ) -> float:
        """``t(M)``: execution time of the bottleneck stage for ``shape``.

        The paper's Eq. 1 models the iteration time using the per-micro-batch
        time on the (bottleneck) stage; with balanced layer assignment all
        stages are close, and using the maximum keeps the estimate an upper
        bound.
        """
        return self._bottleneck_many([shape], recompute)[0][0]

    def microbatch_activation_bytes(
        self, shape: MicroBatchShape, recompute: RecomputeMode = RecomputeMode.NONE
    ) -> float:
        """Largest per-stage activation footprint of ``shape``."""
        return self._bottleneck_many([shape], recompute)[0][1]

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
        times = [t for t, _ in self._bottleneck_many(shapes, recompute)]
        return (self.num_stages - 1) * max(times) + sum(times)

    # ------------------------------------------------------------------ memory

    def stage_static_bytes(self, stage: int) -> float:
        """Static memory (weights, grads, optimizer state, workspace) of ``stage``."""
        cached = self._static_bytes_cache.get(stage)
        if cached is not None:
            return cached
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
        peak = 0.0
        for stage in range(self.num_stages):
            costs = self.stage_costs_many(stage, shapes, recompute)
            footprints = sorted(
                (cost.activation_bytes for cost in costs), reverse=True
            )
            stage_peak = self.stage_static_bytes(stage) + sum(footprints[:window])
            peak = max(peak, stage_peak)
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
