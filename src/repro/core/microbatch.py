"""DynaPipe's dynamic micro-batch construction (paper §4).

:class:`DynamicMicroBatcher` is the planner-facing front end of the
dynamic-programming partitioner: it orders the mini-batch's samples,
queries the cost model for window times and activation footprints, enforces
the per-micro-batch memory limit, and returns the resulting micro-batches
in partition order together with the DP solution metadata (used by the
planning-time experiment and by tests).

The batcher precomputes the padded shape of every
candidate ``[start, start + size)`` window with sliding maxima over the
ordered sample lengths — O(1) per window when the ordering is monotone, as
under SORT ordering — dedupes the windows to their unique shapes with a 1-D
``np.unique`` over one packed int64 key per window, costs the unique shapes
in batched cost-model queries, and hands the resulting dense
:class:`~repro.core.dp_solver.WindowCostTable` to the DP.  The size-1
shapes are costed first; when a sample alone breaks the memory limit (the
usual fate of the planner's first recomputation mode on large models) the
table stops there and the DP rejects it without the larger shapes ever
being costed.  The window *geometry* (shapes and their dedup indices) does
not depend on the recomputation mode, so it is cached and reused across the
planner's recomputation-mode retries; only the batched cost query is
re-issued per mode.  The scalar reference batcher, which produces identical
partitions one cost-model call at a time, is kept in
``tests/oracles/dp_scalar.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batching.base import BatchingResult, BatchingStrategy, MicroBatch
from repro.core.dp_solver import DPSolution, WindowCostTable, solve_partition
from repro.core.ordering import OrderingMethod, order_samples
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


def sliding_window_maxima(values: np.ndarray, max_window: int) -> np.ndarray:
    """Maxima of every ``[start, start + size)`` window of ``values``.

    Returns an ``(n, max_window)`` array whose ``[start, size - 1]`` entry is
    ``max(values[start:start + size])``; entries for windows running past the
    end of ``values`` are unspecified.  Non-decreasing inputs (SORT ordering)
    resolve each window to its last element — one gather, O(1) per window;
    other orderings fall back to a vectorized running maximum, one numpy op
    per window size.
    """
    values = np.asarray(values)
    n = len(values)
    window = min(max_window, n) if n else 0
    out = np.empty((n, window), dtype=values.dtype)
    if n == 0 or window == 0:
        return out
    out[:, 0] = values
    if np.all(np.diff(values) >= 0):
        for size in range(2, window + 1):
            out[: n - size + 1, size - 1] = values[size - 1 :]
    else:
        for size in range(2, window + 1):
            np.maximum(
                out[: n - size + 1, size - 2],
                values[size - 1 :],
                out=out[: n - size + 1, size - 1],
            )
    return out


class _WindowGeometry:
    """Unique window shapes of one ordered mini-batch (mode-independent).

    ``unique`` holds one ``(batch_size, enc_seq_len, dec_seq_len)`` row per
    distinct window shape, in lexicographic (size-major) order, so the
    size-1 shapes form its leading block; ``inverse`` maps each valid
    ``(start, size)`` window (flattened per ``start_index`` /
    ``size_index``) to its row.  Rows are deduped as packed keys
    (``np.ravel_multi_index`` in ``(size, enc, dec)`` order, which sorts
    like the rows); lengths whose key space overflows int64 raise
    ``ValueError``.
    """

    def __init__(
        self,
        unique: np.ndarray,
        inverse: np.ndarray,
        start_index: np.ndarray,
        size_index: np.ndarray,
        num_samples: int,
        max_window: int,
    ) -> None:
        self.unique = unique
        self.inverse = inverse
        self.start_index = start_index
        self.size_index = size_index
        self.num_samples = num_samples
        self.max_window = max_window


class DynamicMicroBatcher(BatchingStrategy):
    """Dynamic-programming micro-batch construction.

    Args:
        cost_model: Cost model of one model replica's pipeline.
        ordering: Sample ordering method applied before partitioning.
        recompute: Recomputation mode assumed when estimating time/memory.
        per_microbatch_memory_bytes: Activation-memory limit for a single
            micro-batch on its bottleneck stage.  Defaults to the tightest
            stage activation budget divided by the number of stages, the
            1F1B-style limit described in §4 ("Limit memory consumption").
        sum_weight: Weight of the Σ t(M) objective term (``1/|D|`` when the
            micro-batches will be spread over ``|D|`` data-parallel replicas).
        tmax_sample_count: Number of ``t_max`` candidates for the DP.
        max_microbatch_size: Upper bound on samples per micro-batch.
    """

    name = "dynapipe-dp"

    def __init__(
        self,
        cost_model: CostModel,
        ordering: OrderingMethod | str = OrderingMethod.SORT,
        recompute: RecomputeMode = RecomputeMode.NONE,
        per_microbatch_memory_bytes: float | None = None,
        sum_weight: float = 1.0,
        tmax_sample_count: int = 24,
        max_microbatch_size: int = 256,
    ) -> None:
        super().__init__(decoder_only=not cost_model.config.is_encoder_decoder)
        self.cost_model = cost_model
        self.ordering = OrderingMethod(ordering)
        self.recompute = recompute
        if per_microbatch_memory_bytes is None:
            per_microbatch_memory_bytes = (
                cost_model.min_activation_budget_bytes() / cost_model.num_stages
            )
        self.per_microbatch_memory_bytes = per_microbatch_memory_bytes
        self.sum_weight = sum_weight
        self.tmax_sample_count = tmax_sample_count
        self.max_microbatch_size = max_microbatch_size
        #: DP solution of the most recent :meth:`split` call (for inspection).
        self.last_solution: DPSolution | None = None
        # One-slot (key, geometry) cache of the latest mini-batch's window
        # geometry, reused across recomputation-mode retries (the geometry is
        # mode-free).  Stored as a single tuple so concurrent planners reading
        # and replacing the slot never observe a key paired with another
        # mini-batch's geometry.
        self._geometry_entry: tuple[tuple, _WindowGeometry] | None = None

    # ------------------------------------------------------------------ window table

    def _window_geometry(self, ordered: Sequence[Sample]) -> _WindowGeometry:
        """Unique shapes of all candidate windows of the ordered mini-batch."""
        if self.decoder_only:
            enc = np.array([s.total_tokens for s in ordered], dtype=np.int64)
            dec = np.zeros(len(ordered), dtype=np.int64)
        else:
            enc = np.array([s.input_tokens for s in ordered], dtype=np.int64)
            dec = np.array([s.target_tokens for s in ordered], dtype=np.int64)
        key = (len(ordered), self.max_microbatch_size, enc.tobytes(), dec.tobytes())
        entry = self._geometry_entry
        if entry is not None and entry[0] == key:
            return entry[1]

        n = len(ordered)
        window = min(self.max_microbatch_size, n)
        enc_max = sliding_window_maxima(enc, window)
        dec_max = sliding_window_maxima(dec, window)
        sizes = np.arange(1, window + 1)[None, :]
        starts = np.arange(n)[:, None]
        valid = starts + sizes <= n
        start_index, size_index = np.nonzero(valid)
        # Row-major packing in (size, enc, dec) order sorts like the rows
        # themselves, so a 1-D unique over the keys yields the same rows and
        # inverse as ``np.unique(triples, axis=0)`` without its void-view sort.
        dims = (window + 1, int(enc.max()) + 1, int(dec.max()) + 1)
        keys = np.ravel_multi_index(
            (
                size_index + 1,
                enc_max[start_index, size_index],
                dec_max[start_index, size_index],
            ),
            dims,
        )
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        unique = np.stack(np.unravel_index(unique_keys, dims), axis=1)
        geometry = _WindowGeometry(
            unique=unique,
            inverse=inverse.reshape(-1),
            start_index=start_index,
            size_index=size_index,
            num_samples=n,
            max_window=window,
        )
        self._geometry_entry = (key, geometry)
        return geometry

    def build_window_cost_table(
        self, ordered: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> WindowCostTable:
        """Dense window time/feasibility tables for the DP.

        Batched cost-model queries cover the unique window shapes; the
        results are scattered back to dense ``(start, size)`` tables.  The
        size-1 shapes (the leading block of the size-major ``unique``) are
        costed first: if any sample alone breaks the memory limit, only
        column 0 is filled and :func:`solve_partition` rejects the table
        without the larger shapes ever being costed.
        """
        mode = self.recompute if recompute is None else recompute
        geometry = self._window_geometry(ordered)
        unique = geometry.unique
        num_singletons = int(np.searchsorted(unique[:, 0], 2))
        times_unique = np.full(len(unique), np.inf)
        feasible_unique = np.zeros(len(unique), dtype=bool)
        costed = 0
        for stop in (num_singletons, len(unique)):
            block = slice(costed, stop)
            times_unique[block], activation = self.cost_model.window_costs_arrays(
                unique[block, 0], unique[block, 1], unique[block, 2], mode
            )
            feasible_unique[block] = activation <= self.per_microbatch_memory_bytes
            costed = stop
            if not feasible_unique[:num_singletons].all():
                break
        times = np.full((geometry.num_samples, geometry.max_window), np.inf)
        feasible = np.zeros((geometry.num_samples, geometry.max_window), dtype=bool)
        times[geometry.start_index, geometry.size_index] = times_unique[geometry.inverse]
        feasible[geometry.start_index, geometry.size_index] = feasible_unique[
            geometry.inverse
        ]
        return WindowCostTable(
            times=times,
            feasible=feasible,
            unique_shape_evaluations=costed,
        )

    # ------------------------------------------------------------------ strategy API

    def split(
        self, samples: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> BatchingResult:
        """Order the mini-batch and partition it with the DP algorithm.

        Args:
            samples: The mini-batch to partition.
            recompute: Recomputation mode override for this call (defaults to
                the instance's mode); lets the planner retry heavier modes
                without rebuilding the batcher or its window geometry.
        """
        result, solution = self.split_with_solution(samples, recompute)
        self.last_solution = solution
        return result

    def split_with_solution(
        self, samples: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> tuple[BatchingResult, DPSolution | None]:
        """:meth:`split` returning the DP solution directly.

        Planners sharing one batcher across threads must use this instead
        of reading ``last_solution``, which is last-writer-wins across
        threads.
        """
        if not samples:
            return BatchingResult(micro_batches=[]), None
        mode = self.recompute if recompute is None else recompute
        ordered = order_samples(samples, self.ordering, decoder_only=self.decoder_only)
        solution = solve_partition(
            self.build_window_cost_table(ordered, mode),
            num_stages=self.cost_model.num_stages,
            sum_weight=self.sum_weight,
            max_microbatch_size=self.max_microbatch_size,
            tmax_sample_count=self.tmax_sample_count,
        )
        micro_batches = [
            MicroBatch.from_samples(ordered[start:end], decoder_only=self.decoder_only)
            for start, end in solution.boundaries
        ]
        return BatchingResult(micro_batches=micro_batches), solution
