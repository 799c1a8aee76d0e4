"""DynaPipe's dynamic micro-batch construction (paper §4).

:class:`DynamicMicroBatcher` is the planner-facing front end of the
dynamic-programming partitioner: it orders the mini-batch's samples,
queries the cost model for window times and activation footprints, enforces
the per-micro-batch memory limit, and returns the resulting micro-batches
in partition order together with the DP solution metadata (used by the
planning-time experiment and by tests).

The batcher hands the DP a :class:`~repro.core.dp_solver.WindowCostTable`
holding every window the DP can read (:meth:`build_window_cost_table`).
Window maxima over the ordered sample lengths give each window's padded
shape — O(1) per window from a sparse table of power-of-two windows, for any
ordering — and the tables are cached across the planner's
recomputation-mode retries.  Per mode, only the windows the
memory limit lets the DP admit, plus the ``t_max`` probe windows, are
costed, in batched cost-model queries over their unique shapes.  The dense
builder it replaced is kept in ``tests/oracles/window_table_dense.py``, and
the scalar reference batcher, which produces identical partitions one
cost-model call at a time, in ``tests/oracles/dp_scalar.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batching.base import BatchingResult, BatchingStrategy, MicroBatch
from repro.core.dp_solver import (
    DPSolution,
    WindowCostTable,
    solve_partition,
    tmax_probe_windows,
)
from repro.core.ordering import OrderingMethod, order_samples
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


def window_maxima_table(values: np.ndarray, max_window: int) -> np.ndarray:
    """Sparse table of ``values`` for window maxima up to ``max_window`` wide.

    Row ``k`` holds ``max(values[i:i + 2**k])`` at every ``i`` where that
    window fits (other entries are unspecified); :func:`window_maxima`
    answers any window from two entries of one row.  Building it costs one
    numpy op per power of two, whatever the window sizes read later.
    """
    values = np.asarray(values)
    levels = max(min(max_window, len(values)), 1).bit_length()
    table = np.repeat(values[None, :], levels, axis=0)
    for level in range(1, levels):
        half = 1 << (level - 1)
        np.maximum(table[level - 1, :-half], table[level - 1, half:], out=table[level, :-half])
    return table


def window_maxima(table: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``max(values[start:start + size])`` per window, from
    :func:`window_maxima_table`: the max of the two widest power-of-two
    windows that cover it from either end."""
    level = np.frexp(size)[1] - 1  # floor(log2(size)), exact for integers
    return np.maximum(table[level, start], table[level, start + size - (1 << level)])


def sliding_window_maxima(values: np.ndarray, max_window: int) -> np.ndarray:
    """Maxima of every ``[start, start + size)`` window of ``values``.

    Returns an ``(n, max_window)`` array whose ``[start, size - 1]`` entry is
    ``max(values[start:start + size])``; entries for windows running past the
    end of ``values`` are unspecified.  The planner reads only the windows it
    costs, through :func:`window_maxima`; this dense running maximum (one
    numpy op per window size) shares no code with it and is the reference
    the dense window-table oracle and the checks read.
    """
    values = np.asarray(values)
    n = len(values)
    window = min(max_window, n)
    out = np.empty((n, window), dtype=values.dtype)
    if window:
        out[:, 0] = values
    for size in range(2, window + 1):
        np.maximum(
            out[: n - size + 1, size - 2],
            values[size - 1 :],
            out=out[: n - size + 1, size - 1],
        )
    return out


_FIRST_BLOCK_END = 16  #: last window size of the first block after the singletons


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
        # One-slot (key, maxima) cache of the latest mini-batch's window
        # maxima, reused across recomputation-mode retries (the maxima are
        # mode-free).  Stored as a single tuple so concurrent planners reading
        # and replacing the slot never observe a key paired with another
        # mini-batch's maxima.
        self._maxima_entry: tuple[tuple, tuple] | None = None

    # ------------------------------------------------------------------ window table

    def _window_maxima(
        self, ordered: Sequence[Sample]
    ) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
        """``(enc, dec, dims)``: window-maxima tables of the ordered lengths, cached.

        ``window_maxima(enc, start, size)`` / ``window_maxima(dec, start,
        size)`` are the padded lengths of window ``[start, start + size)``;
        ``dims`` packs ``(size, enc, dec)`` into int64 keys
        (``np.ravel_multi_index``, which sorts like the rows; an overflowing
        key space raises ``ValueError``).
        """
        if self.decoder_only:
            enc = np.array([s.total_tokens for s in ordered], dtype=np.int64)
            dec = np.zeros(len(ordered), dtype=np.int64)
        else:
            enc = np.array([s.input_tokens for s in ordered], dtype=np.int64)
            dec = np.array([s.target_tokens for s in ordered], dtype=np.int64)
        key = (len(ordered), self.max_microbatch_size, enc.tobytes(), dec.tobytes())
        entry = self._maxima_entry
        if entry is not None and entry[0] == key:
            return entry[1]
        window = min(self.max_microbatch_size, len(ordered))
        maxima = (
            window_maxima_table(enc, window),
            window_maxima_table(dec, window),
            (window + 1, int(enc.max()) + 1, int(dec.max()) + 1),
        )
        self._maxima_entry = (key, maxima)
        return maxima

    def build_window_cost_table(
        self, ordered: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> WindowCostTable:
        """Window time/feasibility tables holding every window the DP can read.

        Sizes are costed in blocks ``1``, ``2..16``, ``17..32``, ``33..64``, …,
        one batched cost-model query per block over its unique shapes (a query
        has a fixed cost worth about a thousand shapes, and the memory limit
        rarely cuts a window below 16 samples).  Size 1 is the singleton gate:
        if a sample alone breaks the memory limit, only column 0 is filled and
        :func:`solve_partition` rejects the table.  Otherwise an end stops at
        the block holding its first infeasible window (the DP admits nothing
        past it), and each block also costs the probe windows of its sizes
        (:func:`~repro.core.dp_solver.tmax_probe_windows` for this batcher's
        ``max_microbatch_size``).  Other entries hold ``inf`` time and
        ``False`` feasibility.
        """
        mode = self.recompute if recompute is None else recompute
        enc_max, dec_max, dims = self._window_maxima(ordered)
        num_samples = len(ordered)
        max_window = dims[0] - 1
        times = np.full((num_samples, max_window), np.inf)
        feasible = np.zeros((num_samples, max_window), dtype=bool)
        costed = 0
        probe_starts, probe_sizes = tmax_probe_windows(num_samples, self.max_microbatch_size)
        probe_ends = probe_starts + probe_sizes
        ends = np.arange(1, num_samples + 1)
        alive = np.ones(num_samples, dtype=bool)
        low = high = 1
        while low <= max_window:
            live = ends[alive]
            sizes = np.arange(low, high + 1)
            end_index, size_index = np.nonzero(sizes[None, :] <= live[:, None])
            probes = (probe_sizes >= low) & (probe_sizes <= high)
            end = np.concatenate([live[end_index], probe_ends[probes]])
            size = np.concatenate([sizes[size_index], probe_sizes[probes]])
            if not len(size):
                break  # no live end, and only the last block lacks probes
            start = end - size
            # Blocks hold disjoint sizes, so a shape is costed in one block only.
            keys = np.ravel_multi_index(
                (size, window_maxima(enc_max, start, size), window_maxima(dec_max, start, size)),
                dims,
            )
            unique, inverse = np.unique(keys, return_inverse=True)
            batch, enc, dec = np.unravel_index(unique, dims)
            unique_times, activation = self.cost_model.window_costs_arrays(
                batch, enc, dec, mode
            )
            unique_feasible = activation <= self.per_microbatch_memory_bytes
            costed += len(unique)
            times[start, size - 1] = unique_times[inverse]
            feasible[start, size - 1] = window_feasible = unique_feasible[inverse]
            if low == 1 and not window_feasible.all():
                break
            alive[live - 1] = live > high
            alive[end[~window_feasible] - 1] = False
            low, high = high + 1, min(max(_FIRST_BLOCK_END, 2 * high), max_window)
        return WindowCostTable(times=times, feasible=feasible, unique_shape_evaluations=costed)

    # ------------------------------------------------------------------ strategy API

    def split(
        self, samples: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> BatchingResult:
        """Order the mini-batch and partition it with the DP algorithm.

        Args:
            samples: The mini-batch to partition.
            recompute: Recomputation mode override for this call (defaults to
                the instance's mode); lets the planner retry heavier modes
                without rebuilding the batcher or its window maxima.
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
