"""Scalar DP partitioner and micro-batcher: the window-table path's oracle.

This is the original reference implementation of
:func:`repro.core.dp_solver.solve_partition` — the ``time_fn`` /
``feasible_fn`` callbacks, lazily memoised per window, with one Python-level
DP pass per ``t_max`` candidate — and of ``DynamicMicroBatcher``'s scalar
branch, which costs one window at a time through the cost model's scalar
methods.  The library now always builds a dense
:class:`~repro.core.dp_solver.WindowCostTable` and solves every candidate
in one vectorized pass; the equivalence suites require identical
boundaries, times, objectives and ``t_max`` choices from both.  It lives in
``tests/`` because nothing in the library selects it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.batching.base import BatchingResult, MicroBatch
from repro.core.dp_solver import (
    DPSolution,
    PartitionError,
    _tmax_candidates,
    tmax_probe_windows,
)
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.ordering import order_samples
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape

#: Cost of the micro-batch formed from the half-open index range [start, end).
MicroBatchCostFn = Callable[[int, int], float]
#: Feasibility (memory limit) of the micro-batch formed from [start, end).
MicroBatchFeasibleFn = Callable[[int, int], bool]


class _CostCache:
    """Memoises the window cost/feasibility functions and counts calls."""

    def __init__(self, time_fn: MicroBatchCostFn, feasible_fn: MicroBatchFeasibleFn | None):
        self._time_fn = time_fn
        self._feasible_fn = feasible_fn
        self._time: dict[tuple[int, int], float] = {}
        self._feasible: dict[tuple[int, int], bool] = {}
        self.evaluations = 0

    def time(self, start: int, end: int) -> float:
        key = (start, end)
        if key not in self._time:
            self._time[key] = float(self._time_fn(start, end))
            self.evaluations += 1
        return self._time[key]

    def feasible(self, start: int, end: int) -> bool:
        if self._feasible_fn is None:
            return True
        key = (start, end)
        if key not in self._feasible:
            self._feasible[key] = bool(self._feasible_fn(start, end))
        return self._feasible[key]


def _partition_for_tmax(
    cache: _CostCache,
    num_samples: int,
    tmax: float,
    max_microbatch_size: int,
) -> tuple[list[tuple[int, int]], list[float]] | None:
    """Optimal partition with every micro-batch time <= ``tmax`` (Eq. 2).

    Returns ``None`` when no feasible partition exists for this ``tmax``.
    """
    best_cost = [float("inf")] * (num_samples + 1)
    best_prev = [-1] * (num_samples + 1)
    best_cost[0] = 0.0
    for end in range(1, num_samples + 1):
        window_limit = min(max_microbatch_size, end)
        for size in range(1, window_limit + 1):
            start = end - size
            window_time = cache.time(start, end)
            if window_time > tmax:
                # Window times grow with window size, so larger windows
                # cannot satisfy the bound either.
                break
            if not cache.feasible(start, end):
                break
            if best_cost[start] == float("inf"):
                continue
            candidate = best_cost[start] + window_time
            if candidate < best_cost[end]:
                best_cost[end] = candidate
                best_prev[end] = start
    if best_cost[num_samples] == float("inf"):
        return None
    boundaries: list[tuple[int, int]] = []
    end = num_samples
    while end > 0:
        start = best_prev[end]
        boundaries.append((start, end))
        end = start
    boundaries.reverse()
    times = [cache.time(start, end) for start, end in boundaries]
    return boundaries, times


def solve_partition_scalar(
    num_samples: int,
    num_stages: int,
    time_fn: MicroBatchCostFn,
    feasible_fn: MicroBatchFeasibleFn | None = None,
    sum_weight: float = 1.0,
    max_microbatch_size: int = 512,
    tmax_sample_count: int = 24,
) -> DPSolution:
    """Find the micro-batch partition minimising the Eq. 1 objective.

    Args:
        num_samples: Number of (already ordered) samples.
        num_stages: Number of pipeline stages ``c``.
        time_fn: Window time ``t(M)`` for a half-open sample index range.
        feasible_fn: Optional memory-limit check for a window.
        sum_weight: Weight of the Σ t(M) term (``1/|D|`` under data parallelism).
        max_microbatch_size: Upper bound on samples per micro-batch.
        tmax_sample_count: Number of ``t_max`` candidates to evaluate.

    Raises:
        PartitionError: If even single-sample micro-batches are infeasible.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if sum_weight <= 0:
        raise ValueError(f"sum_weight must be > 0, got {sum_weight}")
    if max_microbatch_size < 1:
        raise ValueError(f"max_microbatch_size must be >= 1, got {max_microbatch_size}")

    cache = _CostCache(time_fn, feasible_fn)
    for i in range(num_samples):
        if not cache.feasible(i, i + 1):
            raise PartitionError(
                f"sample {i} alone exceeds the per-micro-batch memory limit; "
                "increase the device memory limit or enable recomputation"
            )

    probe_starts, probe_sizes = tmax_probe_windows(num_samples, max_microbatch_size)
    candidates = _tmax_candidates(
        [cache.time(i, i + 1) for i in range(num_samples)],
        np.array(
            [
                cache.time(start, start + size)
                for start, size in zip(probe_starts.tolist(), probe_sizes.tolist())
            ]
        ),
        tmax_sample_count,
    )

    best: DPSolution | None = None
    for tmax in candidates:
        result = _partition_for_tmax(cache, num_samples, tmax, max_microbatch_size)
        if result is None:
            continue
        boundaries, times = result
        objective = (num_stages - 1) * max(times) + sum_weight * sum(times)
        if best is None or objective < best.objective:
            best = DPSolution(
                boundaries=boundaries,
                times=times,
                objective=objective,
                tmax_used=tmax,
            )
    if best is None:
        raise PartitionError(
            "no feasible partition found for any t_max candidate; this indicates "
            "an inconsistency between the time and feasibility functions"
        )
    best.candidates_evaluated = len(candidates)
    best.cost_evaluations = cache.evaluations
    return best


class ScalarMicroBatcher(DynamicMicroBatcher):
    """:class:`DynamicMicroBatcher` that costs windows one at a time.

    Takes the same arguments as the production batcher and produces
    identical partitions through :func:`solve_partition_scalar`, calling the
    cost model's scalar ``microbatch_time_ms`` /
    ``microbatch_activation_bytes`` once per distinct window.
    """

    def _window_shape(self, ordered: Sequence[Sample], start: int, end: int) -> MicroBatchShape:
        """Padded shape of the micro-batch formed from ``ordered[start:end]``."""
        window = ordered[start:end]
        if self.decoder_only:
            enc = max(s.total_tokens for s in window)
            dec = 0
        else:
            enc = max(s.input_tokens for s in window)
            dec = max(s.target_tokens for s in window)
        return MicroBatchShape(batch_size=end - start, enc_seq_len=enc, dec_seq_len=dec)

    def split_with_solution(
        self, samples: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> tuple[BatchingResult, DPSolution | None]:
        if not samples:
            return BatchingResult(micro_batches=[]), None
        mode = self.recompute if recompute is None else recompute
        ordered = order_samples(samples, self.ordering, decoder_only=self.decoder_only)
        shape_cache: dict[tuple[int, int], MicroBatchShape] = {}

        def window_shape(start: int, end: int) -> MicroBatchShape:
            key = (start, end)
            if key not in shape_cache:
                shape_cache[key] = self._window_shape(ordered, start, end)
            return shape_cache[key]

        solution = solve_partition_scalar(
            num_samples=len(ordered),
            num_stages=self.cost_model.num_stages,
            time_fn=lambda start, end: self.cost_model.microbatch_time_ms(
                window_shape(start, end), mode
            ),
            feasible_fn=lambda start, end: self.cost_model.microbatch_activation_bytes(
                window_shape(start, end), mode
            )
            <= self.per_microbatch_memory_bytes,
            sum_weight=self.sum_weight,
            max_microbatch_size=self.max_microbatch_size,
            tmax_sample_count=self.tmax_sample_count,
        )
        micro_batches = [
            MicroBatch.from_samples(ordered[start:end], decoder_only=self.decoder_only)
            for start, end in solution.boundaries
        ]
        return BatchingResult(micro_batches=micro_batches), solution
