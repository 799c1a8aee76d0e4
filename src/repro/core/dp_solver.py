"""Dynamic-programming micro-batch partitioning (paper §4, Eq. 1/2).

Given an *ordered* list of samples, the partitioner chooses split points so
that consecutive samples form micro-batches minimising the modelled
iteration time

    (c - 1) · max_i t(M_i)  +  w · Σ_i t(M_i)

where ``c`` is the number of pipeline stages, ``t(M)`` is the forward +
backward time of micro-batch ``M`` on the bottleneck stage (from the cost
model) and ``w`` is 1 for a single pipeline or ``1 / |D|`` when the
micro-batches will later be spread over ``|D|`` data-parallel replicas.

Following the paper, the outer minimisation over the maximum micro-batch
time ``t_max`` enumerates candidate values (sampled at fixed intervals to
bound the O(N⁴) exact formulation), and for each candidate an O(N·W) DP
finds the best partition whose micro-batches all respect ``t_max`` and the
per-micro-batch memory limit.

The inner DP runs against a dense :class:`WindowCostTable` of precomputed
window times and feasibility flags (built by
:class:`~repro.core.microbatch.DynamicMicroBatcher` from one batched
cost-model query over the unique window shapes) and advances the
independent per-candidate DP passes together over one ``(candidate, end)``
grid instead of looping candidates in Python, so no cost-model call sits in
the DP inner loop.  The scalar callback DP it replaced is kept in
``tests/oracles/dp_scalar.py``; the equivalence suites require identical
partitions from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class PartitionError(ValueError):
    """Raised when no feasible partition exists (e.g. a single sample's
    micro-batch already violates the memory limit)."""


@dataclass
class DPSolution:
    """Result of :func:`solve_partition`.

    Attributes:
        boundaries: Half-open index ranges ``(start, end)`` of the chosen
            micro-batches, in order.
        times: Modelled execution time of each chosen micro-batch.
        objective: Value of the optimised objective for the chosen partition.
        tmax_used: The ``t_max`` candidate that produced the best partition.
        candidates_evaluated: Number of ``t_max`` candidates tried.
        cost_evaluations: Number of cost-function evaluations performed
            (reported by the planning-time experiment, Fig. 17): the unique
            window shapes costed by the batched cost-model query.
    """

    boundaries: list[tuple[int, int]]
    times: list[float]
    objective: float
    tmax_used: float
    candidates_evaluated: int = 0
    cost_evaluations: int = 0

    @property
    def num_microbatches(self) -> int:
        """Number of micro-batches in the partition."""
        return len(self.boundaries)

    @property
    def max_time(self) -> float:
        """Largest micro-batch time in the partition."""
        return max(self.times) if self.times else 0.0

    @property
    def total_time(self) -> float:
        """Sum of micro-batch times in the partition."""
        return sum(self.times)


@dataclass
class WindowCostTable:
    """Dense window time / feasibility tables for the DP.

    Row ``start``, column ``size - 1`` describes the window
    ``[start, start + size)``.  Entries beyond the sample count hold ``inf``
    time and ``False`` feasibility.

    Attributes:
        times: ``(num_samples, max_window)`` window execution times in ms.
        feasible: ``(num_samples, max_window)`` memory-feasibility flags.
        unique_shape_evaluations: Number of unique window shapes that were
            costed to fill the table (the DP's ``cost_evaluations``).
    """

    times: np.ndarray
    feasible: np.ndarray
    unique_shape_evaluations: int = 0

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if self.times.shape != self.feasible.shape or self.times.ndim != 2:
            raise ValueError(
                f"times {self.times.shape} and feasible {self.feasible.shape} must "
                "be equal 2-D shapes"
            )

    @property
    def num_samples(self) -> int:
        """Number of samples the table covers."""
        return self.times.shape[0]

    @property
    def max_window(self) -> int:
        """Largest window size the table covers."""
        return self.times.shape[1]

    def time(self, start: int, end: int) -> float:
        """Window time of ``[start, end)``."""
        return float(self.times[start, end - start - 1])


def _tmax_candidates(
    time: Callable[[int, int], float],
    num_samples: int,
    max_microbatch_size: int,
    sample_count: int,
) -> list[float]:
    """Candidate values for the maximum micro-batch execution time.

    The exact formulation enumerates all O(N²) window times; the paper's
    speed-up samples the range at fixed intervals.  We probe window times at
    geometrically growing window sizes from every few start positions, then
    thin the sorted unique values down to ``sample_count`` candidates.  The
    smallest candidate is always the largest singleton time (any smaller
    ``t_max`` admits no feasible partition).
    """
    singleton_max = max(time(i, i + 1) for i in range(num_samples))
    probed: set[float] = set()
    stride = max(1, num_samples // 64)
    for start in range(0, num_samples, stride):
        size = 1
        while size <= max_microbatch_size and start + size <= num_samples:
            window_time = time(start, start + size)
            if window_time >= singleton_max:
                probed.add(window_time)
            size *= 2
    probed.add(singleton_max)
    values = sorted(probed)
    if len(values) <= sample_count:
        return values
    if sample_count <= 1:
        # The smallest probed value (the largest singleton time) is the one
        # candidate guaranteed to admit a partition.
        return [values[0]]
    # Thin to roughly evenly spaced candidates over the sorted list, always
    # keeping the smallest and largest.
    step = (len(values) - 1) / (sample_count - 1)
    picked = [values[int(round(i * step))] for i in range(sample_count)]
    return sorted(set(picked))


def _partitions_for_tmax_batch(
    end_times: np.ndarray,
    end_feasible: np.ndarray,
    num_samples: int,
    tmaxes: Sequence[float],
) -> list[tuple[list[tuple[int, int]], list[float]] | None]:
    """Eq. 2 DP for *all* ``t_max`` candidates in one (candidate, end) pass.

    The per-candidate DP passes are independent (ROADMAP: "Parallel t_max
    candidates"), so instead of looping candidates in Python the recurrence
    advances a ``(num_candidates, num_samples + 1)`` cost matrix end by end:
    each step evaluates every candidate's admissible window sizes with one
    batch of numpy operations.  Arithmetic, admissible-prefix computation and
    argmin tie-breaking (first minimum → smallest window) are exactly those
    of the single-candidate recurrence (``tests/oracles/dp_scalar.py``), so
    each candidate's partition is bit-identical to running it alone.

    Returns one ``(boundaries, times)`` pair — or ``None`` when infeasible —
    per candidate, in input order.
    """
    num_candidates = len(tmaxes)
    max_window = end_times.shape[1]
    bounds = np.asarray(list(tmaxes), dtype=float)[:, None]
    best_cost = np.full((num_candidates, num_samples + 1), np.inf)
    best_prev = np.full((num_candidates, num_samples + 1), -1, dtype=np.int64)
    best_cost[:, 0] = 0.0
    rows = np.arange(num_candidates)
    for end in range(1, num_samples + 1):
        row_times = end_times[end - 1]
        # Admissible sizes form a contiguous prefix (window times grow with
        # window size); logical-and accumulation stops at the first violation.
        admissible = (row_times[None, :] <= bounds) & end_feasible[end - 1][None, :]
        prefix_mask = np.logical_and.accumulate(admissible, axis=1)
        # Window size s ends at `end` and starts at `end - s`; sizes
        # 1..min(max_window, end) map onto best_cost[:, end - 1 .. end - s],
        # i.e. a reversed slice (padded with inf for sizes larger than end).
        width = min(max_window, end)
        prev_cost = np.full((num_candidates, max_window), np.inf)
        prev_cost[:, :width] = best_cost[:, end - width : end][:, ::-1]
        candidates = np.where(prefix_mask, prev_cost + row_times[None, :], np.inf)
        pick = np.argmin(candidates, axis=1)
        values = candidates[rows, pick]
        update = np.isfinite(values)
        best_cost[update, end] = values[update]
        best_prev[update, end] = end - (pick[update] + 1)

    results: list[tuple[list[tuple[int, int]], list[float]] | None] = []
    for c in range(num_candidates):
        if not np.isfinite(best_cost[c, num_samples]):
            results.append(None)
            continue
        boundaries: list[tuple[int, int]] = []
        end = num_samples
        while end > 0:
            start = int(best_prev[c, end])
            boundaries.append((start, end))
            end = start
        boundaries.reverse()
        times = [float(end_times[end - 1, end - start - 1]) for start, end in boundaries]
        results.append((boundaries, times))
    return results


def _end_major_tables(
    times: np.ndarray, feasible: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-index (start, size) window tables by (end, size) for the DP inner loop."""
    n, max_window = times.shape
    ends = np.arange(1, n + 1)[:, None]
    sizes = np.arange(1, max_window + 1)[None, :]
    starts = ends - sizes
    valid = starts >= 0
    clipped = np.where(valid, starts, 0)
    end_times = np.where(valid, times[clipped, sizes - 1], np.inf)
    end_feasible = valid & feasible[clipped, sizes - 1]
    return end_times, end_feasible


def solve_partition(
    cost_table: WindowCostTable,
    num_stages: int,
    sum_weight: float = 1.0,
    max_microbatch_size: int = 512,
    tmax_sample_count: int = 24,
) -> DPSolution:
    """Find the micro-batch partition minimising the Eq. 1 objective.

    Args:
        cost_table: Dense window costs of the (already ordered) samples;
            the number of samples is its row count.
        num_stages: Number of pipeline stages ``c``.
        sum_weight: Weight of the Σ t(M) term (``1/|D|`` under data parallelism).
        max_microbatch_size: Upper bound on samples per micro-batch (bounds
            the DP inner loop; generous by default).
        tmax_sample_count: Number of ``t_max`` candidates to evaluate.

    Raises:
        PartitionError: If even single-sample micro-batches are infeasible.
    """
    num_samples = cost_table.num_samples
    if num_samples < 1:
        raise ValueError(f"cost table must cover >= 1 sample, got {num_samples}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if sum_weight <= 0:
        raise ValueError(f"sum_weight must be > 0, got {sum_weight}")
    if max_microbatch_size < 1:
        raise ValueError(f"max_microbatch_size must be >= 1, got {max_microbatch_size}")
    if cost_table.max_window < min(max_microbatch_size, num_samples):
        raise ValueError(
            f"cost table max window {cost_table.max_window} is smaller than "
            f"max_microbatch_size {max_microbatch_size}"
        )

    singleton_feasible = cost_table.feasible[:, 0]
    if not singleton_feasible.all():
        index = int(np.argmin(singleton_feasible))
        raise PartitionError(
            f"sample {index} alone exceeds the per-micro-batch memory limit; "
            "increase the device memory limit or enable recomputation"
        )

    candidates = _tmax_candidates(
        cost_table.time, num_samples, max_microbatch_size, tmax_sample_count
    )

    window = min(max_microbatch_size, num_samples)
    end_times, end_feasible = _end_major_tables(
        cost_table.times[:, :window], cost_table.feasible[:, :window]
    )

    # All candidate DP passes advance together in one (candidate, end) grid;
    # the selection below scans candidates in their original (sorted) order,
    # so the winner matches a sequential per-candidate loop exactly.
    results = _partitions_for_tmax_batch(end_times, end_feasible, num_samples, candidates)

    best: DPSolution | None = None
    for tmax, result in zip(candidates, results):
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
    best.cost_evaluations = cost_table.unique_shape_evaluations
    return best
