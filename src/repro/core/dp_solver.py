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

The inner DP runs against a :class:`WindowCostTable` of precomputed window
times and feasibility flags (built by
:class:`~repro.core.microbatch.DynamicMicroBatcher`, which costs only the
windows the DP can admit and the ``t_max`` probe windows), so no cost-model
call sits in the DP inner loop.  It advances every candidate's pass together,
end by end, scanning at each end only the widest admissible prefix of window
sizes.  The scalar callback DP it replaced is kept in
``tests/oracles/dp_scalar.py``; the equivalence suites require identical
partitions from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
            window shapes costed to fill the table: only the windows the DP
            can admit and the ``t_max`` probe windows.
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
    """Window time / feasibility tables for the DP.

    Row ``start``, column ``size - 1`` describes the window
    ``[start, start + size)``.  Entries beyond the sample count and uncosted
    windows hold ``inf`` time and ``False`` feasibility.  The DP reads the
    windows of each end up to its first infeasible one and the windows of
    :func:`tmax_probe_windows`, so those must be costed.

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


def tmax_probe_windows(
    num_samples: int, max_microbatch_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, sizes)`` of the windows probed for ``t_max`` candidates.

    Every few start positions (a stride of ``num_samples // 64``, at least
    1), the windows of power-of-two sizes up to ``max_microbatch_size`` that
    fit in the mini-batch, start-major.  The window-cost table must cost
    these windows (besides the ones the DP can admit) for
    :func:`_tmax_candidates` to see their true times.
    """
    starts = np.arange(0, num_samples, max(1, num_samples // 64))
    sizes = 1 << np.arange(int(max_microbatch_size).bit_length())
    fits = starts[:, None] + sizes[None, :] <= num_samples
    start_index, size_index = np.nonzero(fits)
    return starts[start_index], sizes[size_index]


def _tmax_candidates(
    singleton_times: np.ndarray, probe_times: np.ndarray, sample_count: int
) -> list[float]:
    """Candidate values for the maximum micro-batch execution time.

    The exact formulation enumerates all O(N²) window times; the paper's
    speed-up samples the range at fixed intervals.  We probe the window
    times of :func:`tmax_probe_windows`, then thin the sorted unique values
    down to ``sample_count`` candidates.  The smallest candidate is always
    the largest singleton time (any smaller ``t_max`` admits no feasible
    partition).
    """
    singleton_max = float(np.max(singleton_times))
    probed = set(probe_times[probe_times >= singleton_max].tolist())
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


#: Ends whose admissible window times the DP materialises at a time (bounds
#: its memory to ``_END_BLOCK × candidates × widest window`` floats).
_END_BLOCK = 32


def _end_major(table: np.ndarray, fill: float | bool) -> np.ndarray:
    """``(end - 1, size - 1)`` view of a ``(start, size - 1)`` window table.

    Window ``[end - size, end)`` is ``table[end - size, size - 1]``, so a step
    along a view row is a step up and right in ``table``; windows starting
    before sample 0 read the ``max_window - 1`` rows of ``fill`` padded above.
    """
    num_samples, max_window = table.shape
    padded = np.full((num_samples + max_window - 1, max_window), fill, dtype=table.dtype)
    padded[max_window - 1 :] = table
    row, column = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded[max_window - 1 :], table.shape, (row, column - row), writeable=False
    )


def _partitions_for_tmax_batch(
    times: np.ndarray,
    feasible: np.ndarray,
    tmaxes: Sequence[float],
) -> list[tuple[list[tuple[int, int]], list[float]] | None]:
    """Eq. 2 DP for *all* ``t_max`` candidates in one (candidate, end) pass.

    The per-candidate passes are independent, so the recurrence advances
    every candidate together end by end.  The windows a candidate admits at
    ``end`` are a prefix of sizes: each must be memory-feasible and within
    ``t_max``, and window times grow with size.  Every ``(candidate, end)``
    prefix length is computed once — the end's feasible run, capped by a
    running maximum of its window times against the bound — and other window
    times are replaced by ``inf``, so each end scans only its widest prefix.
    Arithmetic and argmin tie-breaking (first minimum → smallest window) are
    those of the single-candidate recurrence (``tests/oracles/dp_scalar.py``),
    so each candidate's partition is bit-identical to running it alone.

    Returns one ``(boundaries, times)`` pair — or ``None`` when infeasible —
    per candidate, in input order.
    """
    num_samples = times.shape[0]
    feasible_run = np.logical_and.accumulate(_end_major(feasible, False), axis=1).sum(axis=1)
    width = int(feasible_run.max())
    end_times = _end_major(times[:, :width], np.inf)
    running_max = np.maximum.accumulate(end_times, axis=1)
    bounds = np.asarray(list(tmaxes), dtype=float)
    # prefix[end - 1, c]: the window sizes candidate c admits at `end`.
    prefix = np.minimum(
        (running_max[:, None, :] <= bounds[None, :, None]).sum(axis=2), feasible_run[:, None]
    )
    widest = prefix.max(axis=1).tolist()
    sizes = np.arange(1, width + 1)

    num_candidates = len(bounds)
    rows = np.arange(num_candidates)
    # reversed_cost[:, num_samples - e] is the best cost of the first e
    # samples, so sizes 1..w ending at `end` read one forward slice.  Every
    # candidate admits every singleton (the smallest t_max is the largest
    # singleton time), and no prefix runs past sample 0, so 1 <= w <= end.
    # best_prev of an unreachable (inf) state is never followed.
    reversed_cost = np.full((num_candidates, num_samples + 1), np.inf)
    reversed_cost[:, num_samples] = 0.0
    best_prev = np.full((num_candidates, num_samples + 1), -1, dtype=np.int64)
    for end in range(1, num_samples + 1):
        row = (end - 1) % _END_BLOCK
        if row == 0:
            # (end, candidate, size) window times, inf where inadmissible.
            block = slice(end - 1, end - 1 + _END_BLOCK)
            admissible_times = np.where(
                sizes <= prefix[block, :, None], end_times[block, None, :], np.inf
            )
        w = widest[end - 1]
        offset = num_samples - end + 1
        candidates = reversed_cost[:, offset : offset + w] + admissible_times[row, :, :w]
        pick = candidates.argmin(axis=1)
        reversed_cost[:, offset - 1] = candidates[rows, pick]
        best_prev[:, end] = end - 1 - pick

    results: list[tuple[list[tuple[int, int]], list[float]] | None] = []
    for c in range(num_candidates):
        if not np.isfinite(reversed_cost[c, 0]):
            results.append(None)
            continue
        boundaries: list[tuple[int, int]] = []
        end = num_samples
        while end > 0:
            start = int(best_prev[c, end])
            boundaries.append((start, end))
            end = start
        boundaries.reverse()
        results.append(
            (boundaries, [float(times[start, end - start - 1]) for start, end in boundaries])
        )
    return results


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

    probe_starts, probe_sizes = tmax_probe_windows(num_samples, max_microbatch_size)
    candidates = _tmax_candidates(
        cost_table.times[:, 0],
        cost_table.times[probe_starts, probe_sizes - 1],
        tmax_sample_count,
    )

    # All candidate DP passes advance together in one (candidate, end) grid;
    # the selection below scans candidates in their original (sorted) order,
    # so the winner matches a sequential per-candidate loop exactly.
    window = min(max_microbatch_size, num_samples)
    results = _partitions_for_tmax_batch(
        cost_table.times[:, :window], cost_table.feasible[:, :window], candidates
    )

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
