"""Tests for the dynamic-programming micro-batch partitioner (paper §4)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.dp_solver import PartitionError, WindowCostTable, solve_partition

from oracles.dp_scalar import solve_partition_scalar


def window_time_from_lengths(lengths, cost_per_token: float = 1.0):
    """Window time model: padded tokens of the window (batch * max length)."""

    def time_fn(start: int, end: int) -> float:
        window = lengths[start:end]
        return cost_per_token * len(window) * max(window)

    return time_fn


def table_from_fns(num_samples, max_window, time_fn, feasible_fn=None):
    """Dense WindowCostTable built by evaluating the scalar callbacks."""
    window = min(max_window, num_samples)
    times = np.full((num_samples, window), np.inf)
    feasible = np.zeros((num_samples, window), dtype=bool)
    for start in range(num_samples):
        for size in range(1, min(window, num_samples - start) + 1):
            times[start, size - 1] = time_fn(start, start + size)
            feasible[start, size - 1] = (
                feasible_fn(start, start + size) if feasible_fn else True
            )
    return WindowCostTable(
        times=times, feasible=feasible, unique_shape_evaluations=num_samples * window
    )


def solve(num_samples, num_stages, time_fn, feasible_fn=None, **kwargs):
    """``solve_partition`` over a table filled from the scalar callbacks."""
    table = table_from_fns(num_samples, 512, time_fn, feasible_fn)
    return solve_partition(table, num_stages, **kwargs)


def brute_force_best(lengths, num_stages, sum_weight=1.0):
    """Exhaustive search over all contiguous partitions (small N only)."""
    n = len(lengths)
    time_fn = window_time_from_lengths(lengths)
    best = None
    for split_mask in itertools.product([0, 1], repeat=n - 1):
        boundaries = [0] + [i + 1 for i, bit in enumerate(split_mask) if bit] + [n]
        times = [time_fn(a, b) for a, b in zip(boundaries, boundaries[1:])]
        objective = (num_stages - 1) * max(times) + sum_weight * sum(times)
        if best is None or objective < best:
            best = objective
    return best


class TestBasicPartitioning:
    def test_uniform_lengths_grouped_together(self):
        """With identical samples and a per-micro-batch launch overhead, the
        optimum groups several samples per micro-batch rather than one each
        (fewer micro-batches amortise the overhead)."""
        lengths = [100] * 16

        def time_with_overhead(start: int, end: int) -> float:
            return 50.0 + window_time_from_lengths(lengths)(start, end)

        solution = solve(16, 4, time_with_overhead)
        assert solution.num_microbatches < 16

    def test_single_sample(self):
        solution = solve(1, 4, window_time_from_lengths([100]))
        assert solution.boundaries == [(0, 1)]
        assert solution.num_microbatches == 1

    def test_boundaries_cover_all_samples_contiguously(self):
        lengths = [10, 20, 500, 30, 40, 600, 50]
        solution = solve(len(lengths), 3, window_time_from_lengths(lengths))
        expected_start = 0
        for start, end in solution.boundaries:
            assert start == expected_start
            assert end > start
            expected_start = end
        assert expected_start == len(lengths)

    def test_times_match_time_fn(self):
        lengths = [10, 20, 500, 30]
        time_fn = window_time_from_lengths(lengths)
        solution = solve(4, 3, time_fn)
        for (start, end), recorded in zip(solution.boundaries, solution.times):
            assert recorded == pytest.approx(time_fn(start, end))

    def test_objective_consistent_with_partition(self):
        lengths = [10, 20, 500, 30, 40]
        solution = solve(5, 4, window_time_from_lengths(lengths))
        expected = 3 * solution.max_time + solution.total_time
        assert solution.objective == pytest.approx(expected)

    def test_metadata_populated(self):
        solution = solve(6, 2, window_time_from_lengths([10] * 6))
        assert solution.candidates_evaluated >= 1
        assert solution.cost_evaluations > 0
        assert solution.tmax_used >= solution.max_time - 1e-9


class TestOptimality:
    @pytest.mark.parametrize(
        "lengths",
        [
            [100, 100, 100, 100],
            [10, 20, 1000, 30],
            [500, 20, 20, 20, 500],
            [64, 64, 256, 256, 1024, 16],
            [1, 1, 1, 1000, 1, 1, 1],
        ],
    )
    @pytest.mark.parametrize("num_stages", [1, 2, 4])
    def test_matches_brute_force(self, lengths, num_stages):
        """With enough t_max candidates the DP matches exhaustive search."""
        solution = solve(
            len(lengths),
            num_stages,
            window_time_from_lengths(lengths),
            tmax_sample_count=256,
        )
        assert solution.objective == pytest.approx(
            brute_force_best(lengths, num_stages), rel=1e-6
        )

    def test_sum_weight_changes_optimum(self):
        """A small Σ-weight (many data-parallel replicas) favours more, smaller
        micro-batches because the max-term dominates."""
        lengths = [100] * 12
        heavy_sum = solve(12, 8, window_time_from_lengths(lengths), sum_weight=1.0)
        light_sum = solve(12, 8, window_time_from_lengths(lengths), sum_weight=1.0 / 8)
        assert light_sum.num_microbatches >= heavy_sum.num_microbatches

    def test_more_stages_prefer_smaller_max(self):
        """With more stages the (c-1)*max term grows, so the largest
        micro-batch shrinks (or stays the same)."""
        lengths = [50, 60, 70, 80, 500, 90, 100, 110]
        few = solve(8, 2, window_time_from_lengths(lengths))
        many = solve(8, 16, window_time_from_lengths(lengths))
        assert many.max_time <= few.max_time + 1e-9


class TestConstraints:
    def test_memory_limit_respected(self):
        lengths = [100] * 10

        def feasible(start: int, end: int) -> bool:
            return (end - start) <= 3  # at most 3 samples per micro-batch

        solution = solve(10, 2, window_time_from_lengths(lengths), feasible)
        assert all(end - start <= 3 for start, end in solution.boundaries)

    def test_max_microbatch_size_respected(self):
        lengths = [10] * 20
        solution = solve(20, 1, window_time_from_lengths(lengths), max_microbatch_size=4)
        assert all(end - start <= 4 for start, end in solution.boundaries)

    def test_infeasible_singleton_raises(self):
        with pytest.raises(PartitionError):
            solve(3, 2, window_time_from_lengths([10, 10, 10]), lambda start, end: False)

    def test_invalid_arguments(self):
        table = table_from_fns(1, 512, window_time_from_lengths([1]))
        empty = WindowCostTable(times=np.zeros((0, 1)), feasible=np.zeros((0, 1), dtype=bool))
        with pytest.raises(ValueError):
            solve_partition(empty, 1)
        with pytest.raises(ValueError):
            solve_partition(table, 0)
        with pytest.raises(ValueError):
            solve_partition(table, 1, sum_weight=0.0)
        with pytest.raises(ValueError):
            solve_partition(table, 1, max_microbatch_size=0)


class TestTmaxSampleGuard:
    def test_single_candidate_count(self):
        """tmax_sample_count=1 must not divide by zero when thinning (the
        probe set is larger than one candidate for diverse lengths); the
        scalar oracle makes the same single choice."""
        lengths = [10, 25, 40, 700, 90, 1000, 15, 300, 55, 80, 120, 650]
        time_fn = window_time_from_lengths(lengths)
        solution = solve(len(lengths), 4, time_fn, tmax_sample_count=1)
        reference = solve_partition_scalar(len(lengths), 4, time_fn, tmax_sample_count=1)
        assert solution.candidates_evaluated == reference.candidates_evaluated == 1
        assert solution.boundaries == reference.boundaries
        assert solution.boundaries[0][0] == 0

    def test_single_candidate_count_table_path(self):
        lengths = [10, 25, 40, 700, 90, 1000, 15, 300, 55, 80, 120, 650]
        table = table_from_fns(len(lengths), 512, window_time_from_lengths(lengths))
        solution = solve_partition(table, 4, tmax_sample_count=1)
        assert solution.candidates_evaluated == 1
        assert solution.boundaries[-1][1] == len(lengths)


class TestVectorizedTablePath:
    """The dense-table DP must reproduce the scalar oracle exactly."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("num_stages", [1, 4])
    def test_matches_scalar_on_seeded_inputs(self, seed, num_stages):
        rng = np.random.default_rng(seed)
        lengths = [int(x) for x in rng.integers(1, 2048, size=int(rng.integers(2, 40)))]
        lengths.sort()
        time_fn = window_time_from_lengths(lengths)

        def feasible_fn(start, end):
            # Monotone in window size (mirrors the activation-memory limit).
            return (end - start) * max(lengths[start:end]) <= 4096

        scalar = solve_partition_scalar(
            len(lengths), num_stages, time_fn=time_fn, feasible_fn=feasible_fn,
            tmax_sample_count=16,
        )
        table = table_from_fns(len(lengths), 512, time_fn, feasible_fn)
        vectorized = solve_partition(table, num_stages, tmax_sample_count=16)
        assert vectorized.boundaries == scalar.boundaries
        assert vectorized.times == scalar.times
        assert vectorized.objective == scalar.objective
        assert vectorized.tmax_used == scalar.tmax_used
        assert vectorized.candidates_evaluated == scalar.candidates_evaluated

    def test_max_microbatch_size_respected(self):
        lengths = [10] * 20
        table = table_from_fns(20, 4, window_time_from_lengths(lengths))
        solution = solve_partition(table, 1, max_microbatch_size=4)
        assert all(end - start <= 4 for start, end in solution.boundaries)

    def test_infeasible_singleton_raises(self):
        table = table_from_fns(
            3, 512, window_time_from_lengths([10, 10, 10]), lambda s, e: False
        )
        with pytest.raises(PartitionError):
            solve_partition(table, 2)

    def test_table_too_small_rejected(self):
        table = table_from_fns(8, 4, window_time_from_lengths([10] * 8))
        with pytest.raises(ValueError):
            solve_partition(table, 2, max_microbatch_size=8)


def assert_matches_scalar(lengths, num_stages, time_fn, feasible_fn=None, **kwargs):
    """The table DP and the scalar oracle agree on every solution field."""
    n = len(lengths)
    scalar = solve_partition_scalar(n, num_stages, time_fn, feasible_fn, **kwargs)
    table = solve(n, num_stages, time_fn, feasible_fn, **kwargs)
    assert table.boundaries == scalar.boundaries
    assert table.times == scalar.times
    assert table.objective == scalar.objective
    assert table.tmax_used == scalar.tmax_used
    assert table.candidates_evaluated == scalar.candidates_evaluated
    return table


class TestPrefixTrimmedDP:
    """Ties and edge cases of the prefix-trimmed DP against the scalar oracle."""

    @pytest.mark.parametrize("num_stages", [1, 3])
    @pytest.mark.parametrize("tmax_sample_count", [1, 24])
    def test_identical_sample_runs_tie(self, num_stages, tmax_sample_count):
        """Runs of identical samples give equal-cost windows, so argmin
        ties: the first minimum (the smallest window) must win."""
        lengths = [50] * 12 + [80] * 9 + [50] * 5
        time_fn = window_time_from_lengths(lengths)
        assert_matches_scalar(
            lengths, num_stages, time_fn, tmax_sample_count=tmax_sample_count
        )
        assert_matches_scalar(
            lengths,
            num_stages,
            time_fn,
            lambda start, end: end - start <= 4,
            tmax_sample_count=tmax_sample_count,
        )

    def test_ample_memory_admits_full_window(self):
        """With no memory limit and a per-micro-batch overhead the whole
        mini-batch is one window: the widest prefix is the full window."""
        lengths = [10] * 16

        def time_fn(start, end):
            return 1.0 + window_time_from_lengths(lengths)(start, end)

        solution = assert_matches_scalar(lengths, 1, time_fn, max_microbatch_size=16)
        assert solution.boundaries == [(0, 16)]

    def test_single_candidate_with_memory_cut(self):
        lengths = [5, 5, 900, 5, 40, 40, 40, 5, 5, 5, 300, 300]
        time_fn = window_time_from_lengths(lengths)
        solution = assert_matches_scalar(
            lengths,
            4,
            time_fn,
            lambda start, end: time_fn(start, end) <= 1000,
            tmax_sample_count=1,
        )
        assert solution.candidates_evaluated == 1

    @given(
        lengths=st.lists(st.sampled_from([8, 16, 64, 300]), min_size=1, max_size=30),
        num_stages=st.integers(1, 4),
        overhead=st.sampled_from([0.0, 1.0]),
        budget=st.sampled_from([float("inf"), 64, 512, 4096]),
        max_microbatch_size=st.integers(1, 32),
        tmax_sample_count=st.sampled_from([1, 2, 3, 24]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_with_ties(
        self, lengths, num_stages, overhead, budget, max_microbatch_size, tmax_sample_count
    ):
        padded = window_time_from_lengths(lengths)

        def time_fn(start, end):
            return overhead + padded(start, end)

        def feasible_fn(start, end):
            return padded(start, end) <= budget

        kwargs = dict(
            max_microbatch_size=max_microbatch_size, tmax_sample_count=tmax_sample_count
        )
        if max(lengths) > budget:
            with pytest.raises(PartitionError):
                solve(len(lengths), num_stages, time_fn, feasible_fn, **kwargs)
            return
        assert_matches_scalar(lengths, num_stages, time_fn, feasible_fn, **kwargs)


class TestProperties:
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=24),
        num_stages=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_always_valid(self, lengths, num_stages):
        """Property: the DP always returns a contiguous cover of the samples
        whose objective is at least as good as the two trivial partitions
        (all singletons; one big micro-batch)."""
        time_fn = window_time_from_lengths(lengths)
        solution = solve(len(lengths), num_stages, time_fn, tmax_sample_count=64)
        # Contiguous cover.
        assert solution.boundaries[0][0] == 0
        assert solution.boundaries[-1][1] == len(lengths)
        for (a, b), (c, d) in zip(solution.boundaries, solution.boundaries[1:]):
            assert b == c
        # No worse than the trivial partitions.
        singleton_times = [time_fn(i, i + 1) for i in range(len(lengths))]
        singleton_obj = (num_stages - 1) * max(singleton_times) + sum(singleton_times)
        whole_time = time_fn(0, len(lengths))
        whole_obj = (num_stages - 1) * whole_time + whole_time
        assert solution.objective <= singleton_obj + 1e-6
        assert solution.objective <= whole_obj + 1e-6
