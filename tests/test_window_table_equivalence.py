"""The reachable-window table against the dense table it replaced.

:meth:`DynamicMicroBatcher.build_window_cost_table` costs only the windows
the DP can admit (each end position up to its first memory-infeasible
window) plus the ``t_max`` probe windows.  The dense builder in
``tests/oracles/window_table_dense.py`` costs every window.  The DP must
not tell them apart: :func:`solve_partition` returns identical boundaries,
times, objective, ``t_max`` and candidate count on both, or the same
:class:`PartitionError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dp_solver import PartitionError, solve_partition, tmax_probe_windows
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.ordering import OrderingMethod, order_samples
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode

from oracles.window_table_dense import DenseWindowTableBatcher

#: ``max_profile_seq_len`` of the test cost models.
MAX_SEQ_LEN = 2048
_lengths = st.one_of(st.integers(1, MAX_SEQ_LEN), st.just(MAX_SEQ_LEN))
#: Where the per-micro-batch memory limit cuts the windows.
LIMITS = ("size1", "size2", "mid", "never")


def _memory_limit(cost_model, ordered, decoder_only, mode, cut, factor):
    """A per-micro-batch limit that cuts the windows as ``cut`` names.

    ``size1``: the largest singleton breaks it (the singleton gate);
    ``size2``: every singleton fits exactly, so windows widen the largest
    sample past it at size 2; ``mid``: ``factor`` times that; ``never``: no
    limit.
    """
    if cut == "never":
        return float("inf")
    if decoder_only:
        enc = [s.total_tokens for s in ordered]
        dec = [0] * len(ordered)
    else:
        enc = [s.input_tokens for s in ordered]
        dec = [s.target_tokens for s in ordered]
    _, activation = cost_model.window_costs_arrays(
        np.ones(len(ordered), dtype=np.int64), np.array(enc), np.array(dec), mode
    )
    largest = float(activation.max())
    if cut == "size1":
        return float(np.nextafter(largest, 0.0))
    return largest if cut == "size2" else largest * factor


def _solve(table, batcher, num_stages):
    """``solve_partition``'s outputs, or its ``PartitionError`` message."""
    try:
        solution = solve_partition(
            table,
            num_stages=num_stages,
            sum_weight=batcher.sum_weight,
            max_microbatch_size=batcher.max_microbatch_size,
            tmax_sample_count=batcher.tmax_sample_count,
        )
    except PartitionError as error:
        return str(error)
    return (
        solution.boundaries,
        solution.times,
        solution.objective,
        solution.tmax_used,
        solution.candidates_evaluated,
    )


def _assert_equivalent(cost_model, ordered, mode, **kwargs):
    """Both tables give the same DP result; returns the two tables."""
    fast = DynamicMicroBatcher(cost_model, recompute=mode, **kwargs)
    dense = DenseWindowTableBatcher(cost_model, recompute=mode, **kwargs)
    fast_table = fast.build_window_cost_table(ordered)
    dense_table = dense.build_window_cost_table(ordered)

    costed = np.isfinite(fast_table.times)
    np.testing.assert_array_equal(fast_table.times[costed], dense_table.times[costed])
    np.testing.assert_array_equal(fast_table.feasible[costed], dense_table.feasible[costed])
    assert not fast_table.feasible[~costed].any()
    assert fast_table.unique_shape_evaluations <= dense_table.unique_shape_evaluations

    if dense_table.feasible[:, 0].all():
        # Each end is costed up to and including its first infeasible window
        # (or its last window), and every t_max probe window is costed.
        n, width = dense_table.times.shape
        for end in range(1, n + 1):
            run = 0
            while run < min(width, end) and dense_table.feasible[end - run - 1, run]:
                run += 1
            for size in range(1, min(run + 1, width, end) + 1):
                assert costed[end - size, size - 1], (end, size)
        starts, sizes = tmax_probe_windows(n, fast.max_microbatch_size)
        assert costed[starts, sizes - 1].all()
    else:
        assert costed[:, 0].all() and not costed[:, 1:].any()

    num_stages = cost_model.num_stages
    assert _solve(fast_table, fast, num_stages) == _solve(dense_table, dense, num_stages)
    return fast_table, dense_table


class TestHypothesisEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        lengths=st.lists(
            st.tuples(_lengths, st.one_of(_lengths, st.just(0))), min_size=1, max_size=28
        ),
        decoder_only=st.booleans(),
        sort=st.booleans(),
        max_microbatch_size=st.integers(1, 8),
        tmax_sample_count=st.sampled_from([1, 2, 5, 24]),
        cut=st.sampled_from(LIMITS),
        factor=st.floats(1.5, 6.0),
        mode=st.sampled_from(list(RecomputeMode)),
    )
    @example(
        lengths=[(MAX_SEQ_LEN, 0)] * 6,
        decoder_only=False,
        sort=True,
        max_microbatch_size=8,
        tmax_sample_count=24,
        cut="size2",
        factor=2.0,
        mode=RecomputeMode.NONE,
    )
    @example(
        lengths=[(100, 3), (2000, 0), (7, 1500), (900, 0), (64, 64)],
        decoder_only=False,
        sort=False,
        max_microbatch_size=3,
        tmax_sample_count=1,
        cut="mid",
        factor=1.5,
        mode=RecomputeMode.SELECTIVE,
    )
    def test_identical_partitions(
        self,
        gpt_cost_model,
        t5_cost_model,
        lengths,
        decoder_only,
        sort,
        max_microbatch_size,
        tmax_sample_count,
        cut,
        factor,
        mode,
    ):
        """GPT and T5 (zero-length targets included), sorted and unsorted,
        memory limits that cut at size 1, at size 2, mid-window and never."""
        if decoder_only:
            samples = [Sample(min(i + t, MAX_SEQ_LEN), 0) for i, t in lengths]
        else:
            samples = [Sample(i, t) for i, t in lengths]
        cost_model = gpt_cost_model if decoder_only else t5_cost_model
        ordered = (
            order_samples(samples, OrderingMethod.SORT, decoder_only=decoder_only)
            if sort
            else samples
        )
        limit = _memory_limit(cost_model, ordered, decoder_only, mode, cut, factor)
        _assert_equivalent(
            cost_model,
            ordered,
            mode,
            per_microbatch_memory_bytes=limit,
            max_microbatch_size=max_microbatch_size,
            tmax_sample_count=tmax_sample_count,
        )


class TestSeededEquivalence:
    """Full-size windows (``max_microbatch_size`` 256) on FLAN-like batches."""

    @pytest.mark.parametrize("mode", list(RecomputeMode))
    @pytest.mark.parametrize("arch", ["gpt", "t5"])
    def test_default_limit(
        self, gpt_cost_model, t5_cost_model, flan_samples, flan_samples_gpt, arch, mode
    ):
        decoder_only = arch == "gpt"
        cost_model = gpt_cost_model if decoder_only else t5_cost_model
        samples = (flan_samples_gpt if decoder_only else flan_samples)[:240]
        ordered = order_samples(samples, OrderingMethod.SORT, decoder_only=decoder_only)
        fast, dense = _assert_equivalent(cost_model, ordered, mode)
        # The limit cuts some window but no singleton: fewer shapes costed.
        cuts = np.isfinite(dense.times) & ~dense.feasible
        if dense.feasible[:, 0].all() and cuts.any():
            assert fast.unique_shape_evaluations < dense.unique_shape_evaluations

    @pytest.mark.parametrize("cut", LIMITS)
    def test_unsorted_t5(self, t5_cost_model, flan_samples, cut):
        ordered = flan_samples[100:300]
        limit = _memory_limit(
            t5_cost_model, ordered, False, RecomputeMode.NONE, cut, factor=3.0
        )
        _assert_equivalent(
            t5_cost_model, ordered, RecomputeMode.NONE, per_microbatch_memory_bytes=limit
        )

    def test_split_matches_dense_batcher(self, gpt_cost_model, flan_samples_gpt):
        """Through ``split``: same micro-batches, fewer shapes costed."""
        samples = flan_samples_gpt[:200]
        fast = DynamicMicroBatcher(gpt_cost_model)
        dense = DenseWindowTableBatcher(gpt_cost_model)
        fast_result = fast.split(samples)
        dense_result = dense.split(samples)
        assert [mb.shape() for mb in fast_result.micro_batches] == [
            mb.shape() for mb in dense_result.micro_batches
        ]
        assert fast.last_solution.boundaries == dense.last_solution.boundaries
        assert fast.last_solution.objective == dense.last_solution.objective
        assert fast.last_solution.cost_evaluations < dense.last_solution.cost_evaluations
