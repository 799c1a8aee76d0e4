"""Tests for DynaPipe's dynamic micro-batch construction front end."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batching.metrics import padding_stats
from repro.batching.packing import PackingBatching
from repro.batching.token_based import TokenBasedBatching
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.ordering import OrderingMethod
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


@pytest.fixture(scope="module")
def gpt_batcher(gpt_cost_model):
    return DynamicMicroBatcher(gpt_cost_model, tmax_sample_count=12)


class TestSplit:
    def test_all_samples_preserved(self, gpt_batcher, flan_samples_gpt):
        samples = flan_samples_gpt[:80]
        result = gpt_batcher.split(samples)
        produced = sorted(s for mb in result.micro_batches for s in mb.samples())
        assert produced == sorted(samples)

    def test_empty_input(self, gpt_batcher):
        assert gpt_batcher.split([]).micro_batches == []

    def test_solution_metadata_recorded(self, gpt_batcher, flan_samples_gpt):
        gpt_batcher.split(flan_samples_gpt[:40])
        assert gpt_batcher.last_solution is not None
        assert gpt_batcher.last_solution.num_microbatches >= 1
        assert gpt_batcher.last_solution.cost_evaluations > 0

    def test_microbatches_ordered_by_length(self, gpt_cost_model, flan_samples_gpt):
        """With sorted ordering, consecutive micro-batches have non-decreasing
        padded sequence lengths."""
        batcher = DynamicMicroBatcher(gpt_cost_model, ordering=OrderingMethod.SORT)
        result = batcher.split(flan_samples_gpt[:60])
        lengths = [mb.enc_seq_len for mb in result.micro_batches]
        assert lengths == sorted(lengths)

    def test_decoder_only_flag_follows_model(self, gpt_batcher, t5_cost_model):
        assert gpt_batcher.decoder_only is True
        t5_batcher = DynamicMicroBatcher(t5_cost_model)
        assert t5_batcher.decoder_only is False

    def test_t5_split_works(self, t5_cost_model, flan_samples):
        batcher = DynamicMicroBatcher(t5_cost_model, tmax_sample_count=10)
        result = batcher.split(flan_samples[:60])
        assert result.micro_batches
        produced = sorted(s for mb in result.micro_batches for s in mb.samples())
        assert produced == sorted(flan_samples[:60])


class TestQuality:
    def test_padding_and_modelled_time_vs_packing(self, gpt_cost_model, flan_samples_gpt):
        """DynaPipe's padding efficiency is in the same ballpark as packing
        while its modelled time per real token is lower, because packing pays
        quadratic attention over the full packed length (paper Fig. 4)."""
        samples = flan_samples_gpt[:120]
        dp = DynamicMicroBatcher(gpt_cost_model, tmax_sample_count=12).split(samples)
        packing = PackingBatching(max_seq_len=1024, micro_batch_size=4, decoder_only=True).split(
            samples
        )
        dp_stats = padding_stats(dp.micro_batches)
        packing_stats = padding_stats(packing.micro_batches)
        assert dp_stats.overall_efficiency >= packing_stats.overall_efficiency - 0.15
        assert dp_stats.overall_efficiency > 0.75

        dp_time = gpt_cost_model.iteration_time_ms([mb.shape() for mb in dp.micro_batches])
        packing_time = gpt_cost_model.iteration_time_ms(
            [mb.shape() for mb in packing.micro_batches]
        )
        dp_time_per_token = dp_time / dp_stats.actual_tokens
        packing_time_per_token = packing_time / packing_stats.actual_tokens
        assert dp_time_per_token < packing_time_per_token

    def test_modelled_iteration_time_beats_token_based(self, gpt_cost_model, flan_samples_gpt):
        """The DP objective value (Eq. 1) should not be worse than what the
        token-based heuristic achieves on the same cost model (Fig. 16a)."""
        samples = flan_samples_gpt[:100]
        dp = DynamicMicroBatcher(gpt_cost_model, tmax_sample_count=16)
        dp_result = dp.split(samples)
        dp_time = gpt_cost_model.iteration_time_ms([mb.shape() for mb in dp_result.micro_batches])

        best_tb_time = float("inf")
        for budget in (2048, 4096, 8192, 16384, 32768):
            tb = TokenBasedBatching(budget, decoder_only=True).split(samples)
            tb_time = gpt_cost_model.iteration_time_ms([mb.shape() for mb in tb.micro_batches])
            best_tb_time = min(best_tb_time, tb_time)
        assert dp_time <= best_tb_time * 1.05

    def test_memory_limit_restricts_microbatch_size(self, gpt_cost_model, flan_samples_gpt):
        samples = flan_samples_gpt[:60]
        tight = DynamicMicroBatcher(
            gpt_cost_model,
            per_microbatch_memory_bytes=gpt_cost_model.min_activation_budget_bytes() / 16,
        )
        loose = DynamicMicroBatcher(
            gpt_cost_model,
            per_microbatch_memory_bytes=gpt_cost_model.min_activation_budget_bytes(),
        )
        tight_result = tight.split(samples)
        loose_result = loose.split(samples)
        assert len(tight_result.micro_batches) >= len(loose_result.micro_batches)
        for mb in tight_result.micro_batches:
            activation = gpt_cost_model.microbatch_activation_bytes(mb.shape())
            assert activation <= tight.per_microbatch_memory_bytes * (1 + 1e-9)

    def test_recompute_mode_changes_feasibility(self, gpt_cost_model, flan_samples_gpt):
        """A memory limit too tight for NONE-mode partitioning can still be
        satisfiable under FULL recomputation, which stores far fewer
        activations — the mechanism behind dynamic recomputation (§7).

        The infeasible mode is rejected by the singleton memory gate: its
        table costs only the size-1 shapes, and the DP raises the same
        error as the scalar reference path."""
        import numpy as np

        from repro.core.dp_solver import PartitionError
        from repro.core.ordering import order_samples
        from repro.core.planner import DynaPipePlanner, PlannerConfig
        from repro.model.transformer import MicroBatchShape

        samples = flan_samples_gpt[:60]
        largest = max(samples, key=lambda s: s.total_tokens)
        single_shape = MicroBatchShape(batch_size=1, enc_seq_len=largest.total_tokens)
        none_need = gpt_cost_model.microbatch_activation_bytes(single_shape, RecomputeMode.NONE)
        full_need = gpt_cost_model.microbatch_activation_bytes(single_shape, RecomputeMode.FULL)
        assert full_need < none_need
        limit = (full_need + none_need) / 2.0

        messages = []
        for vectorized in (True, False):
            with pytest.raises(PartitionError) as excinfo:
                DynamicMicroBatcher(
                    gpt_cost_model,
                    per_microbatch_memory_bytes=limit,
                    recompute=RecomputeMode.NONE,
                    vectorized=vectorized,
                ).split(samples)
            messages.append(str(excinfo.value))
        ordered = order_samples(samples, OrderingMethod.SORT, decoder_only=True)
        first_infeasible = next(
            i
            for i, sample in enumerate(ordered)
            if gpt_cost_model.microbatch_activation_bytes(
                MicroBatchShape(batch_size=1, enc_seq_len=sample.total_tokens)
            )
            > limit
        )
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"sample {first_infeasible} alone exceeds")

        gated = DynamicMicroBatcher(
            gpt_cost_model, per_microbatch_memory_bytes=limit
        ).build_window_cost_table(ordered, RecomputeMode.NONE)
        assert gated.unique_shape_evaluations == len({s.total_tokens for s in samples})
        assert np.isinf(gated.times[:, 1:]).all() and not gated.feasible[:, 1:].any()

        full_mode = DynamicMicroBatcher(
            gpt_cost_model, per_microbatch_memory_bytes=limit, recompute=RecomputeMode.FULL
        ).split(samples)
        assert full_mode.micro_batches

        # A planner retrying NONE -> SELECTIVE -> FULL matches the scalar
        # reference; its limit also rejects every SELECTIVE singleton.
        selective_need = gpt_cost_model.microbatch_activation_bytes(
            single_shape, RecomputeMode.SELECTIVE
        )
        assert full_need < selective_need
        planner_limit = (full_need + selective_need) / 2.0
        config = PlannerConfig(
            tmax_sample_count=8,
            order_search=False,
            per_microbatch_memory_fraction=planner_limit
            / gpt_cost_model.min_activation_budget_bytes(),
        )
        fast = DynaPipePlanner(gpt_cost_model, config=config)
        reference = DynaPipePlanner(gpt_cost_model, config=config)
        batcher = reference._batcher
        reference._batcher = DynamicMicroBatcher(
            gpt_cost_model,
            ordering=batcher.ordering,
            per_microbatch_memory_bytes=batcher.per_microbatch_memory_bytes,
            sum_weight=batcher.sum_weight,
            tmax_sample_count=batcher.tmax_sample_count,
            max_microbatch_size=batcher.max_microbatch_size,
            vectorized=False,
        )
        fast_plan = fast.plan(samples)
        reference_plan = reference.plan(samples)
        assert fast_plan.recompute is RecomputeMode.FULL
        assert fast_plan.dp_solution.boundaries == reference_plan.dp_solution.boundaries
        assert fast_plan.dp_solution.times == reference_plan.dp_solution.times
        assert fast_plan.dp_solution.objective == reference_plan.dp_solution.objective
        assert fast_plan.dp_solution.tmax_used == reference_plan.dp_solution.tmax_used
        fast_dict, reference_dict = fast_plan.to_dict(), reference_plan.to_dict()
        for payload in (fast_dict, reference_dict):
            payload.pop("planning_time_s")
            for plan in payload["replicas"]:
                plan["metadata"].pop("planning_time_s")
        assert fast_dict == reference_dict

    def test_sum_weight_for_data_parallelism(self, gpt_cost_model, flan_samples_gpt):
        """With many replicas (small Σ weight) the partition never has fewer
        micro-batches than the single-replica partition."""
        samples = flan_samples_gpt[:80]
        single = DynamicMicroBatcher(gpt_cost_model, sum_weight=1.0).split(samples)
        many = DynamicMicroBatcher(gpt_cost_model, sum_weight=1.0 / 8).split(samples)
        assert len(many.micro_batches) >= len(single.micro_batches)


#: ``max_profile_seq_len`` of the test cost models.
MAX_SEQ_LEN = 2048
_lengths = st.one_of(st.integers(1, MAX_SEQ_LEN), st.just(MAX_SEQ_LEN))


def _reference_geometry(batcher, ordered):
    """Window-shape dedup by ``np.unique(axis=0)`` over the raw triples."""
    import numpy as np

    from repro.core.microbatch import sliding_window_maxima

    if batcher.decoder_only:
        enc = np.array([s.total_tokens for s in ordered], dtype=np.int64)
        dec = np.zeros(len(ordered), dtype=np.int64)
    else:
        enc = np.array([s.input_tokens for s in ordered], dtype=np.int64)
        dec = np.array([s.target_tokens for s in ordered], dtype=np.int64)
    n = len(ordered)
    window = min(batcher.max_microbatch_size, n)
    enc_max = sliding_window_maxima(enc, window)
    dec_max = sliding_window_maxima(dec, window)
    sizes = np.arange(1, window + 1)[None, :]
    starts = np.arange(n)[:, None]
    valid = starts + sizes <= n
    start_index, size_index = np.nonzero(valid)
    triples = np.stack(
        [
            size_index + 1,
            enc_max[start_index, size_index],
            dec_max[start_index, size_index],
        ],
        axis=1,
    )
    unique, inverse = np.unique(triples, axis=0, return_inverse=True)
    return unique, inverse.reshape(-1)


class TestWindowGeometry:
    """The packed-key shape dedup reproduces the row-wise ``np.unique``."""

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(
            st.tuples(_lengths, st.one_of(_lengths, st.just(0))), min_size=1, max_size=24
        ),
        decoder_only=st.booleans(),
        sort=st.booleans(),
        max_microbatch_size=st.integers(1, 8),
    )
    @example(
        lengths=[(MAX_SEQ_LEN, MAX_SEQ_LEN)], decoder_only=False, sort=True, max_microbatch_size=4
    )
    @example(
        lengths=[(MAX_SEQ_LEN, 0)] * 3, decoder_only=True, sort=False, max_microbatch_size=2
    )
    def test_matches_row_unique(
        self, gpt_cost_model, t5_cost_model, lengths, decoder_only, sort, max_microbatch_size
    ):
        import numpy as np

        from repro.core.ordering import order_samples

        if decoder_only:
            # GPT windows are keyed by total length, which is capped at the
            # sequence limit; dec is 0.
            samples = [Sample(min(i + t, MAX_SEQ_LEN), 0) for i, t in lengths]
        else:
            samples = [Sample(i, t) for i, t in lengths]
        batcher = DynamicMicroBatcher(
            gpt_cost_model if decoder_only else t5_cost_model,
            max_microbatch_size=max_microbatch_size,
        )
        ordered = (
            order_samples(samples, OrderingMethod.SORT, decoder_only=decoder_only)
            if sort
            else samples
        )
        geometry = batcher._window_geometry(ordered)
        unique, inverse = _reference_geometry(batcher, ordered)
        assert geometry.unique.dtype == unique.dtype
        np.testing.assert_array_equal(geometry.unique, unique)
        np.testing.assert_array_equal(geometry.inverse, inverse)

    def test_out_of_range_key_raises_value_error(self, t5_cost_model):
        """Lengths whose packed key space overflows int64 fail loudly."""
        batcher = DynamicMicroBatcher(t5_cost_model)
        huge = 2**40
        with pytest.raises(ValueError):
            batcher._window_geometry([Sample(huge, huge), Sample(1, huge - 1)])


class TestSlidingWindowMaxima:
    def test_matches_brute_force_random(self):
        import numpy as np

        from repro.core.microbatch import sliding_window_maxima

        rng = np.random.default_rng(0)
        for trial in range(5):
            values = rng.integers(1, 1000, size=int(rng.integers(1, 50)))
            window = int(rng.integers(1, 60))
            table = sliding_window_maxima(values, window)
            n = len(values)
            for start in range(n):
                for size in range(1, min(window, n - start) + 1):
                    assert table[start, size - 1] == values[start : start + size].max()

    def test_monotone_input_uses_last_element(self):
        import numpy as np

        from repro.core.microbatch import sliding_window_maxima

        values = np.array([1, 3, 3, 7, 20])
        table = sliding_window_maxima(values, 5)
        for start in range(5):
            for size in range(1, 5 - start + 1):
                assert table[start, size - 1] == values[start + size - 1]


class TestVectorizedEquivalence:
    """The window-table fast path must reproduce the scalar DP exactly."""

    def _compare(self, cost_model, samples, **kwargs):
        fast = DynamicMicroBatcher(cost_model, vectorized=True, **kwargs)
        slow = DynamicMicroBatcher(cost_model, vectorized=False, **kwargs)
        fast_result = fast.split(samples)
        slow_result = slow.split(samples)
        assert fast.last_solution.boundaries == slow.last_solution.boundaries
        assert fast.last_solution.times == slow.last_solution.times
        assert fast.last_solution.objective == slow.last_solution.objective
        assert fast.last_solution.tmax_used == slow.last_solution.tmax_used
        fast_shapes = [mb.shape() for mb in fast_result.micro_batches]
        slow_shapes = [mb.shape() for mb in slow_result.micro_batches]
        assert fast_shapes == slow_shapes

    def test_gpt_seeded(self, gpt_cost_model, flan_samples_gpt):
        self._compare(gpt_cost_model, flan_samples_gpt[:70], tmax_sample_count=12)

    def test_t5_seeded(self, t5_cost_model, flan_samples):
        self._compare(t5_cost_model, flan_samples[:70], tmax_sample_count=12)

    def test_gpt_full_recompute(self, gpt_cost_model, flan_samples_gpt):
        self._compare(
            gpt_cost_model,
            flan_samples_gpt[:40],
            tmax_sample_count=8,
            recompute=RecomputeMode.FULL,
        )

    def test_tight_memory_limit(self, gpt_cost_model, flan_samples_gpt):
        self._compare(
            gpt_cost_model,
            flan_samples_gpt[:50],
            per_microbatch_memory_bytes=gpt_cost_model.min_activation_budget_bytes() / 12,
        )

    def test_split_recompute_override_reuses_geometry(self, gpt_cost_model, flan_samples_gpt):
        """Mode retries on the same mini-batch reuse the cached window
        geometry and still match a fresh batcher under that mode."""
        samples = flan_samples_gpt[:40]
        batcher = DynamicMicroBatcher(gpt_cost_model, tmax_sample_count=8)
        batcher.split(samples)  # NONE mode populates the geometry cache
        entry = batcher._geometry_entry
        retried = batcher.split(samples, recompute=RecomputeMode.FULL)
        assert batcher._geometry_entry is entry
        fresh = DynamicMicroBatcher(
            gpt_cost_model, tmax_sample_count=8, recompute=RecomputeMode.FULL
        ).split(samples)
        assert [mb.shape() for mb in retried.micro_batches] == [
            mb.shape() for mb in fresh.micro_batches
        ]
