"""Tests for repro.costmodel.cost_model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel.cost_model import CostModel
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape


class TestStageCost:
    def test_all_stages_positive(self, gpt_cost_model):
        shape = MicroBatchShape(batch_size=2, enc_seq_len=256)
        for stage in range(gpt_cost_model.num_stages):
            cost = gpt_cost_model.stage_cost(stage, shape)
            assert cost.forward_ms > 0
            assert cost.backward_ms > cost.forward_ms
            assert cost.activation_bytes > 0

    def test_total_ms_is_sum(self, gpt_cost_model):
        shape = MicroBatchShape(batch_size=2, enc_seq_len=256)
        cost = gpt_cost_model.stage_cost(0, shape)
        assert cost.total_ms == pytest.approx(cost.forward_ms + cost.backward_ms)

    def test_stage_out_of_range(self, gpt_cost_model):
        with pytest.raises(ValueError):
            gpt_cost_model.stage_cost(99, MicroBatchShape(1, 64))

    def test_longer_sequence_costs_more(self, gpt_cost_model):
        short = gpt_cost_model.stage_cost(0, MicroBatchShape(2, 128))
        long = gpt_cost_model.stage_cost(0, MicroBatchShape(2, 1024))
        assert long.forward_ms > short.forward_ms
        assert long.activation_bytes > short.activation_bytes

    def test_recompute_shrinks_memory_grows_time(self, gpt_cost_model):
        shape = MicroBatchShape(batch_size=4, enc_seq_len=512)
        plain = gpt_cost_model.stage_cost(0, shape, RecomputeMode.NONE)
        full = gpt_cost_model.stage_cost(0, shape, RecomputeMode.FULL)
        assert full.activation_bytes < plain.activation_bytes
        assert full.backward_ms > plain.backward_ms

    def test_t5_decoder_stage_uses_both_lengths(self, t5_cost_model):
        last = t5_cost_model.num_stages - 1
        base = t5_cost_model.stage_cost(last, MicroBatchShape(2, 128, 64))
        longer_src = t5_cost_model.stage_cost(last, MicroBatchShape(2, 512, 64))
        assert longer_src.forward_ms > base.forward_ms

    def test_t5_encoder_stage_ignores_decoder_length(self, t5_cost_model):
        a = t5_cost_model.stage_cost(0, MicroBatchShape(2, 256, 32))
        b = t5_cost_model.stage_cost(0, MicroBatchShape(2, 256, 256))
        assert a.forward_ms == pytest.approx(b.forward_ms)


class TestAggregates:
    def test_microbatch_time_is_max_over_stages(self, gpt_cost_model):
        shape = MicroBatchShape(batch_size=2, enc_seq_len=256)
        per_stage = [
            gpt_cost_model.stage_cost(stage, shape).total_ms
            for stage in range(gpt_cost_model.num_stages)
        ]
        assert gpt_cost_model.microbatch_time_ms(shape) == pytest.approx(max(per_stage))

    def test_iteration_time_eq1(self, gpt_cost_model):
        """Eq. 1: (c-1) * max t + sum t."""
        shapes = [MicroBatchShape(2, 128), MicroBatchShape(2, 512), MicroBatchShape(1, 1024)]
        times = [gpt_cost_model.microbatch_time_ms(s) for s in shapes]
        expected = (gpt_cost_model.num_stages - 1) * max(times) + sum(times)
        assert gpt_cost_model.iteration_time_ms(shapes) == pytest.approx(expected)

    def test_iteration_time_empty(self, gpt_cost_model):
        assert gpt_cost_model.iteration_time_ms([]) == 0.0

    def test_iteration_time_single_microbatch(self, gpt_cost_model):
        shape = MicroBatchShape(2, 256)
        t = gpt_cost_model.microbatch_time_ms(shape)
        assert gpt_cost_model.iteration_time_ms([shape]) == pytest.approx(
            gpt_cost_model.num_stages * t
        )


class TestMemory:
    def test_static_bytes_cached_and_positive(self, gpt_cost_model):
        first = gpt_cost_model.stage_static_bytes(0)
        second = gpt_cost_model.stage_static_bytes(0)
        assert first == second > 0

    def test_activation_budget_subtracts_static(self, gpt_cost_model):
        budget = gpt_cost_model.activation_budget_bytes(0, device_memory=64 * 1024**3)
        assert budget == pytest.approx(
            64 * 1024**3 - gpt_cost_model.stage_static_bytes(0)
        )

    def test_activation_budget_clamped_at_zero(self, gpt_cost_model):
        assert gpt_cost_model.activation_budget_bytes(0, device_memory=1.0) == 0.0

    def test_peak_memory_with_window(self, gpt_cost_model):
        shapes = [MicroBatchShape(2, 256)] * 6
        small_window = gpt_cost_model.peak_memory_bytes(shapes, in_flight=1)
        big_window = gpt_cost_model.peak_memory_bytes(shapes, in_flight=4)
        assert big_window > small_window

    def test_peak_memory_no_shapes_is_static(self, gpt_cost_model):
        expected = max(
            gpt_cost_model.stage_static_bytes(stage)
            for stage in range(gpt_cost_model.num_stages)
        )
        assert gpt_cost_model.peak_memory_bytes([]) == pytest.approx(expected)


class TestBoundaryTensors:
    def test_gpt_boundary_scales_with_tokens(self, gpt_cost_model):
        small = gpt_cost_model.boundary_tensor_bytes(0, MicroBatchShape(1, 128))
        large = gpt_cost_model.boundary_tensor_bytes(0, MicroBatchShape(2, 128))
        assert large == pytest.approx(2 * small)

    def test_t5_decoder_stage_sends_more(self, t5_cost_model):
        """Stages that already run decoder layers forward both the encoder
        output and the decoder activation."""
        shape = MicroBatchShape(2, 256, 64)
        encoder_stage = t5_cost_model.boundary_tensor_bytes(0, shape)
        decoder_stage = t5_cost_model.boundary_tensor_bytes(
            t5_cost_model.num_stages - 1, shape
        )
        assert decoder_stage > encoder_stage


class TestExternalDatabase:
    def test_prebuilt_database_reused(self, tiny_gpt_config, small_device):
        from repro.costmodel.profiler import LayerProfiler

        profiler = LayerProfiler(tiny_gpt_config, device_spec=small_device)
        database = profiler.build_database(max_batch_size=4, max_seq_len=256)
        model = CostModel(
            tiny_gpt_config, num_stages=2, device_spec=small_device, database=database
        )
        assert model.database is database
        assert model.stage_cost(0, MicroBatchShape(2, 128)).forward_ms > 0


def _batched_cases(config, device):
    """Cost models of ``config`` at tp 1 and 4 with 1–4 stages, one profile
    database per tp degree."""
    from repro.costmodel.profiler import LayerProfiler

    for tensor_parallel in (1, 4):
        database = LayerProfiler(config, tensor_parallel, device).build_database(
            max_batch_size=8, max_seq_len=512
        )
        for num_stages in (1, 2, 3, 4):
            yield CostModel(
                config,
                num_stages=num_stages,
                tensor_parallel=tensor_parallel,
                device_spec=device,
                database=database,
            )


class TestBatchedQueriesAndCaches:
    def test_batched_matches_scalar(self, tiny_gpt_config, tiny_t5_config, small_device):
        """The array queries are bit-identical to the scalar reference on
        every stage, mode, tp degree and stage count, inside and beyond the
        profiled grid, with repeated shapes, T5 shapes without a target and
        an empty batch."""
        shape_sets = (
            (
                tiny_gpt_config,
                [
                    MicroBatchShape(b, e)
                    for b, e in [(1, 33), (4, 700), (16, 2048), (2, 8), (4, 700), (3, 0)]
                ],
            ),
            (
                tiny_t5_config,
                [
                    MicroBatchShape(b, e, d)
                    for b, e, d in [
                        (1, 33, 17), (4, 700, 120), (16, 2048, 300), (2, 64, 0),
                        (4, 700, 120), (1, 0, 40),
                    ]
                ],
            ),
        )
        for config, shapes in shape_sets:
            for cm in _batched_cases(config, small_device):
                for mode in RecomputeMode:
                    forward, backward, activation = cm.stage_costs_many(shapes, mode)
                    scalar = [
                        [cm.stage_cost(stage, shape, mode) for stage in range(cm.num_stages)]
                        for shape in shapes
                    ]
                    for got, field in (
                        (forward, "forward_ms"),
                        (backward, "backward_ms"),
                        (activation, "activation_bytes"),
                    ):
                        expected = np.array(
                            [[getattr(cost, field) for cost in row] for row in scalar]
                        )
                        assert got.shape == (len(shapes), cm.num_stages)
                        assert got.tobytes() == expected.tobytes(), (cm.num_stages, mode, field)
                    times, acts = cm.window_costs_arrays(
                        *(
                            np.array([getattr(s, name) for s in shapes], dtype=float)
                            for name in ("batch_size", "enc_seq_len", "dec_seq_len")
                        ),
                        mode,
                    )
                    assert times.tobytes() == (forward + backward).max(axis=1).tobytes()
                    assert acts.tobytes() == activation.max(axis=1).tobytes()
                    assert times.tolist() == [max(c.total_ms for c in row) for row in scalar]
                    assert cm.microbatch_times_ms(shapes, mode).tobytes() == times.tobytes()
                    for i, shape in enumerate(shapes):
                        assert cm.microbatch_time_ms(shape, mode) == times[i]
                        assert cm.microbatch_activation_bytes(shape, mode) == acts[i]
                    empty = cm.stage_costs_many([], mode)
                    assert [a.shape for a in empty] == [(0, cm.num_stages)] * 3
                    assert cm.window_costs_arrays(*[np.zeros(0)] * 3, mode)[0].shape == (0,)

    def test_static_bytes_cache_is_per_instance(self, tiny_gpt_config):
        """stage_static_bytes no longer uses lru_cache on the method, which
        pinned every CostModel instance in a module-global cache."""
        import gc
        import weakref

        cm = CostModel(
            tiny_gpt_config, num_stages=2, max_profile_batch_size=4, max_profile_seq_len=64
        )
        cm.stage_static_bytes(0)
        assert cm.stage_static_bytes(0) == cm.stage_static_bytes(0)
        ref = weakref.ref(cm)
        del cm
        gc.collect()
        assert ref() is None


class TestLayerProfileQueryMany:
    def test_matches_scalar_queries_bit_for_bit(self, gpt_cost_model, t5_cost_model):
        """One stacked pass per mode gives the clamped forward, backward and
        activation values of the scalar queries, inside and beyond the grid."""
        rng = np.random.default_rng(0)
        for cm in (gpt_cost_model, t5_cost_model):
            for profile in cm.database.profiles.values():
                high = [axis[-1] for axis in profile.forward_ms.axes]
                coords = np.floor(rng.uniform(0, 2, size=(40, profile.dims)) * high)
                for mode in RecomputeMode:
                    forward, backward, activation = profile.query_many(mode, coords)
                    for i, row in enumerate(coords):
                        assert forward[i] == profile.query_forward(*row)
                        assert backward[i] == profile.query_backward(mode, *row)
                        assert activation[i] == profile.query_activation(mode, *row)
