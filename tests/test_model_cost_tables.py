"""The array forms of the ground-truth stage costs equal the scalar forms.

:meth:`repro.model.transformer.StageModel.cost_tables` evaluates the
noiseless forward/backward kernel time, the tensor-parallel all-reduce time
and the activation bytes of many micro-batch shapes at once; the trainer
executes every replica from those tables, passing each op's entries to the
scalar ``forward_time_ms``/``backward_time_ms`` as ``costs``.  These
properties check them bit for bit against the per-shape scalar methods
computing from the formulas, and check that
:meth:`~repro.cluster.device.SimulatedGPU.apply_noise` applied to the
noiseless time draws exactly what ``kernel_time_ms`` draws.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import SimulatedGPU
from repro.model.config import get_model_config
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape, build_stage_models

MODELS = {name: get_model_config(name, num_gpus=16) for name in ("gpt", "t5")}


@st.composite
def workloads(draw):
    """A model, tensor-parallel degree, stage count, recompute mode and a
    list of shapes (T5 decoder lengths may be 0; GPT's always are)."""
    name = draw(st.sampled_from(sorted(MODELS)))
    max_dec = 2048 if name == "t5" else 0
    shapes = draw(
        st.lists(
            st.builds(
                MicroBatchShape,
                batch_size=st.integers(1, 256),
                enc_seq_len=st.integers(0, 8192),
                dec_seq_len=st.integers(0, max_dec),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return (
        MODELS[name],
        draw(st.sampled_from([1, 4])),
        draw(st.integers(1, 4)),
        draw(st.sampled_from(list(RecomputeMode))),
        shapes,
    )


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_tables_equal_scalar_methods(workload):
    config, tp, num_stages, mode, shapes = workload
    gpu = SimulatedGPU()
    for stage in build_stage_models(config, num_stages, tensor_parallel=tp):
        tables = stage.cost_tables(gpu, shapes, mode)
        for i, shape in enumerate(shapes):
            comm = tables.tensor_parallel_ms[i]
            assert comm == stage._tensor_parallel_comm_ms(shape)
            assert tables.forward_kernel_ms[i] + comm == stage.forward_time_ms(gpu, shape)
            assert tables.backward_kernel_ms[i] + comm == stage.backward_time_ms(
                gpu, shape, mode
            )
            assert tables.activation_bytes[i] == stage.activation_bytes(shape, mode)
        for column in tables:
            assert all(type(value) is float for value in column)


@given(workloads(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_noisy_tables_draw_like_scalar_calls(workload, seed):
    config, tp, num_stages, mode, shapes = workload
    tabled = SimulatedGPU(noise_std=0.05, seed=seed)
    scalar = SimulatedGPU(noise_std=0.05, seed=seed)
    for stage in build_stage_models(config, num_stages, tensor_parallel=tp):
        tables = stage.cost_tables(tabled, shapes, mode)
        for i, shape in enumerate(shapes):
            comm = tables.tensor_parallel_ms[i]
            forward_costs = (tables.forward_kernel_ms[i], comm)
            noisy_forward = stage.forward_time_ms(tabled, shape, forward_costs)
            assert noisy_forward == stage.forward_time_ms(scalar, shape)
            backward_costs = (tables.backward_kernel_ms[i], comm)
            noisy_backward = stage.backward_time_ms(tabled, shape, mode, backward_costs)
            assert noisy_backward == stage.backward_time_ms(scalar, shape, mode)


def test_t5_without_decoder_tokens():
    """A T5 shape with an empty target skips the decoder stack entirely."""
    gpu = SimulatedGPU()
    shapes = [MicroBatchShape(4, 512, 0), MicroBatchShape(2, 0, 0), MicroBatchShape(1, 64, 8)]
    for tp in (1, 4):
        for stage in build_stage_models(MODELS["t5"], 3, tensor_parallel=tp):
            for mode in RecomputeMode:
                tables = stage.cost_tables(gpu, shapes, mode)
                for i, shape in enumerate(shapes):
                    forward = tables.forward_kernel_ms[i] + tables.tensor_parallel_ms[i]
                    assert forward == stage.forward_time_ms(gpu, shape)
                    assert tables.activation_bytes[i] == stage.activation_bytes(shape, mode)


@given(
    st.floats(0.0, 1e16),
    st.floats(0.0, 1e13),
    st.integers(1, 64),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_apply_noise_of_noiseless_time_is_kernel_time(flops, nbytes, kernels, seed):
    drawn = SimulatedGPU(noise_std=0.1, seed=seed)
    split = SimulatedGPU(noise_std=0.1, seed=seed)
    for _ in range(3):
        expected = drawn.kernel_time_ms(flops, nbytes, kernels)
        assert split.apply_noise(split.noiseless_time_ms(flops, nbytes, kernels)) == expected
    as_array = split.noiseless_time_ms(np.array([flops]), np.array([nbytes]), np.array([kernels]))
    assert as_array.tolist() == [SimulatedGPU().kernel_time_ms(flops, nbytes, kernels)]
