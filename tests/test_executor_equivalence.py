"""Bit-identity of the one-pass executor against the interpreted oracle.

:class:`repro.simulator.executor.InstructionExecutor` decodes each stream
once and sweeps it with scalar floats; ``tests/oracles/executor_interpreted.py``
is the original ``isinstance`` interpreter it replaced.  Every comparison
here runs the same streams through both, each with its own freshly built
(and, for noisy runs, identically seeded) callbacks, and asserts equality
of:

* every :class:`~repro.simulator.executor.ExecutionResult` field, the
  transfer log and the trace events in order;
* the deadlock or memory-accounting error: type, message,
  ``blocked_devices`` and ``blocked_detail``;
* the sequence of ``compute_duration_fn`` calls and the values returned,
  so a noisy duration function draws its noise in the same order.

Programs come from the shared hypothesis strategies and from real GPT and
T5 (tensor-parallel 4) plans executed with the trainer's noisy
ground-truth callbacks, compared against the per-op scalar callbacks those
replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies_instructions
from oracles.executor_interpreted import InstructionExecutor as InterpretedExecutor
from repro.backends import BackendOptions
from repro.baselines.mlm_ds import BaselineConfig, MLMDeepSpeedBaseline
from repro.cluster.device import SimulatedGPU
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.instructions.ops import BackwardPass, ForwardPass
from repro.instructions.serialization import instruction_signature
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.executor import CommunicationDeadlockError, InstructionExecutor
from repro.simulator.memory_tracker import MemoryAccountingError
from repro.training.trainer import TrainerConfig, TrainingSession

SHAPE = MicroBatchShape(batch_size=1, enc_seq_len=64)


def outcome(executor_cls, streams, options: BackendOptions):
    """Everything observable about one run, plus the duration-call log."""
    calls = []

    def duration(instr):
        value = options.compute_duration_fn(instr)
        calls.append((instruction_signature(instr), value))
        return value

    executor = executor_cls(
        compute_duration_fn=duration,
        transfer_time_fn=options.transfer_time_fn,
        activation_bytes_fn=options.activation_bytes_fn,
        static_bytes=options.static_bytes,
    )
    try:
        result = executor.run(streams)
    except (CommunicationDeadlockError, MemoryAccountingError) as err:
        return (
            type(err),
            str(err),
            getattr(err, "blocked_devices", None),
            getattr(err, "blocked_detail", None),
        ), calls
    return (
        result.makespan_ms,
        result.device_finish_ms,
        result.device_compute_ms,
        result.peak_memory_bytes,
        result.transfer_log,
        result.trace.events,
        result.bubble_fraction,
    ), calls


def assert_equivalent(streams, make_options=None):
    """Run both executors, each with fresh options; returns the outcome."""
    make_options = make_options or unit_options
    new = outcome(InstructionExecutor, streams, make_options())
    old = outcome(InterpretedExecutor, streams, make_options())
    assert new == old
    return new[0]


def unit_options() -> BackendOptions:
    return BackendOptions(
        compute_duration_fn=lambda instr: 1.0 if isinstance(instr, ForwardPass) else 2.0,
        transfer_time_fn=lambda nbytes, src, dst: 0.1,
    )


def noisy_options(seed: int):
    """Options factory with seeded random compute and transfer times,
    per-micro-batch activation bytes and static memory."""

    def make() -> BackendOptions:
        rng = np.random.default_rng(seed)
        return BackendOptions(
            compute_duration_fn=lambda instr: float(rng.uniform(0.1, 3.0)),
            transfer_time_fn=lambda nbytes, src, dst: float(rng.uniform(0.0, 0.5)),
            activation_bytes_fn=lambda instr: 1e6 * (instr.microbatch + 1) + 0.1 * instr.stage,
            static_bytes=[1e9 + 3.3 * d for d in range(8)],
        )

    return make


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestGeneratedStreams:
    @given(strategies_instructions.planned_streams(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_planned_streams(self, streams, seed):
        result = assert_equivalent(streams, noisy_options(seed))
        assert isinstance(result[0], float)
        assert_equivalent(streams)

    @given(strategies_instructions.naive_streams(), seeds)
    @settings(max_examples=30, deadline=None)
    def test_naive_streams(self, streams, seed):
        assert_equivalent(streams, noisy_options(seed))

    @given(strategies_instructions.head_mismatched_streams(), seeds)
    @settings(max_examples=30, deadline=None)
    def test_head_mismatched_streams(self, corrupted, seed):
        streams, _where = corrupted
        verdict = assert_equivalent(streams, noisy_options(seed))
        assert verdict[0] is CommunicationDeadlockError

    @given(strategies_instructions.missing_peer_streams(), seeds)
    @settings(max_examples=30, deadline=None)
    def test_missing_peer_streams(self, broken, seed):
        streams, _where = broken
        verdict = assert_equivalent(streams, noisy_options(seed))
        assert verdict[0] is CommunicationDeadlockError
        assert "never posted" in verdict[1] or "order mismatch" in verdict[1]


class TestEdgeCases:
    def test_empty_program(self):
        assert assert_equivalent([]) == (0.0, [], [], [], [], [], 0.0)
        assert_equivalent([[], []])

    def test_double_allocation_and_unknown_free(self):
        options = lambda: BackendOptions(activation_bytes_fn=lambda instr: 5.0)  # noqa: E731
        twice = [[ForwardPass(0, 0, shape=SHAPE), ForwardPass(0, 0, shape=SHAPE)]]
        verdict = assert_equivalent(twice, options)
        assert verdict[0] is MemoryAccountingError and "already live" in verdict[1]
        orphan = [[BackwardPass(0, 0, shape=SHAPE)]]
        verdict = assert_equivalent(orphan, options)
        assert verdict[0] is MemoryAccountingError and "unknown allocation" in verdict[1]

    def test_negative_durations_clamp_identically(self):
        streams = strategies_instructions.streams_from_schedule(
            one_f_one_b_schedule(3, 4)
        )
        options = lambda: BackendOptions(  # noqa: E731
            compute_duration_fn=lambda instr: -1.0 if instr.microbatch % 2 else 1.5,
            transfer_time_fn=lambda nbytes, src, dst: -0.5,
        )
        assert_equivalent(streams, options)

    def test_trace_is_built_only_when_read(self):
        streams = strategies_instructions.streams_from_schedule(
            one_f_one_b_schedule(2, 3)
        )
        result = InstructionExecutor(compute_duration_fn=lambda instr: 1.0).run(streams)
        assert result.trace._events is None
        events = result.trace.events
        assert result.trace.events is events
        assert len(events) == 2 * 2 * 3 + 2 * 3


# ------------------------------------------------------------------ real plans


def scalar_options(session: TrainingSession, transfer, static) -> BackendOptions:
    """The per-op ground-truth callbacks the trainer used before its cost
    tables: one scalar ``StageModel`` evaluation per op."""
    gpu = SimulatedGPU(
        session.cost_model.device_spec,
        noise_std=session.config.noise_std,
        seed=int(session._noise_rng.integers(0, 2**31 - 1)),
    )

    def duration(instr):
        stage_model = session.stage_models[instr.stage]
        if isinstance(instr, ForwardPass):
            return stage_model.forward_time_ms(gpu, instr.shape)
        return stage_model.backward_time_ms(gpu, instr.shape, instr.recompute)

    def activation(instr):
        return session.stage_models[instr.stage].activation_bytes(instr.shape, instr.recompute)

    return BackendOptions(duration, transfer, activation, static)


def assert_session_equivalent(planner, samples, seed: int) -> int:
    """Execute every replica of one planned iteration on the trainer's
    table-driven backend and on the oracle with scalar callbacks."""
    session = TrainingSession(
        planner,
        samples,
        global_batch_tokens=8192,
        config=TrainerConfig(max_iterations=1, noise_std=0.05, seed=seed, max_seq_len=1024),
    )
    plan = planner.plan(samples)
    for replica in plan.plans:
        state = session._noise_rng.bit_generator.state
        options = session._make_backend(replica).options
        after = session._noise_rng.bit_generator.state
        session._noise_rng.bit_generator.state = state
        old = scalar_options(session, options.transfer_time_fn, options.static_bytes)
        assert session._noise_rng.bit_generator.state == after
        new_run = outcome(InstructionExecutor, replica.device_instructions, options)
        old_run = outcome(InterpretedExecutor, replica.device_instructions, old)
        assert new_run == old_run
        assert isinstance(new_run[0][0], float)
    return len(plan.plans)


@pytest.fixture(scope="module")
def t5_tp4_cost_model(tiny_t5_config, small_device):
    return CostModel(
        tiny_t5_config,
        num_stages=3,
        tensor_parallel=4,
        device_spec=small_device,
        max_profile_batch_size=32,
        max_profile_seq_len=1024,
    )


def fixed_mode_planner(cost_model, mode: RecomputeMode) -> DynaPipePlanner:
    return DynaPipePlanner(
        cost_model,
        config=PlannerConfig(
            order_search=False,
            tmax_sample_count=8,
            dynamic_recompute=False,
            recompute=mode,
        ),
    )


@pytest.mark.parametrize("mode", list(RecomputeMode), ids=lambda mode: mode.value)
class TestRealPlans:
    def test_noisy_gpt_plans(self, gpt_cost_model, flan_samples_gpt, mode):
        planner = fixed_mode_planner(gpt_cost_model, mode)
        for seed, window in enumerate([slice(0, 40), slice(150, 210)]):
            assert assert_session_equivalent(planner, flan_samples_gpt[window], seed) >= 1

    def test_noisy_t5_tp4_plans(self, t5_tp4_cost_model, flan_samples, mode):
        planner = fixed_mode_planner(t5_tp4_cost_model, mode)
        for seed, window in enumerate([slice(0, 40), slice(60, 110)]):
            assert assert_session_equivalent(planner, flan_samples[window], seed) >= 1

    def test_noisy_baseline_plans(self, gpt_cost_model, flan_samples_gpt, mode):
        """The MLM+DS baseline's packed 1F1B plans go through the same tables."""
        planner = MLMDeepSpeedBaseline(
            gpt_cost_model,
            data_parallel_size=2,
            config=BaselineConfig(max_seq_len=1024, micro_batch_size=2, recompute=mode),
        )
        assert assert_session_equivalent(planner, flan_samples_gpt[:60], 3) == 2
