"""End-to-end integration tests tying the whole stack together.

These tests follow a plan from raw samples through ordering, DP
partitioning, replica balancing, scheduling, communication planning,
serialisation into the planner pool's payload, and instruction-level execution
with noise — asserting the cross-cutting invariants that unit tests cannot
see (token conservation, memory bounds, deadlock freedom, prediction
sanity).
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.mlm_ds import BaselineConfig, MLMDeepSpeedBaseline
from repro.comm.deadlock import check_comm_order
from repro.core.execution_plan import ExecutionPlan
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.instructions.ops import BackwardPass, ForwardPass
from repro.model.memory import RecomputeMode
from repro.simulator.executor import InstructionExecutor


def _executor_for(cost_model, noise_seed=None, noise=0.0):
    from repro.cluster.device import SimulatedGPU
    from repro.model.transformer import build_stage_models

    stage_models = build_stage_models(
        cost_model.config, cost_model.num_stages, cost_model.tensor_parallel
    )
    gpu = SimulatedGPU(cost_model.device_spec, noise_std=noise, seed=noise_seed)

    def duration(instr):
        model = stage_models[instr.stage]
        if isinstance(instr, ForwardPass):
            return model.forward_time_ms(gpu, instr.shape)
        return model.backward_time_ms(gpu, instr.shape, instr.recompute)

    def activation(instr):
        return stage_models[instr.stage].activation_bytes(instr.shape, instr.recompute)

    static = [cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages)]
    return InstructionExecutor(
        compute_duration_fn=duration,
        activation_bytes_fn=activation,
        static_bytes=static,
    )


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def plan(self, gpt_cost_model, flan_samples_gpt):
        planner = DynaPipePlanner(
            gpt_cost_model,
            data_parallel_size=2,
            config=PlannerConfig(order_search=True, tmax_sample_count=8),
        )
        return planner.plan(flan_samples_gpt[:120], iteration=0)

    def test_token_conservation(self, plan, flan_samples_gpt):
        """No sample is lost or duplicated anywhere in the pipeline."""
        planned = sorted(s for mb in plan.all_micro_batches() for s in mb.samples())
        assert planned == sorted(flan_samples_gpt[:120])

    def test_instruction_counts_consistent(self, plan, gpt_cost_model):
        """Each replica's instruction streams contain exactly one forward and
        one backward per (micro-batch, stage), plus matched communication."""
        for replica in plan.replicas:
            num_stages = gpt_cost_model.num_stages
            num_microbatches = len(replica.plan.microbatch_shapes)
            forwards = backwards = 0
            for stream in replica.plan.device_instructions:
                forwards += sum(isinstance(i, ForwardPass) for i in stream)
                backwards += sum(isinstance(i, BackwardPass) for i in stream)
            assert forwards == backwards == num_stages * num_microbatches
            assert check_comm_order(replica.plan.device_instructions).consistent

    def test_roundtrip_through_payload_and_execute(self, plan, gpt_cost_model):
        """Plans survive the planner pool's JSON payload and execute without
        deadlock under noisy execution times, within the device memory."""
        payload = json.loads(json.dumps(plan.to_dict()))
        for replica_rank, replica_payload in enumerate(payload["replicas"]):
            assert replica_payload["metadata"]["replica"] == replica_rank
            restored = ExecutionPlan.from_dict(replica_payload)
            executor = _executor_for(gpt_cost_model, noise_seed=replica_rank, noise=0.1)
            result = executor.run(restored.device_instructions)
            assert result.makespan_ms > 0
            assert max(result.peak_memory_bytes) <= gpt_cost_model.device_spec.memory_capacity * 1.05

    def test_prediction_matches_noise_free_execution(self, plan, gpt_cost_model):
        """With noise disabled, the measured makespan is within a modest band
        of the planner's prediction (differences come from interpolation and
        communication modelling only)."""
        replica = plan.replicas[0]
        executor = _executor_for(gpt_cost_model, noise=0.0)
        result = executor.run(replica.plan.device_instructions)
        predicted = replica.plan.metadata.predicted_makespan_ms
        assert result.makespan_ms == pytest.approx(predicted, rel=0.35)


class TestSystemsComparison:
    def test_dynapipe_vs_baseline_consistency(self, gpt_cost_model, flan_samples_gpt):
        """Both systems process identical samples and produce executable plans;
        DynaPipe never pads more than the baseline on the same mini-batch."""
        samples = flan_samples_gpt[:100]
        dynapipe = DynaPipePlanner(
            gpt_cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=8)
        ).plan(samples)
        baseline = MLMDeepSpeedBaseline(
            gpt_cost_model,
            config=BaselineConfig(max_seq_len=1024, micro_batch_size=2, recompute=RecomputeMode.FULL),
        ).plan(samples)
        assert dynapipe.padding.actual_tokens == sum(s.total_tokens for s in samples)
        assert dynapipe.padding.padded_tokens <= baseline.padding.padded_tokens * 1.1
        for iteration_plan in (dynapipe, baseline):
            for replica in iteration_plan.replicas:
                assert check_comm_order(replica.plan.device_instructions).consistent
