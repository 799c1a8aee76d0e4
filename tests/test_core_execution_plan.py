"""Tests for execution plans and their serialisation."""

from __future__ import annotations

import json

import pytest

from repro.core.execution_plan import ExecutionPlan, PlanMetadata
from repro.instructions.ops import ForwardPass, SendActStart
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape


def make_plan(iteration: int = 0, replica: int = 0) -> ExecutionPlan:
    shape = MicroBatchShape(batch_size=2, enc_seq_len=128, dec_seq_len=16)
    streams = [
        [
            ForwardPass(microbatch=0, stage=0, shape=shape),
            SendActStart(microbatch=0, stage=0, peer=1, nbytes=512.0),
        ],
        [ForwardPass(microbatch=0, stage=1, shape=shape, recompute=RecomputeMode.FULL)],
    ]
    metadata = PlanMetadata(
        iteration=iteration,
        replica=replica,
        schedule_name="memory-aware-adaptive",
        recompute=RecomputeMode.FULL,
        predicted_makespan_ms=123.4,
        predicted_peak_memory_bytes=[1e9, 2e9],
        num_microbatches=1,
        planning_time_s=0.25,
    )
    return ExecutionPlan(
        device_instructions=streams, microbatch_shapes=[shape], metadata=metadata
    )


class TestExecutionPlan:
    def test_basic_properties(self):
        plan = make_plan()
        assert plan.num_stages == 2
        assert plan.total_instructions() == 3

    def test_roundtrip_through_dict(self):
        plan = make_plan()
        restored = ExecutionPlan.from_dict(plan.to_dict())
        assert restored.device_instructions == plan.device_instructions
        assert restored.microbatch_shapes == plan.microbatch_shapes
        assert restored.metadata.predicted_makespan_ms == plan.metadata.predicted_makespan_ms
        assert restored.metadata.recompute is RecomputeMode.FULL

    def test_dict_is_json_serialisable(self):
        payload = json.dumps(make_plan().to_dict())
        restored = ExecutionPlan.from_dict(json.loads(payload))
        assert restored.metadata.schedule_name == "memory-aware-adaptive"

    def test_metadata_roundtrip(self):
        """Planners ship serialised plans; executors rebuild them keyed by
        their own iteration and replica."""
        plan = make_plan(iteration=7, replica=1)
        fetched = ExecutionPlan.from_dict(plan.to_dict())
        assert fetched.metadata.iteration == 7
        assert fetched.metadata.replica == 1
        assert fetched.device_instructions == plan.device_instructions

    def test_planner_plans_serialise(self, gpt_cost_model, flan_samples_gpt):
        """Full planner output survives a serialisation round trip."""
        from repro.core.planner import DynaPipePlanner, PlannerConfig

        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(order_search=False, tmax_sample_count=8),
        )
        plan = planner.plan(flan_samples_gpt[:30])
        original = plan.replicas[0].plan
        restored = ExecutionPlan.from_dict(original.to_dict())
        assert restored.device_instructions == original.device_instructions
        assert restored.microbatch_shapes == original.microbatch_shapes
