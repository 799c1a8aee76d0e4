"""Tests for the end-to-end DynaPipe planner (paper §3–§7)."""

from __future__ import annotations

import pytest

from repro.comm.deadlock import check_comm_order
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.core.recomputation import OutOfMemoryError
from repro.core.adaptive_schedule import ScheduleKind
from repro.core.ordering import OrderingMethod
from repro.costmodel.cost_model import CostModel
from repro.model.memory import RecomputeMode
from repro.simulator.executor import InstructionExecutor


@pytest.fixture(scope="module")
def fast_config():
    return PlannerConfig(order_search=False, tmax_sample_count=8)


@pytest.fixture(scope="module")
def gpt_planner(gpt_cost_model, fast_config):
    return DynaPipePlanner(gpt_cost_model, config=fast_config)


class TestPlanStructure:
    def test_single_replica_plan(self, gpt_planner, flan_samples_gpt):
        plan = gpt_planner.plan(flan_samples_gpt[:60], iteration=3)
        assert len(plan.replicas) == 1
        assert plan.num_microbatches >= 1
        assert plan.predicted_iteration_ms > 0
        assert plan.planning_time_s > 0
        assert plan.plans[0].metadata.iteration == 3

    def test_all_samples_planned(self, gpt_planner, flan_samples_gpt):
        samples = flan_samples_gpt[:60]
        plan = gpt_planner.plan(samples)
        planned = sorted(s for mb in plan.all_micro_batches() for s in mb.samples())
        assert planned == sorted(samples)

    def test_empty_minibatch_rejected(self, gpt_planner):
        with pytest.raises(ValueError):
            gpt_planner.plan([])

    def test_instruction_streams_per_stage(self, gpt_planner, flan_samples_gpt):
        plan = gpt_planner.plan(flan_samples_gpt[:40])
        replica_plan = plan.plans[0]
        assert replica_plan.num_stages == gpt_planner.cost_model.num_stages
        assert replica_plan.metadata.num_microbatches == len(replica_plan.microbatch_shapes)

    def test_comm_order_consistent(self, gpt_planner, flan_samples_gpt):
        plan = gpt_planner.plan(flan_samples_gpt[:50])
        for replica in plan.replicas:
            assert check_comm_order(replica.plan.device_instructions).consistent

    def test_plans_execute_on_instruction_executor(self, gpt_planner, flan_samples_gpt):
        plan = gpt_planner.plan(flan_samples_gpt[:50])
        cost_model = gpt_planner.cost_model

        def duration(instr):
            cost = cost_model.stage_cost(instr.stage, instr.shape, instr.recompute)
            return cost.forward_ms if type(instr).__name__ == "ForwardPass" else cost.backward_ms

        executor = InstructionExecutor(compute_duration_fn=duration)
        result = executor.run(plan.plans[0].device_instructions)
        assert result.makespan_ms > 0

    def test_padding_stats_reported(self, gpt_planner, flan_samples_gpt):
        plan = gpt_planner.plan(flan_samples_gpt[:60])
        assert 0.5 < plan.padding.overall_efficiency <= 1.0

    def test_predicted_memory_within_capacity(self, gpt_planner, flan_samples_gpt):
        plan = gpt_planner.plan(flan_samples_gpt[:60])
        for replica in plan.replicas:
            assert all(
                peak <= gpt_planner.device_memory_bytes * (1 + 1e-9)
                for peak in replica.plan.metadata.predicted_peak_memory_bytes
            )


class TestDataParallel:
    def test_microbatches_distributed_across_replicas(self, gpt_cost_model, flan_samples_gpt, fast_config):
        planner = DynaPipePlanner(gpt_cost_model, data_parallel_size=2, config=fast_config)
        plan = planner.plan(flan_samples_gpt[:80])
        assert len(plan.replicas) == 2
        assert all(replica.micro_batches for replica in plan.replicas)
        assert plan.data_parallel_comm_ms > 0

    def test_replica_loads_balanced(self, gpt_cost_model, flan_samples_gpt, fast_config):
        planner = DynaPipePlanner(gpt_cost_model, data_parallel_size=2, config=fast_config)
        plan = planner.plan(flan_samples_gpt[:120])
        loads = []
        for replica in plan.replicas:
            loads.append(
                sum(
                    gpt_cost_model.microbatch_time_ms(mb.shape(), plan.recompute)
                    for mb in replica.micro_batches
                )
            )
        assert max(loads) <= 1.6 * min(loads)

    def test_single_replica_has_no_dp_comm(self, gpt_planner, flan_samples_gpt):
        plan = gpt_planner.plan(flan_samples_gpt[:40])
        assert plan.data_parallel_comm_ms == 0.0


class TestConfiguration:
    @pytest.mark.parametrize(
        "field",
        ["num_time_clusters", "max_order_permutations", "tmax_sample_count", "max_microbatch_size"],
    )
    def test_non_positive_counts_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            PlannerConfig(**{field: 0})

    def test_config_round_trip_still_validates(self):
        payload = PlannerConfig().to_dict()
        payload["max_order_permutations"] = 0
        with pytest.raises(ValueError, match="max_order_permutations"):
            PlannerConfig.from_dict(payload)

    def test_empty_partition_is_partition_error(self, gpt_planner):
        from repro.core.dp_solver import PartitionError

        with pytest.raises(PartitionError, match="empty"):
            gpt_planner._partition([], RecomputeMode.NONE)

    def test_order_search_enabled(self, gpt_cost_model, flan_samples_gpt):
        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(order_search=True, num_time_clusters=3, tmax_sample_count=8),
        )
        plan = planner.plan(flan_samples_gpt[:60])
        replica = plan.replicas[0]
        if len(replica.micro_batches) > 1:
            assert replica.ordering_search is not None
            assert replica.ordering_search.evaluated >= 1

    def test_1f1b_schedule_kind(self, gpt_cost_model, flan_samples_gpt):
        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(
                schedule_kind=ScheduleKind.ONE_F_ONE_B, order_search=False, tmax_sample_count=8
            ),
        )
        plan = planner.plan(flan_samples_gpt[:40])
        assert plan.plans[0].metadata.schedule_name == "1f1b"

    def test_fixed_recompute_mode(self, gpt_cost_model, flan_samples_gpt):
        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(
                dynamic_recompute=False,
                recompute=RecomputeMode.FULL,
                order_search=False,
                tmax_sample_count=8,
            ),
        )
        plan = planner.plan(flan_samples_gpt[:40])
        assert plan.recompute is RecomputeMode.FULL

    def test_tsp_ordering_config(self, gpt_cost_model, flan_samples_gpt):
        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(
                ordering_method=OrderingMethod.TSP, order_search=False, tmax_sample_count=8
            ),
        )
        plan = planner.plan(flan_samples_gpt[:40])
        assert plan.num_microbatches >= 1

    def test_static_memory_overflow_rejected_at_construction(self, tiny_gpt_config):
        """A model too large for the device is rejected up front."""
        tiny_device_model = CostModel(
            tiny_gpt_config,
            num_stages=2,
            max_profile_batch_size=4,
            max_profile_seq_len=128,
        )
        with pytest.raises(OutOfMemoryError):
            DynaPipePlanner(
                tiny_device_model,
                config=PlannerConfig(device_memory_bytes=1 * 1024**2),
            )

    def test_dynamic_recompute_under_memory_pressure(self, tiny_gpt_config, small_device, flan_samples_gpt):
        """With a tight device the planner falls back to a recomputation mode
        heavier than NONE (dynamic recomputation, §7)."""
        cost_model = CostModel(
            tiny_gpt_config,
            num_stages=4,
            device_spec=small_device,
            max_profile_batch_size=32,
            max_profile_seq_len=2048,
        )
        static = max(cost_model.stage_static_bytes(j) for j in range(4))
        planner = DynaPipePlanner(
            cost_model,
            config=PlannerConfig(
                order_search=False,
                tmax_sample_count=8,
                device_memory_bytes=static + 150 * 1024**2,
            ),
        )
        long_samples = sorted(flan_samples_gpt, key=lambda s: s.total_tokens)[-40:]
        plan = planner.plan(long_samples)
        assert plan.recompute in (RecomputeMode.SELECTIVE, RecomputeMode.FULL)

    def test_t5_planner(self, t5_cost_model, flan_samples, fast_config):
        planner = DynaPipePlanner(t5_cost_model, config=fast_config)
        plan = planner.plan(flan_samples[:60])
        assert plan.num_microbatches >= 1
        assert plan.padding.decoder_efficiency is not None
