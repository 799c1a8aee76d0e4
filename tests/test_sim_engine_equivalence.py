"""Vectorized-engine equivalence and incremental re-simulation tests.

The vectorized timeline solver must be *bit-identical* to the scalar oracle
in ``tests/oracles/sim_scalar.py`` (op start/end times, makespan, busy/idle,
peak activation memory), and the
incremental order-search scorer must match the legacy build-and-simulate
path exactly.  These properties are pinned with hypothesis over random
schedules and with the real GPT/T5 cost models across recompute modes.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import NetworkModel
from repro.comm.shapes import TransferShapes
from repro.core.adaptive_schedule import AdaptiveScheduler, ScheduleKind
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import ScheduleDeadlockError, cyclic_schedule
from repro.schedule.events import OpType, PipelineSchedule, StageSchedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.compiled import SimulationError
from repro.simulator.engine import (
    clear_geometry_cache,
    engine_stats,
    reset_engine_stats,
    simulate_schedule,
)
from repro.simulator.incremental import IncrementalOrderSimulator

from oracles.sim_scalar import simulate_schedule_scalar


def _random_case(rng: random.Random):
    """One random schedule + simulation inputs derived from a seed."""
    num_stages = rng.randint(1, 5)
    num_microbatches = rng.randint(1, 8)
    activation = [
        [rng.uniform(1.0, 100.0) for _ in range(num_stages)]
        for _ in range(num_microbatches)
    ]
    if rng.random() < 0.4:
        schedule = one_f_one_b_schedule(num_stages, num_microbatches)
    else:
        order = list(range(num_microbatches))
        rng.shuffle(order)
        limits = None
        if rng.random() < 0.5:
            limits = [
                max(max(row[j] for row in activation) * rng.uniform(1.0, 3.0), 1.0)
                for j in range(num_stages)
            ]
        schedule = cyclic_schedule(
            num_stages, activation, memory_limits=limits, injection_order=order
        )
    durations = {}
    for op in schedule.all_ops():
        roll = rng.random()
        if roll < 0.05:
            durations[op] = 0.0  # exercise zero-length ops
        elif roll < 0.1:
            durations[op] = -rng.uniform(0.0, 1.0)  # engine clamps to zero
        else:
            durations[op] = rng.uniform(0.05, 10.0)
    comm_table = {
        (mb, src, dst, grad): rng.uniform(0.0, 2.0)
        for mb in range(num_microbatches)
        for src in range(num_stages)
        for dst in (src - 1, src + 1)
        for grad in (False, True)
        if 0 <= dst < num_stages
    }
    comm_time = (
        (lambda mb, src, dst, grad: comm_table[(mb, src, dst, grad)])
        if rng.random() < 0.7
        else None
    )
    static = (
        [rng.uniform(0.0, 50.0) for _ in range(num_stages)]
        if rng.random() < 0.5
        else None
    )
    return schedule, durations, comm_time, activation, static


class TestVectorScalarBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_schedules(self, seed):
        rng = random.Random(seed)
        schedule, durations, comm_time, activation, static = _random_case(rng)
        vector = simulate_schedule(schedule, durations, comm_time, activation, static)
        scalar = simulate_schedule_scalar(
            schedule, durations, comm_time, activation, static
        )
        assert vector.makespan_ms == scalar.makespan_ms
        assert vector.device_busy_ms == scalar.device_busy_ms
        assert vector.device_idle_ms == scalar.device_idle_ms
        assert vector.peak_activation_bytes == scalar.peak_activation_bytes
        assert vector.op_times == scalar.op_times
        assert len(vector.trace.events) == len(scalar.trace.events)
        assert vector.bubble_fraction == scalar.bubble_fraction

    @pytest.mark.parametrize("model", ["gpt", "t5"])
    @pytest.mark.parametrize("recompute", [RecomputeMode.NONE, RecomputeMode.FULL])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_real_cost_models(self, request, model, recompute, seed):
        cost_model = request.getfixturevalue(f"{model}_cost_model")
        rng = random.Random(seed)
        num_microbatches = rng.randint(3, 6)
        shapes = [
            MicroBatchShape(
                batch_size=rng.randint(1, 8),
                enc_seq_len=rng.choice([128, 256, 512, 1024]),
                dec_seq_len=rng.choice([32, 64, 128]) if model == "t5" else 0,
            )
            for _ in range(num_microbatches)
        ]
        scheduler = AdaptiveScheduler(cost_model)
        build = scheduler.build(
            shapes, kind=ScheduleKind.MEMORY_AWARE_ADAPTIVE, recompute=recompute
        )
        transfer_shapes = TransferShapes.from_cost_model(cost_model, shapes)
        network = NetworkModel()

        def comm_time(mb, src, dst, is_grad):
            nbytes = (
                transfer_shapes.grad_bytes(mb, src)
                if is_grad
                else transfer_shapes.act_bytes(mb, src)
            )
            return network.p2p_time_ms(nbytes, same_node=True)

        static = [
            cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages)
        ]
        vector = simulate_schedule(
            build.schedule, build.durations, comm_time, build.activation_bytes, static
        )
        scalar = simulate_schedule_scalar(
            build.schedule, build.durations, comm_time, build.activation_bytes, static
        )
        assert vector.makespan_ms == scalar.makespan_ms
        assert vector.device_busy_ms == scalar.device_busy_ms
        assert vector.device_idle_ms == scalar.device_idle_ms
        assert vector.peak_activation_bytes == scalar.peak_activation_bytes
        assert vector.op_times == scalar.op_times

    def test_duplicate_op_schedules_raise_simulation_error(self):
        stages = [StageSchedule(stage=0)]
        stages[0].append(0, OpType.FORWARD)
        stages[0].append(0, OpType.FORWARD)
        stages[0].append(0, OpType.BACKWARD)
        schedule = PipelineSchedule(stages=stages, num_microbatches=1)
        with pytest.raises(SimulationError, match="F0@0 appears twice"):
            simulate_schedule(schedule, lambda op: 1.0)

    def test_negative_microbatch_raises_simulation_error(self):
        stages = [StageSchedule(stage=0)]
        stages[0].append(-1, OpType.FORWARD)
        stages[0].append(-1, OpType.BACKWARD)
        schedule = PipelineSchedule(stages=stages, num_microbatches=1)
        with pytest.raises(SimulationError, match="F-1@0 has a negative micro-batch"):
            simulate_schedule(schedule, lambda op: 1.0)


class TestGeometryCache:
    def test_structural_reuse_across_schedule_objects(self):
        clear_geometry_cache()
        reset_engine_stats()
        activation = [[10.0, 10.0] for _ in range(4)]
        first = cyclic_schedule(2, activation)
        second = cyclic_schedule(2, activation)  # fresh, structurally identical
        simulate_schedule(first, lambda op: 1.0)
        assert engine_stats()["geometry_compiles"] == 1
        simulate_schedule(second, lambda op: 2.0)
        stats = engine_stats()
        assert stats["geometry_compiles"] == 1
        assert stats["geometry_cache_hits"] == 1
        # Same-object re-simulation (fleet iterations over one plan).
        simulate_schedule(first, lambda op: 3.0)
        stats = engine_stats()
        assert stats["geometry_compiles"] == 1
        assert stats["geometry_cache_hits"] == 2
        assert stats["timeline_solves"] == 3


#: The production engine and its test oracle, by parametrization id.
ENGINES = {"vector": simulate_schedule, "scalar": simulate_schedule_scalar}


class TestDeadlockDiagnostics:
    def _missing_dependency_schedule(self) -> PipelineSchedule:
        # Stage 0 runs micro-batch 1 only, stage 1 runs micro-batch 0 only:
        # B1@0 waits for B1@1 which never appears.
        stages = [StageSchedule(stage=0), StageSchedule(stage=1)]
        stages[0].append(1, OpType.FORWARD)
        stages[0].append(1, OpType.BACKWARD)
        stages[1].append(0, OpType.FORWARD)
        stages[1].append(0, OpType.BACKWARD)
        return PipelineSchedule(stages=stages, num_microbatches=2)

    def _misordered_schedule(self) -> PipelineSchedule:
        # Last stage lists the backward before its own forward.
        stages = [StageSchedule(stage=0), StageSchedule(stage=1)]
        stages[0].append(0, OpType.FORWARD)
        stages[0].append(0, OpType.BACKWARD)
        stages[1].append(0, OpType.BACKWARD)
        stages[1].append(0, OpType.FORWARD)
        return PipelineSchedule(stages=stages, num_microbatches=1)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_missing_dependency_named(self, engine):
        schedule = self._missing_dependency_schedule()
        with pytest.raises(SimulationError) as excinfo:
            ENGINES[engine](schedule, lambda op: 1.0)
        message = str(excinfo.value)
        assert "B1@0" in message
        assert "B1@1" in message
        assert "never appears in the schedule" in message

    @pytest.mark.parametrize("engine", ENGINES)
    def test_misordered_dependency_named(self, engine):
        schedule = self._misordered_schedule()
        with pytest.raises(SimulationError) as excinfo:
            ENGINES[engine](schedule, lambda op: 1.0)
        message = str(excinfo.value)
        assert "B0@0" in message or "B0@1" in message
        assert "circular or misordered" in message


class TestIncrementalOrderSimulator:
    def _legacy_score(
        self, num_stages, activation, forward_ms, backward_ms, act_comm, grad_comm,
        limits, static, device_memory, order,
    ) -> float:
        try:
            schedule = cyclic_schedule(
                num_stages, activation, memory_limits=limits, injection_order=list(order)
            )
        except ScheduleDeadlockError:
            return float("inf")
        durations = {
            op: (
                forward_ms[op.microbatch, op.stage]
                if op.op_type is OpType.FORWARD
                else backward_ms[op.microbatch, op.stage]
            )
            for op in schedule.all_ops()
        }

        def comm_time(mb, src, dst, is_grad):
            return grad_comm[mb, src] if is_grad else act_comm[mb, src]

        result = simulate_schedule_scalar(
            schedule, durations, comm_time, activation, static
        )
        if device_memory is not None and any(
            peak > device_memory * (1.0 + 1e-9)
            for peak in result.peak_activation_bytes
        ):
            return float("inf")
        return result.makespan_ms

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_from_scratch_after_perturbations(self, seed):
        rng = random.Random(seed)
        num_stages = rng.randint(2, 4)
        num_microbatches = rng.randint(2, 6)
        shape = (num_microbatches, num_stages)
        activation = np.array(
            [[rng.uniform(1, 100) for _ in range(num_stages)] for _ in range(num_microbatches)]
        )
        forward_ms = np.array(
            [[rng.uniform(0.5, 5) for _ in range(num_stages)] for _ in range(num_microbatches)]
        )
        backward_ms = forward_ms * rng.uniform(1.5, 2.5)
        act_comm = np.array(
            [[rng.uniform(0, 1) for _ in range(num_stages)] for _ in range(num_microbatches)]
        )
        grad_comm = np.array(
            [[rng.uniform(0, 1) for _ in range(num_stages)] for _ in range(num_microbatches)]
        )
        limits = None
        if rng.random() < 0.6:
            limits = [
                max(activation[:, j].max() * rng.uniform(1.0, 2.5), 1.0)
                for j in range(num_stages)
            ]
        static = [rng.uniform(0, 30) for _ in range(num_stages)]
        device_memory = rng.uniform(100, 400) if rng.random() < 0.5 else None
        simulator = IncrementalOrderSimulator(
            num_stages, activation, forward_ms, backward_ms, act_comm, grad_comm,
            memory_limits=limits, static_bytes=static,
            device_memory_bytes=device_memory,
        )
        orders = list(itertools.permutations(range(num_microbatches)))
        rng.shuffle(orders)
        for order in orders[:6]:
            incremental = simulator.score(order)
            legacy = self._legacy_score(
                num_stages, activation, forward_ms, backward_ms, act_comm, grad_comm,
                limits, static, device_memory, order,
            )
            assert incremental == legacy
        assert simulator.compiles <= simulator.solves


class TestPlannerIncrementalSearch:
    @pytest.fixture(scope="class")
    def search_samples(self, flan_samples_gpt):
        return flan_samples_gpt[:60]

    def test_incremental_matches_legacy_plan(self, gpt_cost_model, search_samples):
        base = dict(order_search=True, tmax_sample_count=8, max_order_permutations=12)
        incremental = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(incremental_order_search=True, **base),
        ).plan(search_samples)
        legacy = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(incremental_order_search=False, **base),
        ).plan(search_samples)
        assert incremental.predicted_iteration_ms == legacy.predicted_iteration_ms
        assert incremental.recompute == legacy.recompute
        for inc_replica, leg_replica in zip(incremental.replicas, legacy.replicas):
            assert inc_replica.ordering_search is not None
            assert leg_replica.ordering_search is not None
            assert inc_replica.ordering_search.order == leg_replica.ordering_search.order
            assert (
                inc_replica.ordering_search.makespan_ms
                == leg_replica.ordering_search.makespan_ms
            )
            assert (
                inc_replica.simulation.makespan_ms == leg_replica.simulation.makespan_ms
            )

    def test_search_does_not_rebuild_schedule_per_permutation(
        self, gpt_cost_model, search_samples
    ):
        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(
                order_search=True, tmax_sample_count=8, max_order_permutations=12
            ),
        )
        build_calls = {"count": 0}
        original_build = planner.scheduler.build

        def counting_build(*args, **kwargs):
            build_calls["count"] += 1
            return original_build(*args, **kwargs)

        planner.scheduler.build = counting_build
        plan = planner.plan(search_samples)
        searches = [
            replica.ordering_search
            for replica in plan.replicas
            if replica.ordering_search is not None
        ]
        assert searches, "expected the order search to run"
        evaluated = sum(search.evaluated for search in searches)
        assert evaluated > 1
        # The incremental path never rebuilds the schedule while scoring:
        # builds happen only for feasibility checks and the final chosen
        # order, bounded well below one-build-per-permutation.
        assert build_calls["count"] < evaluated
        for search in searches:
            assert search.geometry_compiles is not None
            assert search.timeline_solves is not None
            assert search.timeline_solves == search.evaluated
            assert 1 <= search.geometry_compiles <= search.timeline_solves

    def test_engine_counter_shows_geometry_reuse(self, gpt_cost_model, search_samples):
        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(
                order_search=True, tmax_sample_count=8, max_order_permutations=12
            ),
        )
        reset_engine_stats()
        plan = planner.plan(search_samples)
        stats = engine_stats()
        searches = [
            replica.ordering_search
            for replica in plan.replicas
            if replica.ordering_search is not None and replica.ordering_search.evaluated > 1
        ]
        assert searches
        # Solves grow with permutations scored; compiled geometries do not.
        assert stats["timeline_solves"] > stats["geometry_compiles"]
