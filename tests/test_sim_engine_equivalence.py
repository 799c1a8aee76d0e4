"""Timeline-walk equivalence and incremental re-simulation tests.

The timeline walk must be *bit-identical* to the scalar oracle in
``tests/oracles/sim_scalar.py`` (op start/end times, makespan, busy/idle,
peak activation memory); on malformed schedules it must raise the compiled
oracle's (``tests/oracles/compiled_timeline.py``) error text, and it must
draw the same callbacks in the same order.  The incremental order-search
scorer must match the legacy build-and-simulate path exactly.  These
properties are pinned with hypothesis over random schedules and with the
real GPT/T5 cost models across recompute modes.
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
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule, StageSchedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule, one_f_one_b_stage_sequences
from repro.simulator.engine import (
    SimulationError,
    engine_stats,
    reset_engine_stats,
    simulate_schedule,
)
from repro.simulator.incremental import IncrementalOrderSimulator

from oracles.compiled_timeline import simulate_schedule_compiled
from oracles.sim_scalar import simulate_schedule_scalar


def _random_case(rng: random.Random, malformed: bool = False):
    """One random schedule + simulation inputs derived from a seed.

    With ``malformed`` one mutation is applied to the schedule: a duplicated
    op, a negative micro-batch index, a dropped op, or two ops swapped on
    one stage.  Some mutations leave a schedule that still runs (dropping a
    stage-0 backward, swapping two independent ops).
    """
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
    if malformed:
        _mutate(rng, schedule)
    return schedule, durations, comm_time, activation, static


def _mutate(rng: random.Random, schedule: PipelineSchedule) -> None:
    """Apply one random malformation to ``schedule`` in place."""
    stage = rng.choice([stage for stage in schedule.stages if stage.ops])
    ops = stage.ops
    position = rng.randrange(len(ops))
    mutation = rng.choice(["duplicate", "negative", "drop", "swap"])
    if mutation == "duplicate":
        ops.insert(rng.randrange(len(ops) + 1), ops[position])
    elif mutation == "negative":
        op = ops[position]
        ops[position] = ComputeOp(-rng.randint(1, 3), op.stage, op.op_type)
    elif mutation == "drop":
        del ops[position]
    else:
        other = rng.randrange(len(ops))
        ops[position], ops[other] = ops[other], ops[position]


def _schedule(
    stage_ops: list[list[tuple[int, OpType]]], num_microbatches: int
) -> PipelineSchedule:
    """A schedule with the given per-stage ``(microbatch, op type)`` order,
    malformed ones included."""
    return PipelineSchedule(
        stages=[
            StageSchedule(stage, [ComputeOp(mb, stage, op_type) for mb, op_type in ops])
            for stage, ops in enumerate(stage_ops)
        ],
        num_microbatches=num_microbatches,
    )


def _events(trace) -> list:
    """Trace events in device-then-time order (the scalar oracle records
    them in execution order, the timeline walk stage-major)."""
    return sorted(
        trace.events, key=lambda event: (event.device, event.start_ms, event.end_ms, event.name)
    )


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
        assert _events(vector.trace) == _events(scalar.trace)
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

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_malformed_schedules_match_the_compiled_oracle(self, seed):
        """A mutated schedule raises the compiled oracle's error text, or
        runs to the same floats when the mutation left it valid."""
        schedule, durations, comm_time, activation, static = _random_case(
            random.Random(seed), malformed=True
        )
        outcomes = []
        for engine in (simulate_schedule, simulate_schedule_compiled):
            try:
                result = engine(schedule, durations, comm_time, activation, static)
            except SimulationError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(
                    (
                        result.makespan_ms,
                        result.device_busy_ms,
                        result.device_idle_ms,
                        result.peak_activation_bytes,
                        list(result.op_times.items()),
                    )
                )
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_check_precedence_matches_the_compiled_oracle(self, seed):
        """With up to four mutations at once, the first failing check in
        precedence order names the same op as the compiled oracle."""
        rng = random.Random(seed)
        schedule, durations, _, _, _ = _random_case(rng, malformed=True)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, schedule)
        messages = []
        for engine in (simulate_schedule, simulate_schedule_compiled):
            try:
                engine(schedule, lambda op: 1.0)
            except SimulationError as exc:
                messages.append(str(exc))
            else:
                messages.append(None)
        assert messages[0] == messages[1]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1), malformed=st.booleans()
    )
    def test_callbacks_drawn_as_the_compiled_oracle_draws_them(self, seed, malformed):
        """Durations in ``all_ops()`` order, then activation edges, then
        gradient edges; none at all for a schedule that cannot run."""
        schedule, durations, comm_time, activation, static = _random_case(
            random.Random(seed), malformed=malformed
        )
        if comm_time is None:
            comm_time = lambda mb, src, dst, grad: 0.5  # noqa: E731
        calls = {}
        for engine in (simulate_schedule, simulate_schedule_compiled):
            log = calls[engine] = []

            def duration(op, log=log):
                log.append(op)
                return durations[op]

            def comm(*args, log=log):
                log.append(args)
                return comm_time(*args)

            try:
                engine(schedule, duration, comm, activation, static)
            except SimulationError:
                pass
        assert calls[simulate_schedule] == calls[simulate_schedule_compiled]

    def test_duplicate_op_schedules_raise_simulation_error(self):
        schedule = _schedule(
            [[(0, OpType.FORWARD), (0, OpType.FORWARD), (0, OpType.BACKWARD)]], 1
        )
        with pytest.raises(SimulationError, match="F0@0 appears twice"):
            simulate_schedule(schedule, lambda op: 1.0)

    def test_negative_microbatch_raises_simulation_error(self):
        schedule = _schedule([[(-1, OpType.FORWARD), (-1, OpType.BACKWARD)]], 1)
        with pytest.raises(SimulationError, match="F-1@0 has a negative micro-batch"):
            simulate_schedule(schedule, lambda op: 1.0)


#: The production engine and its test oracle, by parametrization id.
ENGINES = {"vector": simulate_schedule, "scalar": simulate_schedule_scalar}


class TestDeadlockDiagnostics:
    def _missing_dependency_schedule(self) -> PipelineSchedule:
        # Stage 0 runs micro-batch 1 only, stage 1 runs micro-batch 0 only:
        # B1@0 waits for B1@1 which never appears.
        return _schedule(
            [
                [(1, OpType.FORWARD), (1, OpType.BACKWARD)],
                [(0, OpType.FORWARD), (0, OpType.BACKWARD)],
            ],
            2,
        )

    def _misordered_schedule(self) -> PipelineSchedule:
        # Last stage lists the backward before its own forward.
        return _schedule(
            [
                [(0, OpType.FORWARD), (0, OpType.BACKWARD)],
                [(0, OpType.BACKWARD), (0, OpType.FORWARD)],
            ],
            1,
        )

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
    def _legacy(
        self, num_stages, activation, forward_ms, backward_ms, act_comm, grad_comm,
        limits, static, device_memory, order, one_f_one_b=False,
    ):
        """Build + scalar-simulate ``order``: (score, schedule, result).

        With ``one_f_one_b`` the schedule is 1F1B whose micro-batch ``k`` is
        relabelled ``order[k]``.
        """
        if one_f_one_b:
            schedule = one_f_one_b_schedule(num_stages, len(order))
            for stage in schedule.stages:
                stage.ops = [
                    ComputeOp(order[op.microbatch], op.stage, op.op_type) for op in stage.ops
                ]
        else:
            try:
                schedule = cyclic_schedule(
                    num_stages, activation, memory_limits=limits, injection_order=list(order)
                )
            except ScheduleDeadlockError:
                return float("inf"), None, None
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
            return float("inf"), schedule, result
        return result.makespan_ms, schedule, result

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
        self._check_orders(
            simulator, orders[:6], "adaptive",
            num_stages, activation, forward_ms, backward_ms, act_comm, grad_comm,
            limits, static, device_memory,
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_one_f_one_b_sequences_match_from_scratch(self, seed):
        """Fixed 1F1B sequences: order ``P`` runs 1F1B with slot ``k`` holding
        micro-batch ``P[k]``; each score and each timeline is one walk."""
        solves = engine_stats()["timeline_solves"]
        rng = random.Random(seed)
        num_stages = rng.randint(1, 4)
        num_microbatches = rng.randint(1, 6)
        activation, forward_ms, act_comm, grad_comm = (
            np.array(
                [[rng.uniform(low, high) for _ in range(num_stages)]
                 for _ in range(num_microbatches)]
            )
            for low, high in ((1, 100), (0.5, 5), (0, 1), (0, 1))
        )
        backward_ms = forward_ms * rng.uniform(1.5, 2.5)
        static = [rng.uniform(0, 30) for _ in range(num_stages)]
        device_memory = rng.uniform(100, 400) if rng.random() < 0.5 else None
        simulator = IncrementalOrderSimulator(
            num_stages, activation, forward_ms, backward_ms, act_comm, grad_comm,
            static_bytes=static,
            device_memory_bytes=device_memory,
            stage_sequences=one_f_one_b_stage_sequences(num_stages, num_microbatches),
        )
        orders = list(itertools.permutations(range(num_microbatches)))
        rng.shuffle(orders)
        orders = [tuple(range(num_microbatches))] + orders[:4]
        self._check_orders(
            simulator, orders, "1f1b",
            num_stages, activation, forward_ms, backward_ms, act_comm, grad_comm,
            None, static, device_memory, one_f_one_b=True,
        )
        assert engine_stats()["timeline_solves"] - solves == 2 * len(orders)

    @pytest.mark.parametrize("one_f_one_b", [False, True], ids=["cyclic", "1f1b"])
    @pytest.mark.parametrize("order", [[0, 0, 2], [0, 1], [0, 1, 3], [2, 1, 0, 3]])
    def test_rejects_orders_that_are_not_permutations(self, one_f_one_b, order):
        """Both kinds reject a non-permutation with the same ``ValueError``.
        On 1F1B ``[0, 0, 2]`` used to run micro-batch 0 twice, drop
        micro-batch 1 and return a feasible evaluation, and ``[0, 1]``
        raised a bare ``IndexError``."""
        rows = np.ones((3, 2))
        simulator = IncrementalOrderSimulator(
            2, rows, rows, rows, rows, rows,
            stage_sequences=one_f_one_b_stage_sequences(2, 3) if one_f_one_b else None,
        )
        with pytest.raises(ValueError, match="^injection_order must be a permutation"):
            simulator.evaluate(order)
        with pytest.raises(ValueError, match="^injection_order must be a permutation"):
            simulator.score(order)

    def _check_orders(self, simulator, orders, name, *case, one_f_one_b=False):
        """Each order's score, schedule and timeline equal the from-scratch
        ones.  Scoring a cyclic order walks no fixed sequences (a 1F1B
        order's score is one walk); :meth:`simulation` walks once."""
        scoring_walks = 1 if one_f_one_b else 0
        for order in orders:
            solves = engine_stats()["timeline_solves"]
            incremental = simulator.score(order)
            assert engine_stats()["timeline_solves"] - solves == scoring_walks
            legacy, schedule, result = self._legacy(*case, order, one_f_one_b=one_f_one_b)
            assert incremental == legacy
            if schedule is None:
                continue
            built, simulated = simulator.simulation(order, name=name)
            assert engine_stats()["timeline_solves"] - solves == scoring_walks + 1
            assert [stage.ops for stage in built.stages] == [
                stage.ops for stage in schedule.stages
            ]
            assert built.num_microbatches == schedule.num_microbatches
            assert simulated.makespan_ms == result.makespan_ms
            assert simulated.device_busy_ms == result.device_busy_ms
            assert simulated.device_idle_ms == result.device_idle_ms
            assert simulated.peak_activation_bytes == result.peak_activation_bytes
            assert simulated.op_times == result.op_times
            # Stage-major, like simulate_schedule (stream lowering breaks
            # end-time ties in this order).
            assert list(simulated.op_times) == list(schedule.all_ops())
            assert _events(simulated.trace) == _events(result.trace)


class TestPlannerIncrementalSearch:
    @pytest.fixture(scope="class")
    def search_samples(self, flan_samples_gpt):
        return flan_samples_gpt[:60]

    def test_search_does_not_rebuild_schedule_per_permutation(
        self, gpt_cost_model, search_samples, monkeypatch
    ):
        builds = []
        original_build = AdaptiveScheduler.build

        def counting_build(*args, **kwargs):
            builds.append(kwargs.get("kind"))
            return original_build(*args, **kwargs)

        search_work = []
        original_search = DynaPipePlanner._search_injection_order

        def counting_search(*args, **kwargs):
            before = engine_stats()["timeline_solves"]
            result = original_search(*args, **kwargs)
            search_work.append(engine_stats()["timeline_solves"] - before)
            return result

        monkeypatch.setattr(AdaptiveScheduler, "build", counting_build)
        monkeypatch.setattr(DynaPipePlanner, "_search_injection_order", counting_search)
        for kind in ScheduleKind:
            reset_engine_stats()
            planner = DynaPipePlanner(
                gpt_cost_model,
                config=PlannerConfig(
                    schedule_kind=kind,
                    order_search=True,
                    tmax_sample_count=8,
                    max_order_permutations=12,
                ),
            )
            plan = planner.plan(search_samples)
            # Every replica, 1F1B included, lives on one incremental
            # simulator from the feasibility check to the emitted plan: no
            # schedule build, no from-scratch simulation, and one walk of
            # fixed sequences per lowered replica (1F1B also walks its
            # identity order for the feasibility check).
            assert builds == [], kind
            assert engine_stats()["vector_simulations"] == 0, kind
            walks_per_replica = 2 if kind is ScheduleKind.ONE_F_ONE_B else 1
            walks = engine_stats()["timeline_solves"]
            assert walks == walks_per_replica * len(plan.replicas), kind
            if kind is ScheduleKind.ONE_F_ONE_B:
                continue
            searches = [
                replica.ordering_search
                for replica in plan.replicas
                if replica.ordering_search is not None
            ]
            assert searches, "expected the order search to run"
            assert sum(search.evaluated for search in searches) > 1
        # The search scores orders by timed walks of Algorithm 1: it walks
        # no fixed sequences.
        assert search_work and set(search_work) == {0}

    def test_one_f_one_b_skips_the_search(self, gpt_cost_model, search_samples):
        planner = DynaPipePlanner(
            gpt_cost_model,
            config=PlannerConfig(
                schedule_kind=ScheduleKind.ONE_F_ONE_B,
                order_search=True,
                tmax_sample_count=8,
            ),
        )
        plan = planner.plan(search_samples)
        assert all(replica.ordering_search is None for replica in plan.replicas)
        assert all(replica.plan.metadata.schedule_name == "1f1b" for replica in plan.replicas)

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
        # Permutations are scored by Algorithm 1's own walk: each replica
        # walks its chosen order's sequences once.
        assert stats["timeline_solves"] == len(plan.replicas)
