"""Order walk vs per-order compiled evaluation: bit identity.

:class:`~repro.simulator.incremental.IncrementalOrderSimulator` scores a
cyclic injection order with one timed walk of Algorithm 1.  The oracle in
``tests/oracles/order_eval_compiled.py`` schedules the permuted rows with
its own copy of the ready-buffer loop, compiles the slot structure, solves
it and walks its peak memory.  The two must agree exactly: scores,
makespans and peaks to the bit, feasibility, op sequences, deadlock
verdicts and the chosen order's schedule and timeline.  Cases cover 1–5
stages, 1–12 micro-batches, negative durations, memory limits that gate or
deadlock, and static bytes and device capacity each set or ``None``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.cyclic import ScheduleDeadlockError, cyclic_schedule, cyclic_walk
from repro.schedule.one_f_one_b import one_f_one_b_stage_sequences
from repro.simulator.engine import engine_stats
from repro.simulator.incremental import IncrementalOrderSimulator

from oracles.order_eval_compiled import CompiledOrderSimulator
from oracles.order_eval_compiled import cyclic_stage_sequences as oracle_stage_sequences


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


def _matrix(draw, shape, low, high):
    rows, cols = shape
    return np.array([[draw(st.floats(low, high)) for _ in range(cols)] for _ in range(rows)])


@st.composite
def replicas(draw, one_f_one_b: bool = False):
    """Simulator inputs of one replica plus a few injection orders."""
    num_stages = draw(st.integers(1, 5))
    num_microbatches = draw(st.integers(1, 12))
    shape = (num_microbatches, num_stages)
    activation = _matrix(draw, shape, 1.0, 100.0)
    forward = _matrix(draw, shape, -1.0, 10.0)  # negatives are clamped to zero
    backward = _matrix(draw, shape, -1.0, 20.0)
    act_comm = _matrix(draw, shape, 0.0, 2.0)
    grad_comm = _matrix(draw, shape, 0.0, 2.0)
    limits = None
    if not one_f_one_b:
        regime = draw(st.sampled_from(["none", "gating", "gating", "deadlocking"]))
        largest = activation.max(axis=0)
        if regime == "gating":
            limits = [float(largest[j]) * draw(st.floats(1.0, 3.0)) for j in range(num_stages)]
        elif regime == "deadlocking":
            limits = [float(largest[j]) * draw(st.floats(0.3, 1.2)) for j in range(num_stages)]
    static = None
    if draw(st.booleans()):
        static = [draw(st.floats(0.0, 50.0)) for _ in range(num_stages)]
    capacity = draw(st.one_of(st.none(), st.floats(50.0, 600.0)))
    identity = list(range(num_microbatches))
    orders = [identity] + draw(
        st.lists(st.permutations(identity), min_size=1, max_size=4)
    )
    simulator_args = (num_stages, activation, forward, backward, act_comm, grad_comm)
    simulator_kwargs = dict(
        memory_limits=limits,
        static_bytes=static,
        device_memory_bytes=capacity,
        stage_sequences=(
            one_f_one_b_stage_sequences(num_stages, num_microbatches) if one_f_one_b else None
        ),
    )
    return simulator_args, simulator_kwargs, orders


def _assert_equivalent(simulator_args, simulator_kwargs, orders):
    walk = IncrementalOrderSimulator(*simulator_args, **simulator_kwargs)
    oracle = CompiledOrderSimulator(*simulator_args, **simulator_kwargs)
    num_stages, activation = simulator_args[0], simulator_args[1]
    limits = simulator_kwargs["memory_limits"]
    for order in orders:
        try:
            expected = oracle.evaluate(order)
        except ScheduleDeadlockError:
            with pytest.raises(ScheduleDeadlockError):
                walk.evaluate(order)
            assert walk.score(order) == oracle.score(order) == float("inf")
            continue
        compiles = engine_stats()["geometry_compiles"]
        evaluation = walk.evaluate(order)
        assert engine_stats()["geometry_compiles"] == compiles  # scoring compiles nothing
        assert _bits([evaluation.makespan_ms]) == _bits([expected.solution.makespan_ms])
        assert _bits(evaluation.peak_activation_bytes) == _bits(expected.peak_activation_bytes)
        assert evaluation.feasible == expected.feasible
        assert _bits([walk.score(order)]) == _bits([oracle.score(order)])
        # The walk runs real micro-batch ids; the oracle's slot ``k`` is
        # micro-batch ``order[k]``.
        if simulator_kwargs["stage_sequences"] is None:
            slots = oracle_stage_sequences(num_stages, activation[list(order)], limits)
        else:
            slots = simulator_kwargs["stage_sequences"]
        assert evaluation.sequences == [
            [(order[encoded >> 1] << 1) | (encoded & 1) for encoded in sequence]
            for sequence in slots
        ]

        schedule, result = walk.simulation(order, name="walk")
        expected_schedule, expected_result = oracle.simulation(order, name="walk")
        assert [stage.ops for stage in schedule.stages] == [
            stage.ops for stage in expected_schedule.stages
        ]
        assert schedule.num_microbatches == expected_schedule.num_microbatches
        assert _bits([result.makespan_ms]) == _bits([expected_result.makespan_ms])
        assert result.device_busy_ms == expected_result.device_busy_ms
        assert result.device_idle_ms == expected_result.device_idle_ms
        assert _bits(result.peak_activation_bytes) == _bits(
            expected_result.peak_activation_bytes
        )
        assert list(result.op_times.items()) == list(expected_result.op_times.items())


class TestCyclicWalkMatchesCompiledEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(case=replicas())
    def test_cyclic_orders(self, case):
        _assert_equivalent(*case)

    @settings(max_examples=40, deadline=None)
    @given(case=replicas(one_f_one_b=True))
    def test_one_f_one_b_orders(self, case):
        _assert_equivalent(*case)


class TestUntimedWalk:
    @settings(max_examples=100, deadline=None)
    @given(case=replicas())
    def test_sequences_and_deadlocks_match_the_oracle_loop(self, case):
        (num_stages, activation, *_), kwargs, orders = case
        limits = kwargs["memory_limits"]
        for order in orders:
            try:
                expected = oracle_stage_sequences(num_stages, activation, limits, order)
            except ScheduleDeadlockError:
                with pytest.raises(ScheduleDeadlockError):
                    cyclic_walk(num_stages, activation, limits, order)
                continue
            assert cyclic_walk(num_stages, activation, limits, order).sequences == expected
            schedule = cyclic_schedule(num_stages, activation, limits, order)
            assert [
                [(op.microbatch << 1) | (op.op_type.value == "F") for op in stage.ops]
                for stage in schedule.stages
            ] == expected

    def test_untimed_walk_has_zero_makespan(self):
        walk = cyclic_walk(2, [[1.0, 2.0], [3.0, 4.0]], static_bytes=[10.0, 20.0])
        assert walk.makespan_ms == 0.0
        assert walk.peak_bytes == [14.0, 24.0]
