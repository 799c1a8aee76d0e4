"""Tests for repro.schedule.cyclic (Algorithm 1) and validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.cyclic import ScheduleDeadlockError, cyclic_schedule, cyclic_walk
from repro.schedule.events import OpType
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.schedule.validation import ScheduleValidationError, validate_schedule


def uniform_activation(num_microbatches: int, num_stages: int, size: float = 1.0):
    return [[size] * num_stages for _ in range(num_microbatches)]


class TestCyclicSchedule:
    def test_all_ops_present(self):
        schedule = cyclic_schedule(4, uniform_activation(6, 4))
        validate_schedule(schedule)
        assert schedule.total_ops() == 2 * 6 * 4

    def test_unlimited_memory_injects_all_microbatches_first(self):
        """Without memory limits, the first stage runs every forward before
        any backward reaches it (maximum safety stock, Fig. 11b)."""
        m = 5
        schedule = cyclic_schedule(3, uniform_activation(m, 3))
        first_stage_types = [op.op_type for op in schedule.stage(0).ops[:m]]
        assert all(t is OpType.FORWARD for t in first_stage_types)

    def test_memory_limit_delays_injection(self):
        """With a tight limit the first stage interleaves backwards before it
        can inject all forwards (Fig. 11c)."""
        m, c = 8, 4
        limited = cyclic_schedule(
            c, uniform_activation(m, c), memory_limits=[2.5] * c
        )
        validate_schedule(limited)
        first_stage = limited.stage(0).ops
        first_backward = next(
            i for i, op in enumerate(first_stage) if op.op_type is OpType.BACKWARD
        )
        assert first_backward < m  # a backward appears before all m forwards

    def test_memory_limit_respected_logically(self):
        """Replaying the first stage's op order never exceeds the limit."""
        m, c = 10, 4
        limit = 3.0
        schedule = cyclic_schedule(c, uniform_activation(m, c), memory_limits=[limit] * c)
        for stage_schedule in schedule.stages:
            live = 0.0
            for op in stage_schedule.ops:
                if op.op_type is OpType.FORWARD:
                    live += 1.0
                    assert live <= limit + 1e-9
                else:
                    live -= 1.0

    def test_injection_order_respected(self):
        order = [3, 1, 0, 2]
        schedule = cyclic_schedule(2, uniform_activation(4, 2), injection_order=order)
        assert schedule.injection_order() == order

    def test_single_microbatch_too_large_deadlocks(self):
        with pytest.raises(ScheduleDeadlockError):
            cyclic_schedule(2, [[10.0, 10.0]], memory_limits=[5.0, 5.0])

    def test_invalid_injection_order(self):
        with pytest.raises(ValueError):
            cyclic_schedule(2, uniform_activation(3, 2), injection_order=[0, 1])
        with pytest.raises(ValueError):
            cyclic_schedule(2, uniform_activation(2, 2), injection_order=[0, 0])

    @pytest.mark.parametrize("order", [[0, 0], [0], [1, 2], [0, 1, 2]])
    def test_stage_sequences_reject_non_permutation(self, order):
        """The walk validates a given order itself.  ``[0, 0]`` used to
        schedule micro-batch 0 twice and never schedule 1, and a short
        order ended in a bare ``AssertionError``."""
        with pytest.raises(ValueError, match="permutation"):
            cyclic_walk(2, uniform_activation(2, 2), injection_order=order)

    def test_mismatched_activation_matrix(self):
        with pytest.raises(ValueError):
            cyclic_schedule(3, [[1.0, 1.0]])

    def test_mismatched_memory_limits(self):
        with pytest.raises(ValueError):
            cyclic_schedule(2, uniform_activation(2, 2), memory_limits=[1.0])

    def test_heterogeneous_activations(self):
        """Micro-batches with very different footprints still schedule."""
        activation = [[0.5, 0.5], [4.0, 4.0], [0.5, 0.5], [4.0, 4.0]]
        schedule = cyclic_schedule(2, activation, memory_limits=[5.0, 5.0])
        validate_schedule(schedule)

    @given(
        stages=st.integers(1, 6),
        microbatches=st.integers(1, 12),
        limit_factor=st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_produces_valid_schedules(self, stages, microbatches, limit_factor):
        """Property: Alg. 1 always emits a complete, dependency-consistent
        schedule whenever a single micro-batch fits in memory."""
        activation = uniform_activation(microbatches, stages)
        schedule = cyclic_schedule(
            stages, activation, memory_limits=[limit_factor] * stages
        )
        validate_schedule(schedule)
        assert schedule.num_microbatches == microbatches


class TestValidation:
    def test_detects_missing_backward(self):
        schedule = one_f_one_b_schedule(2, 2)
        schedule.stage(0).ops.pop()  # drop the last backward
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule)

    def test_detects_backward_before_forward(self):
        schedule = one_f_one_b_schedule(1, 2)
        schedule.stage(0).ops.reverse()
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule)

    def test_detects_cross_stage_deadlock(self):
        """A per-stage-consistent order can still deadlock across stages:
        stage 1 refuses to forward micro-batch 1 before seeing micro-batch 0's
        backward, while stage 2 refuses to run anything before micro-batch 1's
        forward — a circular wait the validator must reject."""
        from repro.schedule.events import ComputeOp, PipelineSchedule, StageSchedule

        def stage_with(stage: int, ops: list[tuple[int, OpType]]) -> StageSchedule:
            return StageSchedule(stage, [ComputeOp(mb, stage, op_type) for mb, op_type in ops])

        deadlocked = PipelineSchedule(
            stages=[
                stage_with(0, [(0, OpType.FORWARD), (1, OpType.FORWARD), (0, OpType.BACKWARD), (1, OpType.BACKWARD)]),
                stage_with(1, [(0, OpType.FORWARD), (0, OpType.BACKWARD), (1, OpType.FORWARD), (1, OpType.BACKWARD)]),
                stage_with(2, [(1, OpType.FORWARD), (0, OpType.FORWARD), (0, OpType.BACKWARD), (1, OpType.BACKWARD)]),
            ],
            num_microbatches=2,
        )
        with pytest.raises(ScheduleValidationError, match="deadlock"):
            validate_schedule(deadlocked)

    def test_reordered_but_consistent_schedule_passes(self):
        """Swapping micro-batch order consistently across stages stays valid."""
        schedule = cyclic_schedule(3, uniform_activation(4, 3), injection_order=[2, 0, 3, 1])
        validate_schedule(schedule)

    def test_valid_1f1b_passes(self):
        validate_schedule(one_f_one_b_schedule(4, 8))
