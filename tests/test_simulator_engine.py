"""Tests for repro.simulator.engine (compute-op level simulation)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.cyclic import cyclic_schedule
from repro.schedule.events import ComputeOp, OpType
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import SimulationError, simulate_schedule


def uniform_durations(value: float = 1.0):
    return lambda op: value


class TestBasicSimulation:
    def test_single_stage_makespan(self):
        schedule = one_f_one_b_schedule(1, 4)
        result = simulate_schedule(schedule, uniform_durations(2.0))
        # 4 forwards + 4 backwards, 2 ms each, no pipeline overlap possible.
        assert result.makespan_ms == pytest.approx(16.0)

    def test_ideal_pipeline_makespan_formula(self):
        """With uniform unit ops the 1F1B makespan matches the textbook
        (c - 1) bubbles formula: (m + c - 1) * (tf + tb) for tf == tb == 1."""
        c, m = 4, 8
        schedule = one_f_one_b_schedule(c, m)
        result = simulate_schedule(schedule, uniform_durations(1.0))
        assert result.makespan_ms == pytest.approx((m + c - 1) * 2.0)

    def test_op_times_complete(self):
        schedule = one_f_one_b_schedule(3, 5)
        result = simulate_schedule(schedule, uniform_durations())
        assert len(result.op_times) == schedule.total_ops()

    def test_durations_from_mapping(self):
        schedule = one_f_one_b_schedule(2, 2)
        durations = {op: 1.5 for op in schedule.all_ops()}
        result = simulate_schedule(schedule, durations)
        assert result.makespan_ms > 0

    def test_dependencies_respected(self):
        schedule = one_f_one_b_schedule(4, 6)
        result = simulate_schedule(schedule, uniform_durations())
        times = result.op_times
        for mb in range(6):
            for stage in range(3):
                fwd_here = times[ComputeOp(mb, stage, OpType.FORWARD)]
                fwd_next = times[ComputeOp(mb, stage + 1, OpType.FORWARD)]
                assert fwd_next[0] >= fwd_here[1] - 1e-9
                bwd_next = times[ComputeOp(mb, stage + 1, OpType.BACKWARD)]
                bwd_here = times[ComputeOp(mb, stage, OpType.BACKWARD)]
                assert bwd_here[0] >= bwd_next[1] - 1e-9
        for mb in range(6):
            last = 3
            fwd = times[ComputeOp(mb, last, OpType.FORWARD)]
            bwd = times[ComputeOp(mb, last, OpType.BACKWARD)]
            assert bwd[0] >= fwd[1] - 1e-9

    def test_device_order_respected(self):
        schedule = one_f_one_b_schedule(4, 6)
        result = simulate_schedule(schedule, uniform_durations())
        for stage_schedule in schedule.stages:
            ends = [result.op_times[op][1] for op in stage_schedule.ops]
            starts = [result.op_times[op][0] for op in stage_schedule.ops]
            for prev_end, next_start in zip(ends, starts[1:]):
                assert next_start >= prev_end - 1e-9

    def test_comm_time_adds_latency(self):
        schedule = one_f_one_b_schedule(4, 4)
        without = simulate_schedule(schedule, uniform_durations())
        with_comm = simulate_schedule(
            schedule, uniform_durations(), comm_time_fn=lambda mb, s, d, g: 0.5
        )
        assert with_comm.makespan_ms > without.makespan_ms

    def test_busy_plus_idle_equals_makespan(self):
        schedule = one_f_one_b_schedule(4, 6)
        result = simulate_schedule(schedule, uniform_durations(3.0))
        for busy, idle in zip(result.device_busy_ms, result.device_idle_ms):
            assert busy + idle == pytest.approx(result.makespan_ms)

    def test_bubble_fraction_positive_for_multistage(self):
        result = simulate_schedule(one_f_one_b_schedule(4, 4), uniform_durations())
        assert 0.0 < result.bubble_fraction < 1.0

    def test_bubble_fraction_shrinks_with_more_microbatches(self):
        few = simulate_schedule(one_f_one_b_schedule(4, 4), uniform_durations())
        many = simulate_schedule(one_f_one_b_schedule(4, 32), uniform_durations())
        assert many.bubble_fraction < few.bubble_fraction


class TestMemoryTracking:
    def test_peak_activation_matches_1f1b_bound(self):
        c, m = 4, 8
        schedule = one_f_one_b_schedule(c, m)
        activation = [[1.0] * c for _ in range(m)]
        result = simulate_schedule(
            schedule, uniform_durations(), activation_bytes=activation
        )
        # Stage j holds at most c - j concurrent activations under 1F1B.
        for stage in range(c):
            assert result.peak_activation_bytes[stage] <= c - stage + 1e-9

    def test_static_bytes_included(self):
        schedule = one_f_one_b_schedule(2, 2)
        activation = [[1.0, 1.0] for _ in range(2)]
        result = simulate_schedule(
            schedule,
            uniform_durations(),
            activation_bytes=activation,
            static_bytes=[100.0, 200.0],
        )
        assert result.peak_activation_bytes[0] >= 100.0
        assert result.peak_activation_bytes[1] >= 200.0


class TestRobustnessToVariation:
    def test_adaptive_schedule_tolerates_variation_better_than_1f1b(self):
        """The core claim of paper §5 / Fig. 7: under noisy micro-batch
        execution times the adaptive (cyclic) schedule's makespan degrades
        less than 1F1B's."""
        import numpy as np

        c, m = 8, 32
        rng = np.random.default_rng(0)
        noisy = {
            (mb, OpType.FORWARD): max(0.05, 1.0 + rng.normal(0, 0.5)) for mb in range(m)
        }
        noisy.update(
            {(mb, OpType.BACKWARD): max(0.05, 2.0 + rng.normal(0, 0.5)) for mb in range(m)}
        )

        def duration(op: ComputeOp) -> float:
            return noisy[(op.microbatch, op.op_type)]

        one_f = simulate_schedule(one_f_one_b_schedule(c, m), duration)
        adaptive = simulate_schedule(
            cyclic_schedule(c, [[1.0] * c for _ in range(m)]), duration
        )
        assert adaptive.makespan_ms <= one_f.makespan_ms * 1.001

    @given(
        stages=st.integers(1, 5),
        microbatches=st.integers(1, 10),
        duration=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_lower_bound(self, stages, microbatches, duration):
        """The makespan is never below the busiest device's total work nor
        below the critical path of a single micro-batch."""
        schedule = one_f_one_b_schedule(stages, microbatches)
        result = simulate_schedule(schedule, uniform_durations(duration))
        per_device_work = 2 * microbatches * duration
        critical_path = 2 * stages * duration
        assert result.makespan_ms >= per_device_work - 1e-6
        assert result.makespan_ms >= critical_path - 1e-6


class TestErrors:
    def test_inconsistent_schedule_raises(self):
        from repro.schedule.events import ComputeOp, PipelineSchedule, StageSchedule

        # Stage 1 expects micro-batch 0's forward but stage 0 never runs it.
        stage0 = StageSchedule(
            0, [ComputeOp(1, 0, OpType.FORWARD), ComputeOp(1, 0, OpType.BACKWARD)]
        )
        stage1 = StageSchedule(
            1, [ComputeOp(0, 1, OpType.FORWARD), ComputeOp(0, 1, OpType.BACKWARD)]
        )
        broken = PipelineSchedule(stages=[stage0, stage1], num_microbatches=2)
        with pytest.raises(SimulationError):
            simulate_schedule(broken, uniform_durations())
