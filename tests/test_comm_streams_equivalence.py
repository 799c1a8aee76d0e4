"""Array stream lowering ≡ the scan-anchored oracle.

``build_instruction_streams`` anchors every receive with one
``np.searchsorted`` per device over running-max start times; the oracle in
``tests/oracles/comm_streams_scan.py`` is the original linear scan.  Both
must return identical streams for any ``op_times`` — simulated or not,
with ties in end times, with starts that are not monotone per device, and
in any iteration order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.planner import build_instruction_streams
from repro.model.memory import RecomputeMode
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import simulate_schedule

from oracles.comm_streams_scan import build_instruction_streams_scan
from strategies_instructions import SHAPE, schedules, uniform_transfer_shapes


def _transfer_shapes(rng: random.Random, num_microbatches: int, num_stages: int):
    shapes = uniform_transfer_shapes(num_microbatches, num_stages)
    for row in shapes.activation_bytes + shapes.gradient_bytes:
        for j in range(num_stages):
            row[j] = float(rng.randint(1, 512))
    return shapes


def _recompute(rng: random.Random, num_microbatches: int):
    if rng.random() < 0.5:
        return rng.choice(list(RecomputeMode))
    return [rng.choice(list(RecomputeMode)) for _ in range(num_microbatches)]


def _assert_same_streams(schedule, op_times, rng):
    shapes = [SHAPE] * schedule.num_microbatches
    transfer_shapes = _transfer_shapes(rng, schedule.num_microbatches, schedule.num_stages)
    recompute = _recompute(rng, schedule.num_microbatches)
    expected = build_instruction_streams_scan(
        schedule, op_times, shapes, transfer_shapes, recompute
    )
    actual = build_instruction_streams(schedule, op_times, shapes, transfer_shapes, recompute)
    assert actual == expected


@settings(max_examples=80, deadline=None)
@given(schedule=schedules(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_simulated_timelines(schedule, seed):
    """Cyclic and 1F1B schedules simulated with random durations, a share
    of them zero so that end times tie."""
    rng = random.Random(seed)
    durations = {
        op: 0.0 if rng.random() < 0.3 else float(rng.randint(1, 4))
        for op in schedule.all_ops()
    }
    comm = rng.choice([None, 0.5, 1.0])
    simulation = simulate_schedule(
        schedule,
        durations,
        comm_time_fn=None if comm is None else (lambda mb, src, dst, grad: comm),
    )
    _assert_same_streams(schedule, simulation.op_times, rng)


@settings(max_examples=80, deadline=None)
@given(schedule=schedules(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_arbitrary_op_times(schedule, seed):
    """``op_times`` that no simulation produces: starts that go back in time
    along a device, heavy ties from a tiny value set, values within the
    ``1e-9`` anchor tolerance, and a shuffled iteration order."""
    rng = random.Random(seed)
    values = [0.0, 1.0, 1.0 + 5e-10, 2.0, 3.0 - 1e-9, 3.0]
    ops = list(schedule.all_ops())
    rng.shuffle(ops)
    op_times = {}
    for op in ops:
        start = rng.choice(values)
        op_times[op] = (start, start + rng.choice(values))
    _assert_same_streams(schedule, op_times, rng)


@pytest.mark.parametrize("num_stages,num_microbatches", [(1, 3), (2, 1), (4, 8)])
def test_one_f_one_b_with_zero_durations(num_stages, num_microbatches):
    schedule = one_f_one_b_schedule(num_stages, num_microbatches)
    simulation = simulate_schedule(schedule, lambda op: 0.0)
    _assert_same_streams(schedule, simulation.op_times, random.Random(0))


def test_op_times_must_cover_the_schedule():
    schedule = one_f_one_b_schedule(2, 2)
    op_times = dict(simulate_schedule(schedule, lambda op: 1.0).op_times)
    op_times.pop(next(iter(op_times)))
    shapes = [SHAPE] * 2
    with pytest.raises(ValueError, match="exactly the ops of the schedule"):
        build_instruction_streams(schedule, op_times, shapes, uniform_transfer_shapes(2, 2))
