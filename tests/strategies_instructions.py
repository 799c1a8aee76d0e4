"""Hypothesis strategies generating instruction streams for backend tests.

Shared by the simulator unit tests and the differential ISA-conformance
suite (``tests/test_backend_conformance.py``) so both test layers draw from
the same distribution of programs:

* :func:`planned_streams` — well-formed streams from the ahead-of-time
  communication planner over random 1F1B / cyclic schedules.  These are
  deadlock-free by construction (paper §6) and every backend must run them
  to completion.
* :func:`naive_streams` — streams with the naive send-after-produce /
  recv-before-consume ordering.  May or may not deadlock depending on the
  schedule; backends must agree on the verdict either way.
* :func:`head_mismatched_streams` — well-formed planned streams corrupted
  by swapping two same-channel Start ops with distinct transfer keys.  The
  corrupted channel's two sides then post in different orders, so the
  streams are *guaranteed* to deadlock: either the heads mismatch
  permanently or a device blocks forever on a Wait whose transfer can
  never reach the head.
* :func:`missing_peer_streams` — well-formed planned streams with one
  Start op deleted, so its transfer is never posted by that side and the
  streams are guaranteed to stall.
* :func:`known_head_mismatch_streams` — a fixed (non-hypothesis) instance
  of the above for deterministic regression tests and CI timeout guards.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.comm.planner import build_instruction_streams, build_naive_instruction_streams
from repro.comm.shapes import TransferShapes
from repro.instructions.ops import PipelineInstruction, _CommStart
from repro.model.transformer import MicroBatchShape
from repro.schedule.cyclic import cyclic_schedule
from repro.schedule.one_f_one_b import one_f_one_b_schedule
from repro.simulator.engine import simulate_schedule
from repro.simulator.executor import transfer_key

SHAPE = MicroBatchShape(batch_size=1, enc_seq_len=64)


def uniform_transfer_shapes(num_microbatches: int, num_stages: int) -> TransferShapes:
    """Uniform 64-byte transfers for every micro-batch and stage boundary."""
    return TransferShapes(
        activation_bytes=[[64.0] * num_stages for _ in range(num_microbatches)],
        gradient_bytes=[[64.0] * num_stages for _ in range(num_microbatches)],
    )


def streams_from_schedule(schedule) -> list[list[PipelineInstruction]]:
    """Planned (deadlock-free) streams for a schedule with unit compute."""
    shapes = [SHAPE] * schedule.num_microbatches
    transfer_shapes = uniform_transfer_shapes(
        schedule.num_microbatches, schedule.num_stages
    )
    sim = simulate_schedule(schedule, lambda op: 1.0)
    return build_instruction_streams(schedule, sim.op_times, shapes, transfer_shapes)


def naive_streams_from_schedule(schedule) -> list[list[PipelineInstruction]]:
    """Naive-order streams (may deadlock on dynamic schedules)."""
    shapes = [SHAPE] * schedule.num_microbatches
    transfer_shapes = uniform_transfer_shapes(
        schedule.num_microbatches, schedule.num_stages
    )
    return build_naive_instruction_streams(schedule, shapes, transfer_shapes)


@st.composite
def schedules(draw):
    """A random small pipeline schedule (1F1B or memory-limited cyclic)."""
    num_stages = draw(st.integers(min_value=2, max_value=4))
    num_microbatches = draw(st.integers(min_value=2, max_value=6))
    kind = draw(st.sampled_from(["1f1b", "cyclic"]))
    if kind == "1f1b":
        return one_f_one_b_schedule(num_stages, num_microbatches)
    # Heterogeneous activation footprints + a tight memory limit produce the
    # dynamic (non-1F1B) orderings where naive communication deadlocks.
    activation_bytes = [
        [float(draw(st.integers(min_value=1, max_value=4))) for _ in range(num_stages)]
        for _ in range(num_microbatches)
    ]
    limit = float(draw(st.integers(min_value=6, max_value=12)))
    return cyclic_schedule(
        num_stages, activation_bytes, memory_limits=[limit] * num_stages
    )


@st.composite
def planned_streams(draw):
    """Well-formed planner-produced streams: must execute on every backend."""
    return streams_from_schedule(draw(schedules()))


@st.composite
def naive_streams(draw):
    """Naive-order streams: backends must agree on the deadlock verdict."""
    return naive_streams_from_schedule(draw(schedules()))


def _swappable_start_pairs(
    streams,
) -> list[tuple[int, int, int]]:
    """All (device, i, j) where stream positions i<j hold Start ops on the
    same channel with distinct transfer keys — swapping them corrupts the
    channel's posting order."""
    pairs = []
    for device, stream in enumerate(streams):
        starts = [
            (pos, instr)
            for pos, instr in enumerate(stream)
            if isinstance(instr, _CommStart)
        ]
        for a in range(len(starts)):
            for b in range(a + 1, len(starts)):
                (i, first), (j, second) = starts[a], starts[b]
                if first.peer != second.peer:
                    continue
                if transfer_key(first) == transfer_key(second):
                    continue
                pairs.append((device, i, j))
    return pairs


def swap_starts(streams, device: int, i: int, j: int):
    """Copy of ``streams`` with positions ``i`` and ``j`` of ``device``'s
    stream exchanged."""
    corrupted = [list(stream) for stream in streams]
    corrupted[device][i], corrupted[device][j] = (
        corrupted[device][j],
        corrupted[device][i],
    )
    return corrupted


@st.composite
def head_mismatched_streams(draw):
    """Planned streams corrupted into a guaranteed channel-order mismatch.

    Returns ``(streams, (device, i, j))`` where the swap happened, so tests
    can assert the deadlock diagnostics point at the corrupted channel.
    """
    streams = streams_from_schedule(draw(schedules()))
    pairs = _swappable_start_pairs(streams)
    # Any planned schedule with >= 2 micro-batches has at least the two
    # forward sends out of stage 0 to swap.
    assert pairs, "generated schedule has no swappable Start pair"
    device, i, j = draw(st.sampled_from(pairs))
    return swap_starts(streams, device, i, j), (device, i, j)


@st.composite
def missing_peer_streams(draw):
    """Planned streams with one Start op removed: the Wait for that transfer
    (and the peer's matching Wait) can never complete.

    Returns ``(streams, (device, position))`` of the removed op.
    """
    streams = [list(stream) for stream in streams_from_schedule(draw(schedules()))]
    starts = [
        (device, position)
        for device, stream in enumerate(streams)
        for position, instr in enumerate(stream)
        if isinstance(instr, _CommStart)
    ]
    device, position = draw(st.sampled_from(starts))
    del streams[device][position]
    return streams, (device, position)


def known_head_mismatch_streams():
    """Deterministic corrupted streams for regression tests.

    A 2-stage, 3-micro-batch 1F1B program with the first two activation
    sends out of stage 0 swapped: stage 0 posts act(1) before act(0) while
    stage 1 still expects act(0) first, so the channel's heads mismatch
    permanently and the program can never complete.
    """
    streams = streams_from_schedule(one_f_one_b_schedule(2, 3))
    device, i, j = _swappable_start_pairs(streams)[0]
    return swap_starts(streams, device, i, j), (device, i, j)
