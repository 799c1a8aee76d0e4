"""Ahead-of-time communication planning and instruction stream generation.

Given a pipeline schedule and the simulated timeline of its compute ops, the
planner emits one instruction stream per device containing:

* the compute ops in their scheduled order (``ForwardPass`` / ``BackwardPass``),
* ``Send*Start`` / ``Recv*Start`` ops for every inter-stage transfer, and
* ``WaitRecv*`` ops placed immediately before the compute op that consumes a
  received tensor.

Following §6 of the paper, the send *and* the matching receive of a transfer
are both scheduled at the moment the tensor is produced on the simulated
timeline.  Because every device orders its Start ops for a given neighbour
by that same global production time, the two sides of every channel post
transfers in the same order, which guarantees deadlock freedom (verified by
:mod:`repro.comm.deadlock` and, dynamically, by the instruction executor).

The module also provides the *naive* ordering — send right after production,
receive right before use — which is what existing systems do and which
deadlocks under dynamic (non-1F1B) schedules; it is used by tests, examples
and the baseline to demonstrate the problem.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.shapes import TransferShapes
from repro.instructions.ops import (
    BackwardPass,
    ForwardPass,
    PipelineInstruction,
    RecvActStart,
    RecvGradStart,
    SendActStart,
    SendGradStart,
    WaitRecvAct,
    WaitRecvGrad,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.schedule.events import ComputeOp, OpType, PipelineSchedule


def _compute_instruction(
    op: ComputeOp,
    shapes: Sequence[MicroBatchShape],
    recompute: Sequence[RecomputeMode],
) -> PipelineInstruction:
    """Build the ForwardPass/BackwardPass instruction for a compute op."""
    shape = shapes[op.microbatch]
    mode = recompute[op.microbatch]
    if op.op_type is OpType.FORWARD:
        return ForwardPass(microbatch=op.microbatch, stage=op.stage, shape=shape, recompute=mode)
    return BackwardPass(microbatch=op.microbatch, stage=op.stage, shape=shape, recompute=mode)


def _normalise_recompute(
    recompute: RecomputeMode | Sequence[RecomputeMode], count: int
) -> list[RecomputeMode]:
    if isinstance(recompute, RecomputeMode):
        return [recompute] * count
    recompute = list(recompute)
    if len(recompute) != count:
        raise ValueError(
            f"expected {count} recompute modes, got {len(recompute)}"
        )
    return recompute


def build_instruction_streams(
    schedule: PipelineSchedule,
    op_times: dict[ComputeOp, tuple[float, float]],
    shapes: Sequence[MicroBatchShape],
    transfer_shapes: TransferShapes,
    recompute: RecomputeMode | Sequence[RecomputeMode] = RecomputeMode.NONE,
) -> list[list[PipelineInstruction]]:
    """Generate deadlock-free per-device instruction streams (paper §6).

    Transfers are planned in order of their producer's end time (ties by
    stage, then micro-batch, then ``op_times`` iteration order).  A send is
    launched right after its producer; the matching receive before the
    first compute op of the receiving device that starts at or after the
    producer's end time, whether or not the device's starts are monotone.

    Args:
        schedule: The pipeline schedule (per-device compute op order).
        op_times: Simulated (start, end) times of every compute op of the
            schedule, e.g. from
            :func:`repro.simulator.engine.simulate_schedule`.
        shapes: Padded shape of each micro-batch (indexed by micro-batch id).
        transfer_shapes: Byte counts of all inter-stage transfers.
        recompute: Recomputation mode, either global or per micro-batch.

    Returns:
        One list of instructions per device, in execution order.
    """
    num_stages = schedule.num_stages
    if len(shapes) != schedule.num_microbatches:
        raise ValueError(
            f"expected {schedule.num_microbatches} shapes, got {len(shapes)}"
        )
    recompute_modes = _normalise_recompute(recompute, schedule.num_microbatches)

    # Position of every (stage, micro-batch, is-forward) op on its device.
    device_ops = [stage_schedule.ops for stage_schedule in schedule.stages]
    position = np.full((num_stages, schedule.num_microbatches, 2), -1, dtype=np.int64)
    for device, ops in enumerate(device_ops):
        microbatches = [op.microbatch for op in ops]
        forwards = [int(op.op_type is OpType.FORWARD) for op in ops]
        position[device, microbatches, forwards] = np.arange(len(ops))

    # op_times as columns, in its iteration order.
    ops = list(op_times)
    times = np.array(list(op_times.values()), dtype=np.float64).reshape(-1, 2)
    microbatch, stage, forward = np.array(
        [(op.microbatch, op.stage, op.op_type is OpType.FORWARD) for op in ops], dtype=np.int64
    ).reshape(-1, 3).T
    op_position = position[stage, microbatch, forward]
    if len(ops) != schedule.total_ops() or (op_position < 0).any():
        raise ValueError("op_times must hold exactly the ops of the schedule")

    # Receive anchors: one searchsorted per device over the running maximum
    # of its start times, for transfers in planning order (a stable sort, so
    # ties keep op_times order).
    order = np.lexsort((microbatch, stage, times[:, 1]))
    producers = order[np.where(forward == 1, stage < num_stages - 1, stage > 0)[order]]
    receiver = np.where(forward == 1, stage + 1, stage - 1)[producers]
    ready = times[producers, 1] - 1e-9
    anchor = np.empty(len(producers), dtype=np.int64)
    for device, ops_on_device in enumerate(device_ops):
        starts = np.empty(len(ops_on_device), dtype=np.float64)
        starts[op_position[stage == device]] = times[stage == device, 0]
        running_max = np.maximum.accumulate(starts) if starts.size else starts
        anchor[receiver == device] = np.searchsorted(running_max, ready[receiver == device])

    # Start ops bucketed by (device, anchor); appending in planning order
    # keeps each bucket ordered by producer end time.
    buckets = [[[] for _ in range(len(ops_on_device) + 1)] for ops_on_device in device_ops]
    send_anchor = op_position[producers] + 1
    for index, send_at, recv_at, peer in zip(
        producers.tolist(), send_anchor.tolist(), anchor.tolist(), receiver.tolist()
    ):
        op = ops[index]
        mb, src = op.microbatch, op.stage
        if op.op_type is OpType.FORWARD:
            nbytes = transfer_shapes.act_bytes(mb, src)
            send = SendActStart(microbatch=mb, stage=src, peer=peer, nbytes=nbytes)
            recv = RecvActStart(microbatch=mb, stage=peer, peer=src, nbytes=nbytes)
        else:
            nbytes = transfer_shapes.grad_bytes(mb, src)
            send = SendGradStart(microbatch=mb, stage=src, peer=peer, nbytes=nbytes)
            recv = RecvGradStart(microbatch=mb, stage=peer, peer=src, nbytes=nbytes)
        buckets[src][send_at].append(send)
        buckets[peer][recv_at].append(recv)

    streams: list[list[PipelineInstruction]] = []
    for device, ops_on_device in enumerate(device_ops):
        stream: list[PipelineInstruction] = []
        bucket = buckets[device]
        for position_on_device, op in enumerate(ops_on_device):
            # Comm Start ops anchored before this compute op.
            stream.extend(bucket[position_on_device])
            # Wait for the tensor this compute op consumes, if any.
            if op.op_type is OpType.FORWARD and device > 0:
                stream.append(WaitRecvAct(microbatch=op.microbatch, stage=device, peer=device - 1))
            elif op.op_type is OpType.BACKWARD and device < num_stages - 1:
                stream.append(WaitRecvGrad(microbatch=op.microbatch, stage=device, peer=device + 1))
            stream.append(_compute_instruction(op, shapes, recompute_modes))
        # Comm ops anchored after the final compute op.
        stream.extend(bucket[len(ops_on_device)])
        streams.append(stream)
    return streams


def build_naive_instruction_streams(
    schedule: PipelineSchedule,
    shapes: Sequence[MicroBatchShape],
    transfer_shapes: TransferShapes,
    recompute: RecomputeMode | Sequence[RecomputeMode] = RecomputeMode.NONE,
) -> list[list[PipelineInstruction]]:
    """Generate instruction streams with the *naive* communication order.

    Sends are posted immediately after the compute op that produces the
    tensor; receives are posted immediately before the compute op that
    consumes it.  This matches what 1F1B systems do and works for 1F1B's
    regular pattern, but produces mismatched channel orders — and therefore
    deadlocks — under dynamic schedules (paper §2.3, Fig. 8).
    """
    num_stages = schedule.num_stages
    recompute_modes = _normalise_recompute(recompute, schedule.num_microbatches)
    streams = []
    for device in range(num_stages):
        stream: list[PipelineInstruction] = []
        for op in schedule.stage(device).ops:
            mb = op.microbatch
            if op.op_type is OpType.FORWARD:
                if device > 0:
                    nbytes = transfer_shapes.act_bytes(mb, device - 1)
                    stream.append(RecvActStart(microbatch=mb, stage=device, peer=device - 1, nbytes=nbytes))
                    stream.append(WaitRecvAct(microbatch=mb, stage=device, peer=device - 1))
                stream.append(_compute_instruction(op, shapes, recompute_modes))
                if device < num_stages - 1:
                    nbytes = transfer_shapes.act_bytes(mb, device)
                    stream.append(SendActStart(microbatch=mb, stage=device, peer=device + 1, nbytes=nbytes))
            else:
                if device < num_stages - 1:
                    nbytes = transfer_shapes.grad_bytes(mb, device + 1)
                    stream.append(RecvGradStart(microbatch=mb, stage=device, peer=device + 1, nbytes=nbytes))
                    stream.append(WaitRecvGrad(microbatch=mb, stage=device, peer=device + 1))
                stream.append(_compute_instruction(op, shapes, recompute_modes))
                if device > 0:
                    nbytes = transfer_shapes.grad_bytes(mb, device)
                    stream.append(SendGradStart(microbatch=mb, stage=device, peer=device - 1, nbytes=nbytes))
        streams.append(stream)
    return streams
