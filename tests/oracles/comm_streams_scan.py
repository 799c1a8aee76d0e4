"""Scan-anchored stream lowering: the array lowering's identity oracle.

This is the original body of
:func:`repro.comm.planner.build_instruction_streams`, which anchored every
receive Start op with a linear scan over the receiving device's compute
ops.  The library now lowers streams from per-device start-time arrays
with one ``np.searchsorted`` per device; the equivalence suite checks the
two return identical streams.  It lives in ``tests/`` because nothing in
the library selects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.comm.planner import _compute_instruction, _normalise_recompute
from repro.comm.shapes import TransferShapes
from repro.instructions.ops import (
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


@dataclass(frozen=True)
class _PlannedComm:
    """A communication Start op anchored on a device's compute sequence.

    Attributes:
        device: Device whose stream the op belongs to.
        anchor: Index into the device's compute-op sequence before which the
            op must be launched (``len(ops)`` means "after the last op").
        order_time: Global time used to order Start ops with the same anchor.
        sequence: Tie-break counter preserving planning order.
        instruction: The Start instruction itself.
    """

    device: int
    anchor: int
    order_time: float
    sequence: int
    instruction: PipelineInstruction


def build_instruction_streams_scan(
    schedule: PipelineSchedule,
    op_times: dict[ComputeOp, tuple[float, float]],
    shapes: Sequence[MicroBatchShape],
    transfer_shapes: TransferShapes,
    recompute: RecomputeMode | Sequence[RecomputeMode] = RecomputeMode.NONE,
) -> list[list[PipelineInstruction]]:
    """Generate deadlock-free per-device instruction streams (paper §6).

    Args:
        schedule: The pipeline schedule (per-device compute op order).
        op_times: Simulated (start, end) times of every compute op, e.g. from
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

    # Position of each compute op within its device's sequence.
    op_position: dict[ComputeOp, int] = {}
    for stage_schedule in schedule.stages:
        for position, op in enumerate(stage_schedule.ops):
            op_position[op] = position

    def anchor_for_time(device: int, time: float) -> int:
        """First compute-op position on ``device`` that starts at/after ``time``."""
        for position, op in enumerate(schedule.stage(device).ops):
            if op_times[op][0] >= time - 1e-9:
                return position
        return len(schedule.stage(device).ops)

    planned: list[_PlannedComm] = []
    sequence = 0
    # Iterate compute ops by ascending end time; schedule both sides of each
    # transfer at the producer's end time.
    for op in sorted(op_times, key=lambda o: (op_times[o][1], o.stage, o.microbatch)):
        end_time = op_times[op][1]
        mb = op.microbatch
        if op.op_type is OpType.FORWARD and op.stage < num_stages - 1:
            nbytes = transfer_shapes.act_bytes(mb, op.stage)
            send = SendActStart(microbatch=mb, stage=op.stage, peer=op.stage + 1, nbytes=nbytes)
            recv = RecvActStart(microbatch=mb, stage=op.stage + 1, peer=op.stage, nbytes=nbytes)
            planned.append(
                _PlannedComm(op.stage, op_position[op] + 1, end_time, sequence, send)
            )
            sequence += 1
            planned.append(
                _PlannedComm(op.stage + 1, anchor_for_time(op.stage + 1, end_time), end_time, sequence, recv)
            )
            sequence += 1
        elif op.op_type is OpType.BACKWARD and op.stage > 0:
            nbytes = transfer_shapes.grad_bytes(mb, op.stage)
            send = SendGradStart(microbatch=mb, stage=op.stage, peer=op.stage - 1, nbytes=nbytes)
            recv = RecvGradStart(microbatch=mb, stage=op.stage - 1, peer=op.stage, nbytes=nbytes)
            planned.append(
                _PlannedComm(op.stage, op_position[op] + 1, end_time, sequence, send)
            )
            sequence += 1
            planned.append(
                _PlannedComm(op.stage - 1, anchor_for_time(op.stage - 1, end_time), end_time, sequence, recv)
            )
            sequence += 1

    # Group planned comm ops by (device, anchor), keeping the global order.
    by_anchor: dict[tuple[int, int], list[_PlannedComm]] = {}
    for item in planned:
        by_anchor.setdefault((item.device, item.anchor), []).append(item)
    for items in by_anchor.values():
        items.sort(key=lambda item: (item.order_time, item.sequence))

    streams: list[list[PipelineInstruction]] = []
    for device in range(num_stages):
        stream: list[PipelineInstruction] = []
        device_ops = schedule.stage(device).ops
        for position, op in enumerate(device_ops):
            # Comm Start ops anchored before this compute op.
            for item in by_anchor.get((device, position), []):
                stream.append(item.instruction)
            # Wait for the tensor this compute op consumes, if any.
            if op.op_type is OpType.FORWARD and device > 0:
                stream.append(WaitRecvAct(microbatch=op.microbatch, stage=device, peer=device - 1))
            elif op.op_type is OpType.BACKWARD and device < num_stages - 1:
                stream.append(WaitRecvGrad(microbatch=op.microbatch, stage=device, peer=device + 1))
            stream.append(_compute_instruction(op, shapes, recompute_modes))
        # Comm ops anchored after the final compute op.
        for item in by_anchor.get((device, len(device_ops)), []):
            stream.append(item.instruction)
        streams.append(stream)
    return streams
